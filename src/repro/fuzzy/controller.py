"""Generic fuzzy controller: fuzzify -> infer -> defuzzify (Figure 4).

:class:`FuzzyController` is domain-agnostic; AutoGlobe instantiates it
twice, once for action selection and once for server selection
(Section 4).  The controller takes crisp measurements, runs max-min
inference over its rule base and defuzzifies every output variable by
the paper's leftmost maximum.  Both ``evaluate`` (one context with its
audit trail) and ``evaluate_many`` (a batch) run the rule base's
compiled program, so they return the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.fuzzy.inference import FiredRule, InferenceEngine
from repro.fuzzy.rules import RuleBase
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["ControllerResult", "FuzzyController"]


@dataclass
class ControllerResult:
    """Crisp controller output plus full audit information.

    Attributes
    ----------
    outputs:
        Defuzzified crisp value per output variable (e.g. the
        applicability of each action, in [0, 1]).
    grades:
        Fuzzified measurements used for inference.
    fired:
        Per-rule firing strengths, in rule-base order.
    """

    outputs: Dict[str, float]
    grades: Mapping[str, Mapping[str, float]]
    fired: List[FiredRule] = field(default_factory=list)

    def ranked(self) -> List[tuple]:
        """Output variables sorted by crisp value, descending."""
        return sorted(self.outputs.items(), key=lambda kv: (-kv[1], kv[0]))

    def best(self) -> Optional[str]:
        """Name of the highest-scoring output variable, or ``None``."""
        ranking = self.ranked()
        return ranking[0][0] if ranking else None


class FuzzyController:
    """A complete fuzzy controller over one rule base.

    Parameters
    ----------
    input_variables / output_variables:
        Linguistic variable definitions.
    rule_base:
        The rules evaluated on every invocation.  The rule base is
        validated against the variables at construction time.
    """

    def __init__(
        self,
        input_variables: Iterable[LinguisticVariable],
        output_variables: Iterable[LinguisticVariable],
        rule_base: RuleBase,
    ) -> None:
        self.engine = InferenceEngine(input_variables, output_variables)
        self.engine.validate(rule_base)
        self.rule_base = rule_base
        #: the engine's counters of its compiled programs
        self.stats = self.engine.stats

    def evaluate(
        self,
        measurements: Mapping[str, float],
        rule_base: Optional[RuleBase] = None,
    ) -> ControllerResult:
        """Run one controller cycle on crisp measurements.

        A per-call ``rule_base`` may be supplied to support AutoGlobe's
        service-specific rule bases; it must use the same variables.
        """
        active = rule_base if rule_base is not None else self.rule_base
        outputs, grades, fired = self.engine.infer(active, measurements)
        return ControllerResult(outputs=outputs, grades=grades, fired=fired)

    def evaluate_many(
        self,
        measurements_list: Sequence[Mapping[str, float]],
        rule_base: Optional[RuleBase] = None,
    ) -> List[Dict[str, float]]:
        """Batched :meth:`evaluate`: crisp outputs for many measurement sets.

        All measurement mappings must share the same variable names (the
        Table 1 contexts do).  Element ``i`` of the result is bit-identical
        to ``evaluate(measurements_list[i], rule_base).outputs``.
        """
        active = rule_base if rule_base is not None else self.rule_base
        columns = {
            name: [measurements[name] for measurements in measurements_list]
            for name in (measurements_list[0] if measurements_list else ())
        }
        crisp = self.engine.infer_outputs_many(active, columns, len(measurements_list))
        names = [output.name for output in self.engine.program(active).outputs]
        return [dict(zip(names, row)) for row in crisp.T.tolist()]
