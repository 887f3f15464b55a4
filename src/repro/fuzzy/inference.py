"""Fuzzification and max-min inference.

The inference engine implements steps (2) and (3) of the fuzzy-controller
cycle of Figure 4:

1. crisp measurements are *fuzzified* against the input linguistic
   variables,
2. every rule's antecedent degree of truth is computed (``min`` for AND,
   ``max`` for OR),
3. the consequent fuzzy set of each rule is *clipped* at the antecedent's
   degree of truth (max-min inference),
4. clipped sets referring to the same output variable are combined with
   the fuzzy union ``mu(x) = max(mu_A(x), mu_B(x))``.

Defuzzification (step 4 of Figure 4) lives in :mod:`repro.fuzzy.defuzzify`.
:meth:`InferenceEngine.infer` is the scalar walk with its audit trail;
batches run the engine's compiled programs (:mod:`repro.fuzzy.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.fuzzy.compiled import Program, TermTable
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import ClippedSet, MembershipFunction, UnionSet
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["FiredRule", "InferenceResult", "InferenceEngine"]


@dataclass(frozen=True)
class FiredRule:
    """Audit record: one rule together with its firing strength."""

    rule: Rule
    strength: float


@dataclass
class InferenceResult:
    """Outcome of evaluating a rule base against fuzzified measurements.

    Attributes
    ----------
    grades:
        The fuzzified measurements (variable -> term -> grade).
    output_sets:
        Aggregated output fuzzy set per output variable.  Variables whose
        rules all fired with strength 0 map to a clipped-at-zero set, so a
        defuzzifier can still produce a (zero-applicability) value.
    fired:
        Per-rule audit records in rule-base order.
    """

    grades: Mapping[str, Mapping[str, float]]
    output_sets: Dict[str, MembershipFunction]
    fired: List[FiredRule] = field(default_factory=list)

    def strength_of(self, output_variable: str) -> float:
        """Maximum firing strength among rules asserting ``output_variable``."""
        strengths = [
            f.strength for f in self.fired if f.rule.output_variable == output_variable
        ]
        return max(strengths, default=0.0)


class InferenceEngine:
    """Max-min inference over a rule base.

    Parameters
    ----------
    input_variables:
        The linguistic variables measurements are fuzzified against.
    output_variables:
        The linguistic output variables; each rule's ``output_term`` must
        name a term of its output variable.
    """

    def __init__(
        self,
        input_variables: Iterable[LinguisticVariable],
        output_variables: Iterable[LinguisticVariable],
    ) -> None:
        self.input_variables: Dict[str, LinguisticVariable] = {
            v.name: v for v in input_variables
        }
        self.output_variables: Dict[str, LinguisticVariable] = {
            v.name: v for v in output_variables
        }
        #: the input terms as one corner table, shared by every program
        self.terms = TermTable(self.input_variables.values())
        self._programs: Dict[int, Program] = {}
        #: plain counters (ops ``/stats``); nothing reads them in a run
        self.stats: Dict[str, int] = dict.fromkeys(
            ("programs_compiled", "batches", "contexts", "generic_terms",
             "grid_defuzzifications"), 0
        )

    # -- validation -----------------------------------------------------------

    def validate(self, rule_base: RuleBase) -> None:
        """Check every rule references known variables and terms.

        Raises ``ValueError`` on the first inconsistency; meant to be called
        once when a rule base is installed, not on every inference.
        """
        for rule in rule_base:
            for variable_name in rule.variables():
                variable = self.input_variables.get(variable_name)
                if variable is None:
                    raise ValueError(
                        f"rule {rule.label or str(rule)!r} references unknown "
                        f"input variable {variable_name!r}"
                    )
            self._resolve_consequent(rule)

    def _resolve_consequent(self, rule: Rule) -> MembershipFunction:
        output = self.output_variables.get(rule.output_variable)
        if output is None:
            raise ValueError(
                f"rule {rule.label or str(rule)!r} references unknown "
                f"output variable {rule.output_variable!r}"
            )
        return output.term(rule.output_term).membership

    # -- inference --------------------------------------------------------------

    def fuzzify(self, measurements: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
        """Fuzzify crisp measurements against the input variables.

        Unknown measurement names raise; missing measurements are allowed
        and simply leave the corresponding variable unavailable (a rule
        touching it will raise at evaluation time, surfacing the wiring
        bug instead of silently assuming a value).
        """
        grades: Dict[str, Dict[str, float]] = {}
        for name, value in measurements.items():
            variable = self.input_variables.get(name)
            if variable is None:
                raise KeyError(f"measurement for unknown input variable {name!r}")
            grades[name] = dict(variable.fuzzify(value))
        return grades

    def infer(
        self,
        rule_base: RuleBase,
        measurements: Mapping[str, float],
    ) -> InferenceResult:
        """Run fuzzification + max-min inference for a rule base."""
        grades = self.fuzzify(measurements)
        clipped_by_output: Dict[str, List[MembershipFunction]] = {}
        fired: List[FiredRule] = []
        for rule in rule_base:
            strength = rule.firing_strength(grades)
            fired.append(FiredRule(rule, strength))
            consequent = self._resolve_consequent(rule)
            clipped_by_output.setdefault(rule.output_variable, []).append(
                ClippedSet(consequent, strength)
            )
        output_sets: Dict[str, MembershipFunction] = {}
        for output_variable, clipped_sets in clipped_by_output.items():
            if len(clipped_sets) == 1:
                output_sets[output_variable] = clipped_sets[0]
            else:
                output_sets[output_variable] = UnionSet(tuple(clipped_sets))
        return InferenceResult(grades=grades, output_sets=output_sets, fired=fired)

    # -- batched inference -------------------------------------------------------

    def program(self, rule_base: RuleBase) -> Program:
        """The compiled program of ``rule_base``: built, and the rule base
        validated, by the first evaluation and again once its (public)
        ``rules`` list no longer equals the one compiled — identical rules
        compare by pointer.  A compile that raises stores nothing."""
        program = self._programs.get(id(rule_base))
        if program is None or program.rules != rule_base.rules:
            # the program keeps its rule base alive, so the id stays its own
            program = self._programs[id(rule_base)] = Program(self, rule_base)
            self.stats["programs_compiled"] += 1
        return program

    def infer_outputs_many(
        self,
        rule_base: RuleBase,
        measurements_list: Sequence[Mapping[str, float]],
    ) -> List[Dict[str, MembershipFunction]]:
        """Aggregated output sets for a batch of measurement sets.

        The batched counterpart of :meth:`infer` restricted to its
        ``output_sets``: the program's firing strengths, assembled per
        context into the same clipped and united sets.  No
        :class:`FiredRule` audit records are produced.
        """
        program = self.program(rule_base)
        if not measurements_list:
            return []
        strengths = program.strengths(program.inputs_of(measurements_list))
        return [
            {
                output.name: output.fuzzy_set(heights[output.start:output.stop])
                for output in program.outputs
            }
            for heights in strengths.T.tolist()
        ]

    def output_domain(self, output_variable: str) -> Optional[Tuple[float, float]]:
        variable = self.output_variables.get(output_variable)
        return variable.domain if variable is not None else None
