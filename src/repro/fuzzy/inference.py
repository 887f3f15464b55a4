"""Fuzzification and max-min inference.

The inference engine implements steps (1) to (3) of the fuzzy-controller
cycle of Figure 4, and the leftmost-maximum defuzzification of step (4):

1. crisp measurements are *fuzzified* against the input linguistic
   variables,
2. every rule's antecedent degree of truth is computed (``min`` for AND,
   ``max`` for OR),
3. the consequent fuzzy set of each rule is *clipped* at the antecedent's
   degree of truth (max-min inference), and clipped sets referring to
   the same output variable are combined with the fuzzy union
   ``mu(x) = max(mu_A(x), mu_B(x))``,
4. the crisp value is "the leftmost of all values at which the maximum
   truth value occurs".

Both entry points run the rule base's compiled program
(:mod:`repro.fuzzy.compiled`): :meth:`InferenceEngine.infer_outputs_many`
scores a batch of contexts, :meth:`InferenceEngine.infer` one context
with its audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.fuzzy.compiled import FloatArray, Program, TermTable
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import MembershipFunction
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["FiredRule", "InferenceEngine"]


@dataclass(frozen=True)
class FiredRule:
    """Audit record: one rule together with its firing strength."""

    rule: Rule
    strength: float


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
            ("programs_compiled", "batches", "contexts"), 0
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

    # -- inference -----------------------------------------------------------------

    def program(self, rule_base: RuleBase) -> Program:
        """The compiled program of ``rule_base``: built, and the rule base
        validated, by the first evaluation and again once its (public)
        ``rules`` list no longer equals the one compiled — identical rules
        compare by pointer.  A compile that raises stores nothing."""
        program = self._programs.get(id(rule_base))
        if program is None or program.rules != rule_base.rules:
            self.validate(rule_base)
            program = Program(self, rule_base)
            program.plan(self)
            # the program keeps its rule base alive, so the id stays its own
            self._programs[id(rule_base)] = program
            self.stats["programs_compiled"] += 1
        return program

    def infer_outputs_many(
        self, rule_base: RuleBase, columns: Mapping[str, Any], count: int
    ) -> FloatArray:
        """``(outputs, count)`` crisp values, outputs in the order of
        ``program(rule_base).outputs``, of ``count`` contexts given as one
        column of measurements per input variable."""
        program = self.program(rule_base)
        if not count:
            return np.empty((len(program.outputs), 0))
        return program.evaluate(program.inputs(columns, count))

    def infer(
        self, rule_base: RuleBase, measurements: Mapping[str, float]
    ) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]], List[FiredRule]]:
        """One context with its audit trail: the crisp value per output
        variable, the grades of every measured variable's terms and the
        firing strength of every rule, in rule-base order."""
        program = self.program(rule_base)
        values = program.inputs({name: [v] for name, v in measurements.items()}, 1)
        strengths = program.strengths(values)
        crisp = program.defuzzify(strengths)[:, 0].tolist()
        column = self.terms.grades(values)[:, 0].tolist()
        rows = self.terms.rows
        grades = {
            name: {
                term: column[rows[name, term]]
                for term in self.input_variables[name].term_names
            }
            for name in measurements
        }
        fired = strengths[program.order, 0].tolist()
        return (
            {output.name: value for output, value in zip(program.outputs, crisp)},
            grades,
            [FiredRule(rule, strength) for rule, strength in zip(program.rules, fired)],
        )
