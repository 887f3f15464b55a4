"""Fuzzy rules and rule bases.

A rule has the form::

    IF <antecedent expression> THEN <output variable> IS <output term>

During inference, the consequent's fuzzy set is clipped at the antecedent's
degree of truth (max-min inference), and clipped sets of rules sharing an
output variable are combined with the fuzzy union.

Rule bases are ordered collections of rules.  AutoGlobe keeps dedicated
rule bases per trigger (serviceOverloaded, serverIdle, ...) and per action
for the server-selection controller, and supports service-specific rule
bases layered on top of the defaults (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.fuzzy.expressions import Expression

__all__ = ["Rule", "RuleBase"]


@dataclass(frozen=True)
class Rule:
    """A single fuzzy rule.

    Parameters
    ----------
    antecedent:
        The IF-part, an :class:`~repro.fuzzy.expressions.Expression`.
    output_variable:
        Name of the linguistic output variable (e.g. ``"scaleUp"``).
    output_term:
        Term of the output variable asserted by the consequent
        (e.g. ``"applicable"``).
    weight:
        Optional rule weight in (0, 1]; the antecedent truth is multiplied
        by the weight before clipping.  Weight 1 (the default) reproduces
        plain max-min inference.
    label:
        Optional human-readable identifier used in audit trails.
    """

    antecedent: Expression
    output_variable: str
    output_term: str
    weight: float = 1.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"rule weight must be in (0, 1], got {self.weight!r}")

    def variables(self) -> FrozenSet[str]:
        """Input variables referenced by the rule's antecedent."""
        return self.antecedent.variables()

    def __str__(self) -> str:
        return (
            f"IF {self.antecedent} "
            f"THEN {self.output_variable} IS {self.output_term}"
        )


@dataclass
class RuleBase:
    """An ordered, named collection of fuzzy rules."""

    name: str = "rulebase"
    rules: List[Rule] = field(default_factory=list)

    def add(self, rule: Rule) -> "RuleBase":
        """Append a rule; returns ``self`` for chaining."""
        self.rules.append(rule)
        return self

    def extend(self, rules: Iterable[Rule]) -> "RuleBase":
        for rule in rules:
            self.add(rule)
        return self

    def merged_with(self, other: "RuleBase", name: Optional[str] = None) -> "RuleBase":
        """A new rule base containing this base's rules followed by ``other``'s.

        Used to layer service-specific rule bases on top of the defaults.
        """
        merged_name = name if name is not None else f"{self.name}+{other.name}"
        return RuleBase(merged_name, list(self.rules) + list(other.rules))

    def input_variables(self) -> FrozenSet[str]:
        """All input variables referenced by any rule."""
        result: FrozenSet[str] = frozenset()
        for rule in self.rules:
            result |= rule.variables()
        return result

    def output_variables(self) -> Tuple[str, ...]:
        """Output variables in order of first appearance."""
        seen: Dict[str, None] = {}
        for rule in self.rules:
            seen.setdefault(rule.output_variable, None)
        return tuple(seen)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        lines = [f"# rule base {self.name!r} ({len(self)} rules)"]
        lines.extend(str(rule) for rule in self.rules)
        return "\n".join(lines)
