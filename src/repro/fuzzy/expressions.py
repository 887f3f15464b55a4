"""Antecedent expression algebra for fuzzy rules.

Rule antecedents combine atomic propositions of the form
``<variable> IS <term>`` with fuzzy connectives:

* conjunction (``AND``) is evaluated with the ``min`` function,
* disjunction (``OR``) with the ``max`` function,
* negation (``NOT``) with the standard complement ``1 - x``,

exactly as described in Section 3 of the paper.  Expressions are immutable
trees that say what a rule reads; none of them evaluates itself.  The
compiled program (:mod:`repro.fuzzy.compiled`) turns a tree into rows of
its grade matrix: ``min`` and ``max`` over operand rows, ``1 - x``, and
the hedges' ``x ** 2`` and ``x ** 0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["Expression", "Is", "And", "Or", "Not", "Very", "Somewhat"]


class Expression:
    """Base class for antecedent expressions."""

    def variables(self) -> FrozenSet[str]:
        """Names of all linguistic variables referenced by the expression."""
        raise NotImplementedError

    def __and__(self, other: "Expression") -> "And":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Is(Expression):
    """Atomic proposition ``variable IS term``."""

    variable: str
    term: str

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.variable})

    def __str__(self) -> str:
        return f"{self.variable} IS {self.term}"


class _Nary(Expression):
    """Shared plumbing for n-ary connectives; flattens nested same-type nodes."""

    operands: Tuple[Expression, ...]

    def __init__(self, operands: Tuple[Expression, ...]) -> None:
        if len(operands) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        flattened = []
        for operand in operands:
            if type(operand) is type(self):
                flattened.extend(operand.operands)  # type: ignore[attr-defined]
            else:
                flattened.append(operand)
        object.__setattr__(self, "operands", tuple(flattened))

    def variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.variables()
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.operands == self.operands  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.operands))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.operands!r})"


class And(_Nary):
    """Fuzzy conjunction, evaluated with ``min``."""

    def __str__(self) -> str:
        return " AND ".join(_parenthesize(op) for op in self.operands)


class Or(_Nary):
    """Fuzzy disjunction, evaluated with ``max``."""

    def __str__(self) -> str:
        return " OR ".join(_parenthesize(op) for op in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Fuzzy negation, evaluated with the standard complement ``1 - x``."""

    operand: Expression

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"NOT {_parenthesize(self.operand)}"


@dataclass(frozen=True)
class Very(Expression):
    """Concentration hedge: ``mu(x)^2``.

    "very high" demands a stronger degree of highness; grades below 1
    shrink, so the hedged proposition fires more conservatively.
    """

    operand: Expression

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"VERY {_parenthesize(self.operand)}"


@dataclass(frozen=True)
class Somewhat(Expression):
    """Dilation hedge: ``sqrt(mu(x))``.

    "somewhat high" is satisfied by weaker degrees of highness; grades
    below 1 grow, so the hedged proposition fires more liberally.
    """

    operand: Expression

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"SOMEWHAT {_parenthesize(self.operand)}"


def _parenthesize(expression: Expression) -> str:
    """Render a sub-expression, adding parentheses around connectives."""
    text = str(expression)
    if isinstance(expression, (And, Or)):
        return f"({text})"
    return text
