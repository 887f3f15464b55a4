"""The fuzzy controller's one evaluator: a flat numeric program per
(engine, rule base).

Every evaluation — a batch of contexts or one context with its audit
trail (:class:`repro.fuzzy.inference.InferenceEngine`), and the firing
strengths the static analyzers sample (:mod:`repro.analysis`) — runs a
:class:`Program` compiled once from the rule base's objects, in three
stages (DESIGN §14):

1. A :class:`TermTable` holds the corners of every input term — each
   one a :class:`~repro.fuzzy.sets.Trapezoid`, any other shape is a
   ``TypeError`` — as ``(terms, 1)`` columns, so all grades of a batch
   are one expression on a ``(terms, n)`` matrix.
2. Every rule is a ``min`` over rows of that matrix: atoms are term rows,
   any ``OR``/``NOT``/``VERY``/``SOMEWHAT``/nested node is first computed
   into a derived row below them.  A rule with fewer operands than the
   widest repeats its first row (``min`` is idempotent), so all firing
   strengths are ``G[index].min(axis=1) * weights``.
3. Per output variable, the leftmost maximum (Figure 5) of its
   consequent clipped at each rule's strength and united, on a grid of
   :data:`RESOLUTION` points: one ``searchsorted`` into the consequent's
   grid, planned by :meth:`Program.plan`.  An output whose rules assert
   different consequents, or whose consequent is not monotone on the
   grid, has no such closed form and is refused there.

Stages 1 and 2 read only the input terms, so a rule whose consequent
does not resolve still has a firing strength: the linter samples those
too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List
from typing import Mapping, NamedTuple, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.fuzzy.expressions import And, Expression, Is, Not, Or, Somewhat, Very
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import MembershipFunction, Trapezoid
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable

if TYPE_CHECKING:
    from repro.fuzzy.inference import InferenceEngine

__all__ = ["TermTable", "Program", "trapezoid"]

FloatArray = npt.NDArray[np.float64]

#: Contexts per evaluation pass.  Only memory depends on it: thirty term
#: rows times 4,997 hosts in one expression read 123 MB peak RSS on
#: ``landscape-5k-burst``, blocks of 1,024 read 118 (DESIGN §14).
_BLOCK = 1024

#: Points of the output grid the leftmost maximum is read off.
RESOLUTION = 1001

#: Grades closer than this are equal when locating the maximum.
_GRADE_TOLERANCE = 1e-9

#: Derived rows: expression class -> value from the ``(operands, n)``
#: rows of its operands.  The hedges keep Python's scalar ``**`` per
#: element because numpy's array power differs in the last ulp.
_DERIVED: Dict[type, Callable[[FloatArray], Any]] = {
    And: lambda rows: rows.min(axis=0),
    Or: lambda rows: rows.max(axis=0),
    Not: lambda rows: 1.0 - rows[0],
    Very: lambda rows: [value ** 2 for value in rows[0].tolist()],
    Somewhat: lambda rows: [value ** 0.5 for value in rows[0].tolist()],
}


def trapezoid(variable: LinguisticVariable, term: LinguisticTerm) -> Trapezoid:
    """``term``'s membership, which as an input term must be a trapezoid."""
    shape = term.membership
    if not isinstance(shape, Trapezoid):
        raise TypeError(
            f"input term {term.name!r} of variable {variable.name!r} is a "
            f"{type(shape).__name__}; only Trapezoid input terms compile"
        )
    return shape


class TermTable:
    """Every input term of one engine as a row of a corner table."""

    def __init__(self, variables: Iterable[LinguisticVariable]) -> None:
        variables = list(variables)
        #: variable name -> row of the ``(variables, n)`` input matrix
        self.inputs: Dict[str, int] = {v.name: i for i, v in enumerate(variables)}
        #: (variable, term) -> row of the grade matrix
        self.rows: Dict[Tuple[str, str], int] = {}
        owner: List[int] = []
        corners: List[Tuple[float, float, float, float]] = []
        for position, variable in enumerate(variables):
            for term in variable.terms:
                shape = trapezoid(variable, term)
                self.rows[variable.name, term.name] = len(owner)
                corners.append((shape.a, shape.b, shape.c, shape.d))
                owner.append(position)
        self._owner = np.array(owner, dtype=np.intp)
        bounds = np.array([v.domain for v in variables], dtype=np.float64)
        self.lo, self.hi = bounds.reshape(-1, 2).T[:, :, None]
        table = np.array(corners, dtype=np.float64).reshape(-1, 4)
        self._a, self._b, self._c, self._d = table.T[:, :, None]
        self._rise = self._b - self._a
        self._fall = self._d - self._c
        self._flat = self._c == self._d

    def grades(self, values: FloatArray) -> FloatArray:
        """``(terms, n)`` grades of clamped ``(variables, n)`` inputs: branch for
        branch :meth:`Trapezoid.__call__`, with the same two divisions (``a ==
        b`` or ``c == d`` divide by zero only where another branch wins)."""
        x = values[self._owner]
        with np.errstate(divide="ignore", invalid="ignore"):
            rising = (x - self._a) / self._rise
            falling = (self._d - x) / self._fall
        plateau = np.where((x <= self._c) | self._flat, 1.0, falling)
        inside = np.where(x < self._b, rising, plateau)
        grades: FloatArray = np.where((x < self._a) | (x > self._d), 0.0, inside)
        return grades


class _Output(NamedTuple):
    """The rules ``[start, stop)`` of a program asserting one output
    variable, and the grid of their one consequent."""

    name: str
    start: int
    stop: int
    xs: FloatArray
    grid: FloatArray
    grid_max: float


def _planned(
    name: str, start: int, stop: int, consequents: Sequence[MembershipFunction],
    domain: Tuple[float, float],
) -> _Output:
    """One output's closed form, or the ``ValueError`` saying why it has none."""
    first = consequents[0]
    if any(consequent is not first for consequent in consequents):
        raise ValueError(
            f"output variable {name!r}: its rules assert different consequents; "
            "only one consequent has a closed-form leftmost maximum"
        )
    xs = np.linspace(*domain, RESOLUTION)
    grid = np.asarray(first.evaluate(xs), dtype=np.float64)
    if bool(np.any(np.diff(grid) < 0.0)):
        raise ValueError(
            f"output variable {name!r}: its consequent falls somewhere on "
            f"{domain!r}; only a non-decreasing one has a closed-form "
            "leftmost maximum"
        )
    return _Output(name, start, stop, xs, grid, float(grid.max()))


class Program:
    """One rule base compiled against one engine's input terms.

    The constructor compiles stages 1 and 2, the firing strengths;
    :meth:`plan` adds stage 3, the leftmost maxima.
    :meth:`InferenceEngine.program` validates the rule base and runs
    both; the analyzers read strengths of rules whose consequent does
    not resolve, so they run only the constructor.

    ``rules`` is the list that was compiled: the program is stale once
    ``rule_base.rules`` no longer equals it (identical elements compare
    by pointer).
    """

    def __init__(self, engine: "InferenceEngine", rule_base: RuleBase) -> None:
        self.rule_base = rule_base
        self.rules: List[Rule] = list(rule_base.rules)
        self.terms = engine.terms
        self.stats = engine.stats
        #: input variables some rule reads, in the order a rule-by-rule
        #: walk would first miss them: rows are assigned in rule-base order
        self.referenced: Dict[str, None] = {}
        self.outputs: List[_Output] = []
        self._derived: List[Tuple[Callable[[FloatArray], Any], List[int]]] = []
        grouped: Dict[str, List[Tuple[int, List[int]]]] = {}
        for position, rule in enumerate(self.rules):
            root = rule.antecedent
            parts = root.operands if type(root) is And else (root,)
            grouped.setdefault(rule.output_variable, []).append(
                (position, [self._row(part) for part in parts])
            )
        #: per output variable, the positions of its rules in the rule base
        self._groups = [
            (name, [position for position, __ in members])
            for name, members in grouped.items()
        ]
        ordered = [member for members in grouped.values() for member in members]
        #: row of :meth:`strengths` holding rule ``i`` of the rule base
        self.order: List[int] = [0] * len(ordered)
        for row, (position, __) in enumerate(ordered):
            self.order[position] = row
        width = max((len(rows) for __, rows in ordered), default=1)
        self._index = np.array(
            [rows + rows[:1] * (width - len(rows)) for __, rows in ordered],
            dtype=np.intp,
        ).reshape(len(ordered), width)
        self._weights = np.array(
            [self.rules[position].weight for position, __ in ordered],
            dtype=np.float64,
        )[:, None]
        self._starts: List[int] = []

    def plan(self, engine: "InferenceEngine") -> None:
        """Stage 3: per output variable, the closed form of its one
        consequent, or the ``ValueError`` saying why it has none."""
        start = 0
        for name, positions in self._groups:
            consequents = [
                engine._resolve_consequent(self.rules[position])
                for position in positions
            ]
            domain = engine.output_variables[name].domain
            self.outputs.append(
                _planned(name, start, start + len(positions), consequents, domain)
            )
            start += len(positions)
        self._starts = [output.start for output in self.outputs]

    def _row(self, expression: Expression) -> int:
        """Row of the grade matrix holding ``expression``'s truth."""
        if type(expression) is Is:
            self.referenced.setdefault(expression.variable)
            try:
                return self.terms.rows[expression.variable, expression.term]
            except KeyError:
                raise KeyError(
                    f"variable {expression.variable!r} has no term {expression.term!r}"
                ) from None
        operation = _DERIVED.get(type(expression))
        if operation is None:
            raise TypeError(f"cannot compile {type(expression).__name__} nodes")
        children = expression.operands if isinstance(expression, (And, Or)) else (
            expression.operand,  # type: ignore[attr-defined]
        )
        self._derived.append((operation, [self._row(child) for child in children]))
        return len(self.terms.rows) + len(self._derived) - 1

    # -- evaluation ----------------------------------------------------------------

    def inputs(self, columns: Mapping[str, Any], count: int) -> FloatArray:
        """The clamped ``(variables, count)`` matrix of per-variable columns;
        zeros for a variable without one, whose grades no rule reads."""
        known = self.terms.inputs
        values = np.zeros((len(known), count))
        for name, column in columns.items():
            if name not in known:
                raise KeyError(f"measurement for unknown input variable {name!r}")
            values[known[name]] = column
        for name in self.referenced:
            if name not in columns:
                raise KeyError(f"no fuzzified value for variable {name!r}")
        self.stats["batches"] += 1
        self.stats["contexts"] += count
        clamped: FloatArray = np.minimum(np.maximum(values, self.terms.lo), self.terms.hi)
        return clamped

    def strengths(self, values: FloatArray) -> FloatArray:
        """``(rules, n)`` firing strengths, rules grouped by output."""
        grades = self.terms.grades(values)
        if self._derived:
            base = len(grades)
            table = np.empty((base + len(self._derived), values.shape[1]))
            table[:base] = grades
            for offset, (operation, rows) in enumerate(self._derived):
                table[base + offset] = operation(table[rows])
            grades = table
        strengths: FloatArray = grades[self._index].min(axis=1) * self._weights
        return strengths

    def defuzzify(self, strengths: FloatArray) -> FloatArray:
        """``(outputs, n)`` leftmost maxima of :meth:`strengths`.

        Per output, the one consequent clipped at each rule's strength and
        united is that consequent clipped at the largest strength; its
        peak is ``min(grid_max, largest)``, and the first point of a
        non-decreasing grid within the tolerance of the peak is this
        ``searchsorted``.
        """
        crisp = np.empty((len(self.outputs), strengths.shape[1]))
        if self.outputs:
            peaks = np.maximum.reduceat(strengths, self._starts, axis=0)
        for position, output in enumerate(self.outputs):
            thresholds = np.minimum(output.grid_max, peaks[position]) - _GRADE_TOLERANCE
            crisp[position] = output.xs[
                np.searchsorted(output.grid, thresholds, side="left")
            ]
        return crisp

    def blocks(self, values: FloatArray) -> Iterator[Tuple[slice, FloatArray]]:
        """:meth:`strengths` of :meth:`inputs` ``_BLOCK`` columns at a time:
        ``(columns, strengths)`` pairs."""
        for start in range(0, values.shape[1], _BLOCK):
            columns = slice(start, start + _BLOCK)
            yield columns, self.strengths(values[:, columns])

    def evaluate(self, values: FloatArray) -> FloatArray:
        """``(outputs, n)`` crisp values of :meth:`inputs`, in :attr:`outputs` order."""
        crisp = np.empty((len(self.outputs), values.shape[1]))
        for columns, strengths in self.blocks(values):
            crisp[:, columns] = self.defuzzify(strengths)
        return crisp
