"""The batched fuzzy path: one flat numeric program per (engine, rule base).

The scalar controller (:meth:`FuzzyController.evaluate`) walks objects and
is the audit path and the oracle.  Every batched caller runs a
:class:`Program` compiled once from the same objects, in three stages
that are each bit-identical to the scalar walk (DESIGN §14):

1. A :class:`TermTable` holds the corners of every trapezoid input term
   as ``(terms, 1)`` columns, so all grades of a batch are one expression
   on a ``(terms, n)`` matrix; other membership classes fill their row
   through their own ``evaluate``.
2. Every rule is a ``min`` over rows of that matrix: atoms are term rows,
   any ``OR``/``NOT``/``VERY``/``SOMEWHAT``/nested node is first computed
   into a derived row below them.  A rule with fewer operands than the
   widest repeats its first row (``min`` is idempotent), so all firing
   strengths are ``G[index].min(axis=1) * weights``.
3. Per output variable, one ``searchsorted`` where the defuzzifier is
   :class:`LeftmostMax`, the rules share one consequent object and its
   grid is monotone; otherwise the defuzzifier, once per distinct
   strength column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping
from typing import NamedTuple, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.fuzzy.defuzzify import _GRADE_TOLERANCE, Defuzzifier, LeftmostMax
from repro.fuzzy.expressions import And, Expression, Is, Not, Or, Somewhat, Very
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import ClippedSet, MembershipFunction, Trapezoid, UnionSet
from repro.fuzzy.variables import LinguisticVariable

if TYPE_CHECKING:
    from repro.fuzzy.inference import InferenceEngine

__all__ = ["TermTable", "Program"]

FloatArray = npt.NDArray[np.float64]

#: Contexts per evaluation pass.  Only memory depends on it: thirty term
#: rows times 4,997 hosts in one expression read 123 MB peak RSS on
#: ``landscape-5k-burst``, blocks of 1,024 read 118 (DESIGN §14).
_BLOCK = 1024

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


class TermTable:
    """Every input term of one engine as a row of a corner table."""

    def __init__(self, variables: Iterable[LinguisticVariable]) -> None:
        variables = list(variables)
        #: variable name -> row of the ``(variables, n)`` input matrix
        self.inputs: Dict[str, int] = {v.name: i for i, v in enumerate(variables)}
        #: (variable, term) -> row of the grade matrix
        self.rows: Dict[Tuple[str, str], int] = {}
        #: rows whose membership is not a plain trapezoid
        self.generic: List[Tuple[int, MembershipFunction]] = []
        owner: List[int] = []
        corners: List[Tuple[float, float, float, float]] = []
        for position, variable in enumerate(variables):
            for term in variable.terms:
                shape = term.membership
                self.rows[variable.name, term.name] = len(owner)
                if type(shape) is Trapezoid:
                    corners.append((shape.a, shape.b, shape.c, shape.d))
                else:
                    self.generic.append((len(owner), shape))
                    corners.append((0.0, 0.0, 0.0, 0.0))
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
        for row, shape in self.generic:
            grades[row] = shape.evaluate(x[row])
        return grades


class _Output(NamedTuple):
    """The rules ``[start, stop)`` of a program asserting one output variable."""

    name: str
    start: int
    stop: int
    consequents: List[MembershipFunction]
    domain: Tuple[float, float]

    def fuzzy_set(self, heights: Sequence[float]) -> MembershipFunction:
        """The aggregated output set :meth:`InferenceEngine.infer` builds."""
        clipped = [ClippedSet(c, h) for c, h in zip(self.consequents, heights)]
        return clipped[0] if len(clipped) == 1 else UnionSet(tuple(clipped))


#: a closed form is ``(output position, xs, grid, grid maximum)``; a plan is
#: those, then the positions of outputs that take the defuzzifier
_Closed = Tuple[int, FloatArray, FloatArray, float]
_Plan = Tuple[List[_Closed], List[int]]


class Program:
    """One rule base compiled against, and validated by, one engine.

    ``rules`` is the list that was compiled: the program is stale once
    ``rule_base.rules`` no longer equals it (identical elements compare
    by pointer).
    """

    def __init__(self, engine: "InferenceEngine", rule_base: RuleBase) -> None:
        engine.validate(rule_base)
        self.rule_base = rule_base
        self.rules: List[Rule] = list(rule_base.rules)
        self.terms = engine.terms
        self.stats = engine.stats
        #: input variables some rule reads, in the order the scalar walk
        #: would first miss them: rows are assigned in rule-base order
        self.referenced: Dict[str, None] = {}
        self.outputs: List[_Output] = []
        self._derived: List[Tuple[Callable[[FloatArray], Any], List[int]]] = []
        self._plans: Dict[int, _Plan] = {}
        grouped: Dict[str, List[Tuple[Rule, List[int]]]] = {}
        for rule in self.rules:
            root = rule.antecedent
            parts = root.operands if type(root) is And else (root,)
            grouped.setdefault(rule.output_variable, []).append(
                (rule, [self._row(part) for part in parts])
            )
        ordered = [member for members in grouped.values() for member in members]
        start = 0
        for name, members in grouped.items():
            consequents = [engine._resolve_consequent(rule) for rule, __ in members]
            domain = engine.output_variables[name].domain
            self.outputs.append(
                _Output(name, start, start + len(members), consequents, domain)
            )
            start += len(members)
        width = max((len(rows) for __, rows in ordered), default=1)
        self._index = np.array(
            [rows + rows[:1] * (width - len(rows)) for __, rows in ordered],
            dtype=np.intp,
        ).reshape(len(ordered), width)
        self._weights = np.array(
            [rule.weight for rule, __ in ordered], dtype=np.float64
        )[:, None]
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

    def inputs_of(self, measurements_list: Sequence[Mapping[str, float]]) -> FloatArray:
        """:meth:`inputs` of a non-empty batch of measurement mappings, which
        must all use the variable names of the first."""
        columns = {
            name: [measurements[name] for measurements in measurements_list]
            for name in measurements_list[0]
        }
        return self.inputs(columns, len(measurements_list))

    def strengths(self, values: FloatArray) -> FloatArray:
        """``(rules, n)`` firing strengths, rules grouped by output."""
        grades = self.terms.grades(values)
        self.stats["generic_terms"] += len(self.terms.generic)
        if self._derived:
            base = len(grades)
            table = np.empty((base + len(self._derived), values.shape[1]))
            table[:base] = grades
            for offset, (operation, rows) in enumerate(self._derived):
                table[base + offset] = operation(table[rows])
            grades = table
        strengths: FloatArray = grades[self._index].min(axis=1) * self._weights
        return strengths

    def evaluate(self, values: FloatArray, defuzzifier: Defuzzifier) -> FloatArray:
        """``(outputs, n)`` crisp values of :meth:`inputs`, in :attr:`outputs` order."""
        count = values.shape[1]
        crisp = np.empty((len(self.outputs), count))
        closed, gridded = self._plan(defuzzifier)
        for start in range(0, count, _BLOCK):
            strengths = self.strengths(values[:, start:start + _BLOCK])
            out = crisp[:, start:start + _BLOCK]
            if closed:
                peaks = np.maximum.reduceat(strengths, self._starts, axis=0)
            for position, xs, grid, grid_max in closed:
                # the defuzzifier's scan: one consequent clipped at each h_r
                # and united is that consequent clipped at max_r h_r, its peak
                # is min(grid_max, height), and the first point of a monotone
                # grid with mu >= peak - tol is this searchsorted
                thresholds = np.minimum(grid_max, peaks[position]) - _GRADE_TOLERANCE
                out[position] = xs[np.searchsorted(grid, thresholds, side="left")]
            for position in gridded:
                output = self.outputs[position]
                columns = [
                    tuple(c) for c in strengths[output.start:output.stop].T.tolist()
                ]
                scores = {
                    heights: defuzzifier(output.fuzzy_set(heights), output.domain)
                    for heights in dict.fromkeys(columns)
                }
                out[position] = [scores[heights] for heights in columns]
                self.stats["grid_defuzzifications"] += len(columns)
        return crisp

    def _plan(self, defuzzifier: Defuzzifier) -> _Plan:
        """Which outputs have a closed form under ``defuzzifier`` — decided
        per evaluation, the controller's defuzzifier is assignable."""
        if type(defuzzifier) is not LeftmostMax:
            return [], list(range(len(self.outputs)))
        plan = self._plans.get(defuzzifier.resolution)
        if plan is None:
            closed: List[_Closed] = []
            gridded: List[int] = []
            for position, output in enumerate(self.outputs):
                first = output.consequents[0]
                xs = np.linspace(*output.domain, defuzzifier.resolution)
                grid = np.asarray(first.evaluate(xs), dtype=np.float64)
                if any(c is not first for c in output.consequents) or bool(
                    np.any(np.diff(grid) < 0.0)
                ):
                    gridded.append(position)
                else:
                    closed.append((position, xs, grid, float(grid.max())))
            plan = self._plans[defuzzifier.resolution] = (closed, gridded)
        return plan
