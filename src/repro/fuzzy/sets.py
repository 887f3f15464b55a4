"""Membership functions and fuzzy sets.

A fuzzy set ``A`` over a crisp universe ``X`` is characterized by a
membership function ``mu_A: X -> [0, 1]`` (Zadeh, 1965).  AutoGlobe uses
trapezoid membership functions for its linguistic terms (Figure 3 of the
paper) and ramp-shaped output sets for action applicability (Figure 5).

The classes in this module are immutable value objects.  They can be
evaluated point-wise via :meth:`MembershipFunction.__call__` and vectorized
over numpy arrays via :meth:`MembershipFunction.evaluate`; clipping and
union (max-min inference) happen inside the compiled program
(:mod:`repro.fuzzy.compiled`), not on these objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

__all__ = [
    "MembershipFunction",
    "Trapezoid",
    "Triangle",
    "RampUp",
    "RampDown",
    "Rectangle",
    "Singleton",
    "Constant",
    "PiecewiseLinear",
]

_EPSILON = 1e-12


class MembershipFunction:
    """Base class for membership functions ``mu: float -> [0, 1]``.

    Subclasses implement :meth:`__call__`.  All membership functions expose
    a :attr:`support` interval outside of which the membership grade is
    zero (or constant); a linguistic variable's domain defaults to the
    hull of its terms' supports.
    """

    #: Interval ``(lo, hi)`` outside of which the function is constant.
    support: Tuple[float, float] = (0.0, 1.0)

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a numpy array of crisp values."""
        return np.array([self(float(x)) for x in np.asarray(xs).ravel()])


def _validate_grade(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Trapezoid(MembershipFunction):
    """Trapezoid membership function defined by corners ``a <= b <= c <= d``.

    The grade rises linearly from 0 at ``a`` to 1 at ``b``, stays 1 until
    ``c`` and falls back to 0 at ``d``.  Degenerate corners are allowed:
    ``a == b`` yields a crisp left edge, ``b == c`` a triangle.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c <= self.d:
            raise ValueError(
                f"trapezoid corners must satisfy a <= b <= c <= d, "
                f"got ({self.a}, {self.b}, {self.c}, {self.d})"
            )
        object.__setattr__(self, "support", (self.a, self.d))

    def __call__(self, x: float) -> float:
        if x < self.a or x > self.d:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        if x <= self.c:
            return 1.0
        if self.c == self.d:
            return 1.0
        return (self.d - x) / (self.d - self.c)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        # elementwise float64 arithmetic matches __call__ bit for bit;
        # the suppressed divisions only occur where another branch wins
        xs = np.asarray(xs, dtype=float).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            rising = (xs - self.a) / (self.b - self.a)
            falling = (self.d - xs) / (self.d - self.c)
        plateau = np.where((xs <= self.c) | (self.c == self.d), 1.0, falling)
        inside = np.where(xs < self.b, rising, plateau)
        return np.where((xs < self.a) | (xs > self.d), 0.0, inside)


def Triangle(a: float, b: float, c: float) -> Trapezoid:
    """Triangular membership function: grade 1 only at the apex ``b``."""
    return Trapezoid(a, b, b, c)


@dataclass(frozen=True)
class RampUp(MembershipFunction):
    """Linearly increasing ramp: 0 below ``a``, 1 above ``b``.

    The paper's ``applicable`` output set is a ramp on [0, 1]; clipping a
    unit ramp at height ``h`` and taking the leftmost maximum yields ``h``
    itself, which is how the worked example of Figure 5 obtains the crisp
    applicability 0.6.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError(f"ramp requires a < b, got ({self.a}, {self.b})")
        object.__setattr__(self, "support", (self.a, self.b))

    def __call__(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).ravel()
        rising = (xs - self.a) / (self.b - self.a)
        return np.where(xs <= self.a, 0.0, np.where(xs >= self.b, 1.0, rising))


@dataclass(frozen=True)
class RampDown(MembershipFunction):
    """Linearly decreasing ramp: 1 below ``a``, 0 above ``b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError(f"ramp requires a < b, got ({self.a}, {self.b})")
        object.__setattr__(self, "support", (self.a, self.b))

    def __call__(self, x: float) -> float:
        if x <= self.a:
            return 1.0
        if x >= self.b:
            return 0.0
        return (self.b - x) / (self.b - self.a)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).ravel()
        falling = (self.b - xs) / (self.b - self.a)
        return np.where(xs <= self.a, 1.0, np.where(xs >= self.b, 0.0, falling))


@dataclass(frozen=True)
class Rectangle(MembershipFunction):
    """Crisp interval [a, b] viewed as a fuzzy set (grade 1 inside)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a > self.b:
            raise ValueError(f"rectangle requires a <= b, got ({self.a}, {self.b})")
        object.__setattr__(self, "support", (self.a, self.b))

    def __call__(self, x: float) -> float:
        return 1.0 if self.a <= x <= self.b else 0.0

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).ravel()
        return np.where((xs >= self.a) & (xs <= self.b), 1.0, 0.0)


@dataclass(frozen=True)
class Singleton(MembershipFunction):
    """Fuzzy singleton: grade ``height`` exactly at ``value``."""

    value: float
    height: float = 1.0

    def __post_init__(self) -> None:
        _validate_grade(self.height, "height")
        object.__setattr__(self, "support", (self.value, self.value))

    def __call__(self, x: float) -> float:
        return self.height if math.isclose(x, self.value, abs_tol=_EPSILON) else 0.0


@dataclass(frozen=True)
class Constant(MembershipFunction):
    """Constant membership grade over the whole universe."""

    height: float

    def __post_init__(self) -> None:
        _validate_grade(self.height, "height")
        object.__setattr__(self, "support", (0.0, 1.0))

    def __call__(self, x: float) -> float:
        return self.height

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(xs).size, self.height)


@dataclass(frozen=True)
class PiecewiseLinear(MembershipFunction):
    """Membership function interpolating linearly between ``(x, grade)`` knots.

    Knots must be sorted by ``x``; grades must lie in [0, 1].  Outside the
    knot range the function continues with the first / last grade.
    """

    points: Tuple[Tuple[float, float], ...]

    def __init__(self, points: Iterable[Tuple[float, float]]) -> None:
        knots = tuple((float(x), _validate_grade(g, "grade")) for x, g in points)
        if len(knots) < 2:
            raise ValueError("piecewise-linear set needs at least two knots")
        xs = [x for x, _ in knots]
        if any(x1 > x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("piecewise-linear knots must be sorted by x")
        object.__setattr__(self, "points", knots)
        object.__setattr__(self, "support", (knots[0][0], knots[-1][0]))

    def __call__(self, x: float) -> float:
        knots = self.points
        if x <= knots[0][0]:
            return knots[0][1]
        if x >= knots[-1][0]:
            return knots[-1][1]
        for (x1, g1), (x2, g2) in zip(knots, knots[1:]):
            if x1 <= x <= x2:
                if x2 == x1:
                    return max(g1, g2)
                t = (x - x1) / (x2 - x1)
                return g1 + t * (g2 - g1)
        raise AssertionError("unreachable: x inside knot range")
