"""Membership functions and fuzzy sets.

A fuzzy set ``A`` over a crisp universe ``X`` is characterized by a
membership function ``mu_A: X -> [0, 1]`` (Zadeh, 1965).  AutoGlobe uses
trapezoid membership functions for its linguistic terms (Figure 3 of the
paper) and a ramp-shaped output set for action applicability (Figure 5);
these are the two shapes there are.

The classes in this module are immutable value objects.  ``__call__``
grades one crisp value (fuzzification of one measurement, Figure 3) and
``evaluate`` a numpy array (the output grid the compiled program reads
the leftmost maximum off).  Inference — input grades of a batch,
firing strengths, clipping and union — runs in the compiled program
(:mod:`repro.fuzzy.compiled`), whose term table reads a trapezoid's
corners, not these methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["MembershipFunction", "Trapezoid", "RampUp"]


class MembershipFunction:
    """Base class for membership functions ``mu: float -> [0, 1]``.

    Subclasses implement :meth:`__call__` and :meth:`evaluate`.  All
    membership functions expose a :attr:`support` interval outside of
    which the membership grade is zero (or constant); a linguistic
    variable's domain defaults to the hull of its terms' supports.
    """

    #: Interval ``(lo, hi)`` outside of which the function is constant.
    support: Tuple[float, float] = (0.0, 1.0)

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a numpy array of crisp values."""
        raise NotImplementedError


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
