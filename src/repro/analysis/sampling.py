"""Input-space sampling for the rule-base analyzers.

The coverage and contradiction checks reason about *regions* of the
crisp input space.  Exhaustively enumerating a 7-dimensional space is
out of the question, so the analyzers sample it:

* per variable, a list of *critical points* — domain endpoints, term
  corners (trapezoid ``a``/``b``/``c``/``d``) and the midpoints between
  consecutive corners, where term crossings (the worst-covered spots of
  a partition) live;
* the full cartesian product of critical points when it is small enough,
  falling back to deterministic pseudo-random sampling otherwise.

Everything is deterministic: the fallback RNG is seeded from a constant,
so lint output is stable run over run.  The samples are one input
matrix, a row per variable and a column per point: the analyzers read
every rule's firing strength at those columns off the compiled program
(:class:`repro.fuzzy.compiled.Program`), the controller's own evaluator.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fuzzy.compiled import FloatArray, trapezoid
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["critical_points", "joint_samples"]

#: Cap on the cartesian product of critical points; beyond this the
#: sampler switches to pseudo-random points.
_MAX_GRID = 20_000

#: Number of pseudo-random samples when the grid is too large.
_RANDOM_SAMPLES = 1_024

_SEED = 0xA610B  # stable across runs; "AutoGlobe" in leetspeak-ish hex


def critical_points(
    variable: LinguisticVariable,
    restriction: Optional[Tuple[float, float]] = None,
) -> List[float]:
    """Distinct sample points of one variable, sorted ascending.

    ``restriction`` clamps sampling to a sub-range of the domain (used to
    confine coverage checks to a trigger's firing region).
    """
    lo, hi = variable.domain
    if restriction is not None:
        lo = max(lo, restriction[0])
        hi = min(hi, restriction[1])
    if lo > hi:
        return []
    raw: List[float] = [lo, hi]
    for term in variable.terms:
        shape = trapezoid(variable, term)
        raw.extend((shape.a, shape.b, shape.c, shape.d))
    in_range = sorted({p for p in raw if lo <= p <= hi})
    # midpoints catch term crossings, the worst-covered spots
    points = list(in_range)
    for left, right in zip(in_range, in_range[1:]):
        points.append((left + right) / 2.0)
    return sorted(set(points))


def joint_samples(
    variables: Sequence[LinguisticVariable],
    restrictions: Optional[Mapping[str, Tuple[float, float]]] = None,
    max_grid: int = _MAX_GRID,
    random_samples: int = _RANDOM_SAMPLES,
) -> FloatArray:
    """Joint sample points as a ``(len(variables), n)`` array: row ``k``
    holds variable ``k``'s crisp value at each of the ``n`` points.

    Uses the exact critical-point grid, in :func:`itertools.product`
    order, when its size stays below ``max_grid``; otherwise
    ``random_samples`` deterministic pseudo-random points (uniform per
    variable within its restricted range, occasionally snapped to a
    critical point so that plateau corners stay reachable in high
    dimensions).  An empty restricted region has no points.
    """
    restrictions = restrictions or {}
    per_variable: List[Tuple[List[float], Tuple[float, float]]] = []
    for variable in variables:
        restriction = restrictions.get(variable.name)
        points = critical_points(variable, restriction)
        if not points:
            return np.empty((len(variables), 0))
        lo, hi = variable.domain
        if restriction is not None:
            lo, hi = max(lo, restriction[0]), min(hi, restriction[1])
        per_variable.append((points, (lo, hi)))

    grid_size = 1
    for points, _ in per_variable:
        grid_size *= len(points)
        if grid_size > max_grid:
            break
    if grid_size <= max_grid:
        # C order of an "ij" mesh is product order: the last varies fastest
        axes = np.meshgrid(*(points for points, _ in per_variable), indexing="ij")
        return np.array([axis.ravel() for axis in axes], dtype=np.float64)

    rng = random.Random(_SEED)
    samples = np.empty((len(per_variable), random_samples))
    for column in range(random_samples):
        for row, (points, (lo, hi)) in enumerate(per_variable):
            if rng.random() < 0.5:
                samples[row, column] = rng.choice(points)
            else:
                samples[row, column] = rng.uniform(lo, hi)
    return samples
