"""Window statistics over monotone time series.

The windowed-mean math of the load archive and the LMS's watch windows:

* :func:`window_bounds` locates an inclusive ``[start, end]`` window in
  a sorted timestamp list with bisection instead of a linear scan;
* :func:`sum_forward` / :func:`sum_reversed` reproduce the two historic
  summation orders **bit for bit** (floating-point addition is not
  associative, and the seeded digests compare run summaries exactly:
  the archive's means — the fuzzy controller's ``cpuLoad`` — sum a
  window oldest first, the LMS's watch-time means newest first).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence, Tuple

__all__ = ["window_bounds", "sum_forward", "sum_reversed"]


def window_bounds(
    times: Sequence[int], start: int, end: Optional[int] = None
) -> Tuple[int, int]:
    """Slice bounds ``(lo, hi)`` of the samples with ``start <= t <= end``.

    ``times`` must be sorted ascending.  ``end=None`` means unbounded on
    the right.  The window is ``times[lo:hi]``; an empty window yields
    ``lo == hi``.
    """
    lo = bisect_left(times, start)
    hi = len(times) if end is None else bisect_right(times, end)
    return lo, hi


def sum_forward(values: Sequence[float], lo: int, hi: int) -> float:
    """Sum ``values[lo:hi]`` in ascending-index order, one rounding per
    addition: what SQLite 3.40's ``AVG`` sums and Python before 3.12's
    builtin ``sum`` did (3.12's is compensated, so it is not used here)."""
    total = 0.0
    for value in values[lo:hi]:
        total += value
    return total


def sum_reversed(values: Sequence[float], lo: int, hi: int) -> float:
    """Sum ``values[lo:hi]`` in descending-index order: the LMS's
    watch-time mean, whose bits the seeded digests pin."""
    total = 0.0
    for index in range(hi - 1, lo - 1, -1):
        total += values[index]
    return total
