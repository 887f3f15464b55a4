"""Incremental window statistics over monotone time series.

One home for the windowed-mean math that used to be reimplemented three
times (the load time series, the in-memory archive's window scans, the
LMS's watch-time coverage fraction):

* :func:`window_bounds` locates an inclusive ``[start, end]`` window in
  a sorted timestamp list with bisection instead of a linear scan;
* :func:`sum_forward` / :func:`sum_reversed` reproduce the two historic
  summation orders **bit for bit** (floating-point addition is not
  associative, and the byte-identity acceptance test compares run
  summaries exactly: the archive always summed windows oldest-first,
  the load series newest-first);
* :class:`RollingWindow` keeps a running sum/count for one trailing
  window so ``mean()`` is O(1) per query and O(1) amortized per append.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

__all__ = [
    "window_bounds",
    "sum_forward",
    "sum_reversed",
    "coverage_fraction",
    "RollingWindow",
]


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
    """Sum ``values[lo:hi]`` in descending-index order.

    Matches the historic :class:`~repro.monitoring.timeseries.LoadSeries`
    right-to-left window scan exactly, keeping refactored means
    bit-identical to the pre-bus pipeline.
    """
    total = 0.0
    for index in range(hi - 1, lo - 1, -1):
        total += values[index]
    return total


def coverage_fraction(times: Sequence[int], start: int, end: int) -> float:
    """Fraction of the minutes in ``[start, end]`` backed by real samples.

    The LMS's monitoring-degradation guard: dropped load reports leave
    gaps, and a watch window with too little coverage must not confirm a
    situation.
    """
    lo, hi = window_bounds(times, start, end)
    window = max(end - start + 1, 1)
    return (hi - lo) / window


class RollingWindow:
    """Running sum/count over one trailing window of a monotone series.

    ``push(time, value)`` appends a sample and evicts everything older
    than ``time - duration + 1`` (the inclusive trailing window the load
    series uses).  Gaps are natural: eviction is by timestamp, so a
    window spanning dropped reports simply holds fewer samples.

    The running sum accumulates float rounding that an exact re-sum
    would not; callers needing bit-exact window sums (the controller's
    decision path) use :func:`window_bounds` + the ordered sums instead.
    """

    __slots__ = ("duration", "_samples", "_sum")

    def __init__(self, duration: int) -> None:
        if duration < 1:
            raise ValueError("window duration must be at least one minute")
        self.duration = duration
        self._samples: Deque[Tuple[int, float]] = deque()
        self._sum = 0.0

    def push(self, time: int, value: float) -> None:
        """Append one sample; timestamps must be non-decreasing."""
        self._samples.append((time, value))
        self._sum += value
        floor = time - self.duration + 1
        while self._samples and self._samples[0][0] < floor:
            __, evicted = self._samples.popleft()
            self._sum -= evicted

    def seed(self, times: Sequence[int], values: Sequence[float]) -> None:
        """Replay an existing series into the window (used on lazy creation)."""
        if not times:
            return
        floor = times[-1] - self.duration + 1
        lo = bisect_left(times, floor)
        self._samples = deque(zip(times[lo:], values[lo:]))
        self._sum = sum_reversed(values, lo, len(values))

    def __len__(self) -> int:
        return len(self._samples)

    def mean(self) -> Optional[float]:
        """O(1) mean of the samples in the window, or ``None`` if empty."""
        if not self._samples:
            return None
        return self._sum / len(self._samples)

    def values(self) -> List[float]:
        return [value for __, value in self._samples]
