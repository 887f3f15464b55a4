"""Machine-speed correction: a fixed kernel run in slices between the work.

The sandbox this suite was written on changes speed by a third within
seconds and for minutes at a time (README, "How repeatable this machine
is"); wall seconds of the same seeded run then repeat to 15-35%, which no
bound survives.  So every timed region is accompanied by slices of a
fixed pure-Python kernel, a couple of milliseconds each, run on the same
thread every ``INTERVAL_S`` of wall time, and reported seconds are wall
seconds (less the slices) scaled to the speed the machine showed *while
that region ran*:

    reported = wall * mean(REFERENCE_SLICE_S / slice_seconds)

which is the reference-machine time of the same work when the slices
sample the region's wall time evenly.  The raw wall seconds and the scale
are kept beside every reported value.

The kernel knows nothing of the program under test and must never change:
a change to it, or to ``REFERENCE_SLICE_S``, moves every time and rate
this benchmark reports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Any, Callable, List, Tuple

__all__ = ["REFERENCE_SLICE_S", "INTERVAL_S", "slice_seconds", "SpeedMeter", "timed"]

#: what one slice takes on the reference machine: this sandbox in its
#: quieter phases.  A constant, so reported seconds read like real ones.
REFERENCE_SLICE_S = 0.0009
#: wall time between slices during a run (duty cycle about a tenth)
INTERVAL_S = 0.012
#: slices on each side of a region timed from outside (:func:`timed`)
BRACKET_SLICES = 4
#: fewest slices a stretch of a run is scaled by (:meth:`SpeedMeter.scale`)
NEAREST_SLICES = 8
_SLICE_ITEMS = 1000


class _Item:
    __slots__ = ("index", "weight", "label")

    def __init__(self, index: int, weight: float, label: str) -> None:
        self.index = index
        self.weight = weight
        self.label = label


def slice_seconds() -> float:
    """Run one kernel slice; return the wall seconds it took.

    Object allocation, dict inserts, a keyed sort, attribute reads, float
    arithmetic and string formatting: the interpreter work a simulated
    minute is made of, over a working set of a few hundred kilobytes.
    """
    started = perf_counter()
    table = {}
    items = []
    for index in range(_SLICE_ITEMS):
        key = (index * 2654435761) % 1000003
        item = table[key] = _Item(index, float(key), str(key))
        items.append(item)
    items.sort(key=lambda item: item.weight)
    total = 0.0
    for item in items:
        total += item.weight * 0.5 + len(item.label)
    labels = [f"svc-{item.index}:{item.label}" for item in items[: _SLICE_ITEMS // 4]]
    if total < 0 or not labels:
        raise AssertionError("unreachable: keeps the work observable")
    return perf_counter() - started


class SpeedMeter:
    """Slices taken while a region runs, and the scale they give."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        #: when each slice began, on the region's own clock: wall time less
        #: what the suite has spent inside the region so far
        self.at: List[float] = []
        #: wall seconds spent in suite code inside the region (slices and
        #: waits), to be taken out of the region's wall time
        self.suite_s = 0.0
        self._next_due = 0.0

    def due(self, now: float) -> bool:
        """Asked from inside the region, often; true every ``INTERVAL_S``."""
        return now >= self._next_due

    def take(self) -> None:
        self.at.append(perf_counter() - self.suite_s)
        taken = slice_seconds()
        self.slices.append(taken)
        self.suite_s += taken
        self._next_due = perf_counter() + INTERVAL_S

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference seconds per wall second between two times of the region.

        Over the slices that began in between; where those are fewer than
        ``NEAREST_SLICES`` (a tick of a millisecond has none), over that
        many around the middle.  Without arguments: over the whole region.
        """
        low, high = bisect_left(self.at, start), bisect_right(self.at, end)
        if high - low < NEAREST_SLICES <= len(self.at):
            middle = bisect_left(self.at, (start + end) / 2)
            low = max(0, min(middle - NEAREST_SLICES // 2, len(self.at) - NEAREST_SLICES))
            high = low + NEAREST_SLICES
        elif high - low < NEAREST_SLICES:
            low, high = 0, len(self.at)
        chosen = self.slices[low:high]
        if not chosen:
            return 1.0
        return sum(REFERENCE_SLICE_S / taken for taken in chosen) / len(chosen)


def timed(call: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``call()`` between two groups of slices: result, wall seconds, scale."""
    meter = SpeedMeter()
    for _ in range(BRACKET_SLICES):
        meter.take()
    started = perf_counter()
    result = call()
    wall = perf_counter() - started
    for _ in range(BRACKET_SLICES):
        meter.take()
    return result, wall, meter.scale()
