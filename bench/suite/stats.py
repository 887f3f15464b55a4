"""Order statistics shared by the driver, the report and ``--compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

__all__ = ["percentile", "quartiles", "summarise"]


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; ``samples`` need not be sorted."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """First and third quartile of a handful of repetitions.

    The values are all there is of the run, not a sample of it, so the
    quartiles lie among them (``method="inclusive"``): of five values the
    second and the fourth.  The contract's driver, with ten runs, uses
    the exclusive method, which for five would interpolate towards the
    extremes and let one stalled repetition decide the spread.
    """
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(values: Sequence[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
