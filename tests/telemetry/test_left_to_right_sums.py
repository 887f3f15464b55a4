"""Float sums that reach a run summary add left to right on every Python.

Python 3.12's builtin ``sum`` is compensated; before it, ``sum`` added
left to right, one rounding per addition, which is what the seeded
digests pin.  The load curves' peak sum, the run's mean availability
and a federation's merged mean availability go through
:func:`~repro.telemetry.windows.sum_forward`, so a compensated builtin
changes none of them.  ``[1e16, 1.0, -1e16]`` tells the two apart: the
1.0 is lost against 1e16 left to right, and kept by a compensated sum.
"""

import builtins
import math
from types import SimpleNamespace

import pytest

from repro.net.server import merge_summaries
from repro.sim.loadcurves import _workday_profile
from repro.sim.results import SimulationResult

VALUES = [1e16, 1.0, -1e16]


@pytest.fixture(autouse=True)
def compensated_sum(monkeypatch):
    """The builtin ``sum`` as Python 3.12 computes it, here."""
    monkeypatch.setattr(
        builtins, "sum", lambda items, start=0: math.fsum(items) + start
    )
    assert sum(VALUES) == 1.0


def test_load_curve_peaks_add_left_to_right():
    # each peak centred on minute 600 (10:00, inside the working-hours
    # envelope) contributes exactly its height there
    raw = _workday_profile([(600.0, 30.0, height) for height in VALUES])
    assert raw(600.0) == 0.03 + 1.0 * (0.62 + 0.0)


def test_mean_availability_adds_left_to_right():
    result = SimpleNamespace(availability={
        name: SimpleNamespace(availability=value)
        for name, value in zip("abc", VALUES)
    })
    assert SimulationResult.mean_availability.fget(result) == 0.0


def test_merged_mean_availability_adds_left_to_right():
    # horizon 1: a service's availability is 1 - its down minutes
    table = {
        name: {"down_minutes": 1 - int(value), "episode_count": 1}
        for name, value in zip("abc", VALUES)
    }
    merged = merge_summaries({"d1": {"availability_by_service": table}}, 1)
    assert [r["availability"] for r in merged["availability_by_service"].values()] == (
        VALUES
    )
    assert merged["mean_availability"] == 0.0
