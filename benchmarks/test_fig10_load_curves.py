"""Figure 10: daily load curves of an LES and a BW application server.

LES rises at eight o'clock with "three peaks, one in the morning, one
before midday and one before the employees leave"; BW processes heavy
batch jobs during the night and only light requests during the day.
The benchmark regenerates both curves by driving the workload model
through one noise-free day and sampling the hosting blades' CPU loads.
"""

import numpy as np
import pytest

from repro.config.builtin import paper_landscape
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.scenarios import Scenario, scenario_landscape
from repro.sim.workload import NoiseParameters, WorkloadModel


def one_quiet_day():
    """Per-minute CPU load of an LES blade and a BW blade over a day."""
    platform = Platform(scenario_landscape(paper_landscape(), Scenario.STATIC, 1.0))
    workload = WorkloadModel(
        platform, seed=7,
        noise=NoiseParameters(sigma=0.0, burst_probability=0.0, derived_sigma=0.0),
    )
    workload.initialize()
    les = np.zeros(MINUTES_PER_DAY)
    bw = np.zeros(MINUTES_PER_DAY)
    for minute in range(MINUTES_PER_DAY):
        workload.tick(minute)
        les[minute] = platform.host_cpu_load("Blade1")   # LES instance
        bw[minute] = platform.host_cpu_load("Blade9")    # BW instance
    return les, bw


@pytest.mark.benchmark(group="fig10")
def test_fig10_les_and_bw_load_curves(benchmark):
    les, bw = benchmark(one_quiet_day)

    print("\nFigure 10 — load curves of LES and BW (one day, load in %)")
    print(f"{'time':>6} {'LES':>5} {'BW':>5}")
    for hour in range(0, 24, 1):
        minute = hour * 60
        print(f"{hour:4d}:00 {les[minute] * 100:5.0f} {bw[minute] * 100:5.0f}")

    def m(hours, minutes=0):
        return hours * 60 + minutes

    # LES: quiet at night, three workday peaks, 60-80% during main activity
    assert les[m(3)] < 0.10
    assert 0.60 <= les.max() <= 0.80
    morning = les[m(8, 30):m(10)].max()
    midday = les[m(11):m(12, 30)].max()
    evening = les[m(15, 30):m(17, 30)].max()
    lull_morning = les[m(10):m(11)].min()
    lull_afternoon = les[m(13):m(15)].min()
    assert morning > lull_morning and midday > lull_morning
    assert midday > lull_afternoon and evening > lull_afternoon

    # BW: heavy nightly batch window, light daytime reporting
    assert bw[m(2):m(5)].min() > 0.55
    assert bw[m(12)] < 0.25
    # the curves are complementary (the controller's opportunity)
    assert float(np.minimum(les, bw).max()) < 0.35
