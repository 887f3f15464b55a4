"""What a run keeps per load sample and per host-minute of series.

Each tick's samples are kept twice: as the published batch (the bus's
``reports`` ring holds it) and in the load archive's columns.  In
column form that is 8 bytes in the batch and 16 in the archive (an
``array('q')`` minute and an ``array('d')`` value).  A ``(subject,
metric, time, value)`` tuple per sample, with the archive's lists of
boxed floats, cost about 143 bytes of heap per sample on this run.
"""

import tracemalloc

from repro.config.builtin import replicated_landscape
from repro.serviceglobe.platform import Platform
from repro.sim.results import ResultCollector
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario

#: net heap growth per published sample the run may show: the column
#: form measures about 55 bytes here, the rest of the run's growth (the
#: result collector's host series, situation events, compiled programs)
#: included
BYTES_PER_SAMPLE = 80


def test_a_sample_costs_bytes_not_objects():
    """Heap growth between minutes 10 and 59 of a seeded 60-minute run
    of three replicas of the paper's landscape, over the samples
    published in between."""
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=60, seed=7,
        landscape=replicated_landscape(3),
    )
    start = runner.start_minute
    traced = {}
    samples = 0

    def on_report(envelope):
        nonlocal samples
        minute = envelope.record.time - start
        if minute > 10:
            samples += len(envelope.record.series)
        if minute in (10, 59):
            traced[minute] = tracemalloc.get_traced_memory()[0]

    runner.platform.bus.subscribe("reports", on_report)
    tracemalloc.start()
    try:
        runner.run()
    finally:
        tracemalloc.stop()
    assert samples > 10_000
    growth = traced[59] - traced[10]
    assert growth / samples < BYTES_PER_SAMPLE, (growth, samples)


#: net heap growth per host-minute of collected host series: a float64
#: slot is 8 bytes, plus the arrays' over-allocation; a list slot and a
#: boxed float cost about 32
BYTES_PER_HOST_MINUTE = 16


def test_a_host_minute_of_series_costs_a_float64():
    """Heap growth of 200 minutes of the result collector's accounting
    over three replicas of the paper's landscape, per host-minute."""
    platform = Platform(replicated_landscape(3))
    collector = ResultCollector(platform, "static", 1.0)
    for now in range(20):
        collector.observe(now)
    minutes = 200
    tracemalloc.start()
    try:
        for now in range(20, 20 + minutes):
            collector.observe(now)
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    result = collector.finalize(20 + minutes - 1)
    assert len(result.host_series[result.host_names[0]]) == 20 + minutes
    host_minutes = len(platform.hosts) * minutes
    assert growth / host_minutes < BYTES_PER_HOST_MINUTE, (growth, host_minutes)
