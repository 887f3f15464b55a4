"""What a run keeps per load sample.

Each tick's samples are kept twice: as the published batch (the bus's
``reports`` ring holds it) and in the load archive's columns.  In
column form that is 8 bytes in the batch and 16 in the archive (an
``array('q')`` minute and an ``array('d')`` value).  A ``(subject,
metric, time, value)`` tuple per sample, with the archive's lists of
boxed floats, cost about 143 bytes of heap per sample on this run.
"""

import tracemalloc

from repro.config.builtin import replicated_landscape
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
