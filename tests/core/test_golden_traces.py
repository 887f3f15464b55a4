"""The controller against frozen traces.

``tests/golden/`` was recorded at the last commit that still had a
second, object-walking scan mode: every case was run under both modes,
the two outputs were asserted equal, and the columnar output was frozen
(see ``tests/golden/README.md``).  The single remaining path must keep
reproducing them bit for bit — floats included, which JSON round-trips
exactly:

* ``landscape_trace_NN.json`` — ten ``(landscape, load_seed)`` pairs
  drawn from the hypothesis strategy of the former cross-mode test, each
  with the full minute-by-minute trace of monitor samples, open
  observations, confirmed situations, executed actions and placement;
* ``summary_<scenario>.json`` — the summary and audit log of a seeded
  180-minute run of each paper scenario.
"""

import json
import random
from pathlib import Path

from repro.config.model import (
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.core.autoglobe import AutoGlobeController
from repro.serviceglobe.platform import Platform
from repro.telemetry.records import TOPIC_REPORTS
from tests.conftest import confirmed, published
from tests.core.conftest import MOBILE_ACTIONS, set_demand

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def _landscape(description) -> LandscapeSpec:
    """The landscape a golden file describes."""
    return LandscapeSpec(
        name="golden-trace",
        servers=[
            ServerSpec(name, performance_index=index, memory_mb=memory_mb)
            for name, index, memory_mb in description["hosts"]
        ],
        services=[
            ServiceSpec(
                service["name"],
                constraints=ServiceConstraints(
                    min_instances=1,
                    max_instances=service["max_instances"],
                    allowed_actions=MOBILE_ACTIONS,
                ),
                workload=WorkloadSpec(
                    users=service["users"],
                    memory_per_instance_mb=service["memory_per_instance_mb"],
                ),
            )
            for service in description["services"]
        ],
        initial_allocation=[
            (service["name"], service["initial_host"])
            for service in description["services"]
        ],
        controller=ControllerSettings(),
    )


def _drive(landscape: LandscapeSpec, load_seed: int, minutes: int):
    """Run one controller over a random load sequence; return the trace.

    The load sequence is derived deterministically from ``load_seed`` and
    applied to hosts in name order.
    """
    platform = Platform(landscape)
    controller = AutoGlobeController(
        platform,
        settings=ControllerSettings(
            overload_threshold=0.70,
            overload_watch_time=4,
            idle_threshold_base=0.125,
            idle_watch_time=6,
            protection_time=5,
            min_applicability=0.10,
        ),
    )
    rng = random.Random(load_seed)
    reports = published(platform.bus, TOPIC_REPORTS)
    situations = confirmed(platform.bus)
    trace = []
    for now in range(minutes):
        for host_name in sorted(platform.hosts):
            host = platform.host(host_name)
            demand = rng.uniform(0.0, 1.3) * host.performance_index
            set_demand(platform, host_name, demand)
        outcomes = controller.tick(now)
        # the tick's samples, as its report batch carried them
        (batch,) = reports
        reports.clear()
        assert batch.time == now
        samples = dict(zip(batch.series, batch.values.tolist()))
        trace.append(
            {
                "cpu": {name: samples[name, "cpu"] for name in platform.hosts},
                "mem": {name: samples[name, "mem"] for name in platform.hosts},
                "open": sorted(
                    (subject, kind.value)
                    for subject, kind in controller.lms._observations
                ),
                "confirmed": [
                    (s.kind.value, s.subject, s.service_name, s.time,
                     s.observed_mean)
                    for s in situations
                ],
                "actions": [outcome.to_dict() for outcome in outcomes],
                "placement": sorted(
                    (i.instance_id, i.host_name, i.state.value)
                    for service in platform.services.values()
                    for i in service.instances
                ),
            }
        )
    # tuples become lists, exactly as in the golden files
    return json.loads(json.dumps(trace))


def test_random_landscapes_match_golden_traces():
    paths = sorted(GOLDEN.glob("landscape_trace_*.json"))
    assert len(paths) >= 8
    for path in paths:
        golden = json.loads(path.read_text())
        trace = _drive(
            _landscape(golden["landscape"]),
            golden["load_seed"],
            minutes=len(golden["trace"]),
        )
        for minute, (got, want) in enumerate(zip(trace, golden["trace"])):
            assert got == want, f"{path.name} diverged at minute {minute}"


def test_paper_scenarios_match_golden_summaries():
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    for scenario in (
        Scenario.STATIC,
        Scenario.CONSTRAINED_MOBILITY,
        Scenario.FULL_MOBILITY,
    ):
        runner = SimulationRunner(
            scenario,
            user_factor=1.15,
            horizon=180,
            seed=7,
            collect_host_series=False,
        )
        result = runner.run()
        golden = json.loads((GOLDEN / f"summary_{scenario.value}.json").read_text())
        assert result.summary().split("\n") == golden["summary"], scenario
        assert [str(o) for o in result.actions] == golden["audit_log"]
