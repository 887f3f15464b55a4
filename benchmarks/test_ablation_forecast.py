"""Ablation: feed-forward (forecast-assisted) control.

The paper's future work reports "first encouraging simulation studies"
on predicting service load from the load archive.  This controlled
experiment isolates the mechanism's benefit — shaving off the reactive
path's detection latency (watchTime) — on a strongly periodic workload:

a service whose users surge every morning is supervised for three days;
the reactive controller pays the 10-minute watch time (plus ramp-up
drift) in degraded service every single day, while the forecast-assisted
controller has learned the pattern after one day and scales out *before*
the surge.

(The full SAP landscape is deliberately not used here: once the reactive
controller keeps loads below the threshold, the archived patterns no
longer show breaches — anticipation is self-negating in closed loop, so
a capacity claim would be dishonest.  The latency win below is what the
mechanism reliably delivers.)
"""

import pytest

from repro.config.model import (
    Action,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.core.autoglobe import AutoGlobeController
from repro.forecasting.forecast import ProactiveScaler
from repro.serviceglobe.dispatcher import UserDistribution
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY
from repro.telemetry.records import TOPIC_ACTIONS

DAYS = 3
SURGE_START = 8 * 60
SURGE_END = 11 * 60
LOAD_PER_USER = 0.0065


def surge_landscape():
    return LandscapeSpec(
        name="surge",
        # equal blades: scale-out is the only effective remedy, so the
        # surge must re-trigger an action every morning after the nightly
        # consolidation — the repeating situation the forecast learns
        servers=[
            ServerSpec("blade1", performance_index=1.0, memory_mb=2048),
            ServerSpec("blade2", performance_index=1.0, memory_mb=2048),
            ServerSpec("blade3", performance_index=1.0, memory_mb=2048),
        ],
        services=[
            ServiceSpec(
                "portal",
                constraints=ServiceConstraints(
                    min_instances=1,
                    allowed_actions=frozenset(
                        {Action.SCALE_OUT, Action.SCALE_IN, Action.SCALE_UP,
                         Action.SCALE_DOWN, Action.MOVE}
                    ),
                ),
                workload=WorkloadSpec(users=140, memory_per_instance_mb=512),
            )
        ],
        initial_allocation=[("portal", "blade1")],
    )


def users_at(minute):
    of_day = minute % MINUTES_PER_DAY
    return 140 if SURGE_START <= of_day < SURGE_END else 20


def run_surge(proactive: bool):
    platform = Platform(surge_landscape(), UserDistribution.REDISTRIBUTE)
    executed = []
    platform.bus.subscribe(
        TOPIC_ACTIONS, lambda envelope: executed.append(envelope.record.outcome)
    )
    controller = AutoGlobeController(platform, ControllerSettings())
    scaler = None
    if proactive:
        scaler = ProactiveScaler(controller, lookahead=30, cooldown=6 * 60)
    service = platform.service("portal")
    overload_minutes_per_day = [0] * DAYS
    for now in range(DAYS * MINUTES_PER_DAY):
        # capacity-proportional login of the current user population
        instances = service.running_instances
        for instance in instances:
            instance.users = 0
        platform.dispatcher.place_users(instances, users_at(now))
        for instance in service.running_instances:
            instance.demand = instance.users * LOAD_PER_USER
        controller.tick(now)
        if scaler is not None:
            scaler.tick(now)
        overloaded = any(
            host.cpu_load > 0.80 and host.running_instances
            for host in platform.hosts.values()
        )
        if overloaded:
            overload_minutes_per_day[now // MINUTES_PER_DAY] += 1
    return overload_minutes_per_day, executed


@pytest.mark.benchmark(group="ablation")
def test_ablation_forecast_assist(benchmark):
    def experiment():
        return run_surge(proactive=False), run_surge(proactive=True)

    (reactive_overload, __), (assisted_overload, assisted_log) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    print("\nAblation — feed-forward control (periodic morning surge, 3 days)")
    print(f"  {'day':>4} {'reactive od-min':>16} {'assisted od-min':>16}")
    for day in range(DAYS):
        print(f"  {day:>4} {reactive_overload[day]:>16} {assisted_overload[day]:>16}")

    # day 0 is identical: no history to mine yet
    # after a day of history the assisted controller anticipates the surge
    # and avoids (nearly all of) the reactive path's detection latency
    assert sum(assisted_overload[1:]) < sum(reactive_overload[1:])
    assert sum(assisted_overload[1:]) <= 2 * (DAYS - 1)
    # the reactive path keeps paying the watch time every day
    assert all(overload >= 5 for overload in reactive_overload)
    # the anticipated scale-outs are among the executed actions before 8:00
    anticipated = [
        outcome
        for outcome in assisted_log
        if outcome.time >= MINUTES_PER_DAY
        and (outcome.time % MINUTES_PER_DAY) < SURGE_START
        and outcome.action in (Action.SCALE_OUT, Action.SCALE_UP)
    ]
    assert anticipated
