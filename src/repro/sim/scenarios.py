"""The three evaluation scenarios (Section 5.1, Tables 5 and 6).

* **STATIC** — "a computing environment with all services being static
  [...] the standard environment used in most computing centers";
  no controller actions at all.
* **CONSTRAINED_MOBILITY** — databases and central instances are static;
  application servers support scale-in and scale-out; user sessions are
  sticky and rebalance only through slow fluctuation.
* **FULL_MOBILITY** — the BW database can be distributed across several
  servers (scale-in/scale-out); central instances and application
  servers can be moved (application servers additionally scale in all
  four directions); users are equally redistributed across all instances
  after every change.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Mapping, Tuple

from repro.config.model import Action, LandscapeSpec, ServiceKind
from repro.serviceglobe.dispatcher import UserDistribution

__all__ = [
    "Scenario",
    "scenario_landscape",
    "user_distribution_for",
    "controller_enabled_for",
    "ChaosProfile",
    "default_chaos",
    "controller_chaos",
]


class Scenario(enum.Enum):
    STATIC = "static"
    CONSTRAINED_MOBILITY = "constrained-mobility"
    FULL_MOBILITY = "full-mobility"


#: Table 5 — actions per service kind in the constrained-mobility scenario.
_CM_ACTIONS = {
    ServiceKind.APPLICATION_SERVER: frozenset({Action.SCALE_IN, Action.SCALE_OUT}),
    ServiceKind.CENTRAL_INSTANCE: frozenset(),
    ServiceKind.DATABASE: frozenset(),
}

#: Table 6 — actions per service kind in the full-mobility scenario.
_FM_ACTIONS = {
    ServiceKind.APPLICATION_SERVER: frozenset(
        {
            Action.SCALE_IN,
            Action.SCALE_OUT,
            Action.SCALE_UP,
            Action.SCALE_DOWN,
            Action.MOVE,
        }
    ),
    ServiceKind.CENTRAL_INSTANCE: frozenset(
        {Action.SCALE_UP, Action.SCALE_DOWN, Action.MOVE}
    ),
    ServiceKind.DATABASE: frozenset(),
}

#: Table 6 singles out the BW database: it "can be distributed across
#: several servers" via scale-in / scale-out.
_FM_BW_DATABASE_ACTIONS = frozenset({Action.SCALE_IN, Action.SCALE_OUT})
_FM_BW_DATABASE_MAX_INSTANCES = 3


def scenario_landscape(
    landscape: LandscapeSpec, scenario: Scenario, user_factor: float
) -> LandscapeSpec:
    """The landscape a run administers, in one copy per service.

    Each service gets the scenario's allowed actions (Tables 5 and 6) and
    its share of ``user_factor``: an interactive service's users are
    scaled, a batch service keeps its job count and scales its per-job
    load instead (Section 5.1: "we increase the load per batch job by 5%
    and leave the number of jobs constant").  ``user_factor`` 1.0 leaves
    the workloads as they are.
    """
    services = []
    for service in landscape.services:
        max_instances = service.constraints.max_instances
        if scenario is Scenario.STATIC:
            allowed: frozenset = frozenset()
        elif scenario is Scenario.CONSTRAINED_MOBILITY:
            allowed = _CM_ACTIONS[service.kind]
        else:
            allowed = _FM_ACTIONS[service.kind]
            if service.kind is ServiceKind.DATABASE and service.subsystem == "BW":
                allowed = _FM_BW_DATABASE_ACTIONS
                max_instances = _FM_BW_DATABASE_MAX_INSTANCES
        workload = service.workload
        if workload.batch:
            workload = dataclasses.replace(
                workload, load_per_user=workload.load_per_user * user_factor
            )
        else:
            workload = dataclasses.replace(
                workload, users=round(workload.users * user_factor)
            )
        services.append(
            dataclasses.replace(
                service,
                constraints=dataclasses.replace(
                    service.constraints,
                    allowed_actions=allowed,
                    max_instances=max_instances,
                ),
                workload=workload,
            )
        )
    return LandscapeSpec(
        name=f"{landscape.name}-{scenario.value}",
        servers=list(landscape.servers),
        services=services,
        initial_allocation=list(landscape.initial_allocation),
        controller=landscape.controller,
        domains=list(landscape.domains),
    )


def user_distribution_for(scenario: Scenario) -> UserDistribution:
    """Session policy of the scenario.

    Sticky everywhere except full mobility, where "the users are equally
    redistributed across all instances" after changes.
    """
    if scenario is Scenario.FULL_MOBILITY:
        return UserDistribution.REDISTRIBUTE
    return UserDistribution.STICKY


def controller_enabled_for(scenario: Scenario) -> bool:
    """The static scenario runs without the controller."""
    return scenario is not Scenario.STATIC


@dataclasses.dataclass(frozen=True)
class ChaosProfile:
    """Fault-injection knobs of a chaos run (the ``--chaos`` CLI flag).

    Groups the hostile-environment parameters in one place: instance
    and host fault rates for the :class:`~repro.sim.faults.FaultInjector`,
    monitoring-outage rates for the controller's staleness guards, and
    execution faults for the :class:`~repro.serviceglobe.executor.ActionExecutor`
    (flaky actions that need retries, commit failures that trigger move
    compensation).  One ``seed`` derives both the injector's and the
    executor's RNG streams so a chaos run is fully deterministic.
    """

    #: per instance-minute probabilities (mean time between failures of
    #: roughly half a simulated day / a full day — a hostile environment,
    #: far above the defaults used by plain fault tests)
    crash_probability: float = 1.0 / (12 * 60)
    hang_probability: float = 1.0 / (24 * 60)
    #: per host-minute probability of a full host crash
    host_crash_probability: float = 1.0 / (24 * 60)
    host_reboot_minutes: Tuple[int, int] = (30, 90)
    #: per host-minute probability that load reports stop arriving
    monitor_outage_probability: float = 1.0 / (8 * 60)
    monitor_outage_minutes: Tuple[int, int] = (3, 15)
    #: per-attempt probability that an issued action fails transiently
    action_failure_probability: float = 0.15
    #: probability that a relocation fails *after* the source was stopped
    #: (exercises the executor's compensation path)
    commit_failure_probability: float = 0.05
    #: mean action latencies in simulated minutes (empty = instantaneous)
    action_latency_means: Mapping[Action, float] = dataclasses.field(
        default_factory=dict
    )
    action_latency_jitter: bool = True
    #: per-minute probability the controller process itself dies (off by
    #: default; turning it on makes the runner manage the controller
    #: through a :class:`~repro.core.failover.ControllerSupervisor`)
    controller_crash_probability: float = 0.0
    controller_restart_minutes: Tuple[int, int] = (5, 15)
    #: per-minute probability the leader is partitioned from the lease
    #: store (with a hot standby this forces a fenced failover)
    leader_partition_probability: float = 0.0
    leader_partition_minutes: Tuple[int, int] = (10, 20)
    seed: int = 115

    @property
    def has_controller_faults(self) -> bool:
        return (
            self.controller_crash_probability > 0.0
            or self.leader_partition_probability > 0.0
        )


_DEFAULT_LATENCIES = {
    Action.START: 1.0,
    Action.STOP: 0.5,
    Action.SCALE_OUT: 1.5,
    Action.SCALE_IN: 0.5,
    Action.SCALE_UP: 2.0,
    Action.SCALE_DOWN: 2.0,
    Action.MOVE: 2.0,
}


def default_chaos(seed: int = 115) -> ChaosProfile:
    """The stock chaos profile used by ``autoglobe run --chaos`` and CI."""
    return ChaosProfile(seed=seed, action_latency_means=dict(_DEFAULT_LATENCIES))


def controller_chaos(seed: int = 115) -> ChaosProfile:
    """The stock profile plus controller crashes and leader partitions.

    A controller fault roughly every four hours (crash) / six hours
    (partition) — frequent enough that a half-day run exercises several
    recoveries and at least one fenced failover, rare enough that the
    landscape sees a normal fault mix in between.
    """
    return ChaosProfile(
        seed=seed,
        action_latency_means=dict(_DEFAULT_LATENCIES),
        controller_crash_probability=1.0 / (4 * 60),
        controller_restart_minutes=(5, 15),
        leader_partition_probability=1.0 / (6 * 60),
        leader_partition_minutes=(10, 20),
    )
