"""Robustness benchmark: self-healing under fault injection.

Not a paper figure — the paper states the mechanism ("failure situations
like a program crash are remedied for example with a restart") without
evaluating it.  This benchmark subjects the constrained-mobility SAP
landscape at 115% users to an aggressive fault storm (instance MTBF of
about six hours, crashes and hangs) for one simulated day and checks
that the self-healing path keeps the installation serviceable.
"""

import pytest

from repro.config.builtin import paper_landscape
from repro.core.federation import FederatedControlPlane
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.faults import FaultInjector
from repro.sim.results import ResultCollector
from repro.sim.scenarios import Scenario, scenario_landscape, user_distribution_for
from repro.sim.workload import WorkloadModel

USERS = 1.15


def run_day(with_faults: bool):
    landscape = scenario_landscape(
        paper_landscape(), Scenario.CONSTRAINED_MOBILITY, USERS
    )
    platform = Platform(
        landscape,
        user_distribution=user_distribution_for(Scenario.CONSTRAINED_MOBILITY),
    )
    # the run's history (actions, faults) is what the collector folds
    # from the bus: it subscribes before anything publishes
    collector = ResultCollector(
        platform, "cm-faults" if with_faults else "cm", USERS,
        collect_host_series=False, start_minute=12 * 60,
    )
    controller = FederatedControlPlane(platform)
    workload = WorkloadModel(platform, seed=7)
    workload.initialize()
    injector = None
    if with_faults:
        injector = FaultInjector(
            controller,
            crash_probability=1.0 / 360,
            hang_probability=1.0 / 360,
            seed=23,
        )
    start = 12 * 60
    for now in range(start, start + MINUTES_PER_DAY):
        workload.tick(now)
        controller.tick(now)
        if injector is not None:
            injector.tick(now)
        collector.observe(now)
    result = collector.finalize(start + MINUTES_PER_DAY - 1)
    return platform, workload, result


@pytest.mark.benchmark(group="ablation")
def test_self_healing_under_fault_storm(benchmark):
    def experiment():
        return run_day(with_faults=False), run_day(with_faults=True)

    (__, __, clean), (platform, workload, stormy) = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )

    restarts = [a for a in stormy.actions if "restart" in a.note]
    kinds = [fault.kind for fault in stormy.fault_records]
    print("\nRobustness — self-healing under a fault storm (CM @ 115%, one day)")
    print(f"  faults injected: {kinds.count('crash')} crashes, "
          f"{kinds.count('hang')} hangs; restarts executed: {len(restarts)}")
    print(f"  degraded min/day: clean {clean.overload_minutes_per_day:.0f} vs "
          f"stormy {stormy.overload_minutes_per_day:.0f}")

    assert stormy.fault_records, "the storm must inject faults"
    assert restarts, "the controller must restart failed instances"
    # the installation stays serviceable: every service alive with its
    # minimum instance count, and no user session permanently lost
    for definition in platform.services.values():
        assert len(definition.running_instances) >= max(
            definition.spec.constraints.min_instances, 1
        )
    expected_users = sum(
        spec.workload.users
        for spec in platform.landscape.services
        if spec.kind.value == "application-server"
    )
    assert workload.total_users() == expected_users
    # degraded service under the storm stays the same order of magnitude
    assert stormy.overload_minutes_per_day < max(
        4 * clean.overload_minutes_per_day, 300
    )
