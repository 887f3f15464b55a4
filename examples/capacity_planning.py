"""Capacity planning: the Table 7 sweep plus the landscape designer.

Part 1 reruns the paper's headline experiment at a reduced horizon: the
number of users grows in 5% steps per scenario until the installation
becomes overloaded (Table 7: static 100%, constrained mobility 115%,
full mobility 135% at the full 80-hour horizon).

Part 2 exercises the paper's future-work "landscape designer": it
computes a statically optimized initial allocation from the services'
predicted daily demand curves and compares its predicted worst per-host
peak against the naive Figure 11 allocation.

Run with:  python examples/capacity_planning.py [--hours 24]
"""

import argparse

import numpy as np

from repro.allocation.designer import LandscapeDesigner
from repro.config.builtin import paper_landscape
from repro.sim.capacity import capacity_search
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.scenarios import Scenario


def sweep(hours: float) -> None:
    print(f"capacity sweep ({hours:g} h horizon, 5% steps)")
    for scenario in Scenario:
        result = capacity_search(scenario, horizon=int(hours * 60))
        print(f"  {scenario.value}: handles {result.max_users_percent}% of the "
              f"reference users")


def designer_comparison() -> None:
    landscape = paper_landscape()
    designer = LandscapeDesigner(landscape)
    designed = designer.design()

    counts = {name: len(hosts) for name, hosts in landscape.instance_hosts().items()}
    naive_demand = {s.name: np.zeros(MINUTES_PER_DAY) for s in landscape.servers}
    for service_name, host_name in landscape.initial_allocation:
        naive_demand[host_name] = naive_demand[host_name] + designer.instance_curve(
            landscape.service(service_name), counts[service_name]
        )
    naive_peak = max(
        float(naive_demand[s.name].max()) / s.performance_index
        for s in landscape.servers
    )

    print("\nlandscape designer (statically optimized pre-assignment)")
    print(f"  Figure 11 allocation, predicted worst host peak: {naive_peak:.0%}")
    print(f"  designed allocation,  predicted worst host peak: "
          f"{designed.predicted_peak_load:.0%}")
    print("  designed placement:")
    by_host = {}
    for service_name, host_name in designed.assignment:
        by_host.setdefault(host_name, []).append(service_name)
    for host_name in sorted(by_host):
        print(f"    {host_name}: {', '.join(by_host[host_name])}")


def migration_demo() -> None:
    """Carry a *running* installation over to the designed allocation."""
    from repro.allocation.migration import Migrator
    from repro.serviceglobe.platform import Platform

    landscape = paper_landscape()
    platform = Platform(landscape)
    # users are logged in; the migration must not lose a single session
    for name in ("FI", "LES", "PP", "HR", "CRM"):
        platform.dispatcher.place_users(
            platform.service(name).running_instances,
            landscape.service(name).workload.users,
        )
    users_before = sum(
        platform.service(n).total_users for n in ("FI", "LES", "PP", "HR", "CRM")
    )
    designed = LandscapeDesigner(landscape).design()
    migrator = Migrator(platform)
    plan = migrator.plan(designed.assignment)
    print("\ntransactional migration to the designed allocation")
    print(f"  plan: {len(plan.moves)} moves, {len(plan.starts)} starts, "
          f"{len(plan.stops)} stops")
    executed = migrator.execute(plan)
    users_after = sum(
        platform.service(n).total_users for n in ("FI", "LES", "PP", "HR", "CRM")
    )
    print(f"  executed {len(executed)} steps; user sessions: "
          f"{users_before} before, {users_after} after")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=24.0)
    args = parser.parse_args()
    sweep(args.hours)
    designer_comparison()
    migration_demo()


if __name__ == "__main__":
    main()
