"""The two-step intake, kept as the oracle of
:func:`repro.sim.scenarios.scenario_landscape`.

A run's landscape used to be built in two copies of every service:
``apply_scenario`` set the scenario's allowed actions, then
``LandscapeSpec.scaled_users`` scaled the users.  Both are here
verbatim, as functions over a landscape.
"""

import dataclasses
from dataclasses import replace

from repro.config.model import LandscapeSpec, ServiceKind
from repro.sim.scenarios import (
    _CM_ACTIONS,
    _FM_ACTIONS,
    _FM_BW_DATABASE_ACTIONS,
    _FM_BW_DATABASE_MAX_INSTANCES,
    Scenario,
)


def apply_scenario(landscape: LandscapeSpec, scenario: Scenario) -> LandscapeSpec:
    """A copy of the landscape with the scenario's allowed actions."""
    services = []
    for service in landscape.services:
        if scenario is Scenario.STATIC:
            allowed = frozenset()
            max_instances = service.constraints.max_instances
        elif scenario is Scenario.CONSTRAINED_MOBILITY:
            allowed = _CM_ACTIONS[service.kind]
            max_instances = service.constraints.max_instances
        else:
            allowed = _FM_ACTIONS[service.kind]
            max_instances = service.constraints.max_instances
            if service.kind is ServiceKind.DATABASE and service.subsystem == "BW":
                allowed = _FM_BW_DATABASE_ACTIONS
                max_instances = _FM_BW_DATABASE_MAX_INSTANCES
        services.append(
            dataclasses.replace(
                service,
                constraints=dataclasses.replace(
                    service.constraints,
                    allowed_actions=allowed,
                    max_instances=max_instances,
                ),
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


def scaled_users(landscape: LandscapeSpec, factor: float) -> LandscapeSpec:
    """A copy with every interactive service's users scaled by ``factor``.

    Batch services keep their job count; their per-job load is scaled
    instead, matching Section 5.1 ("we increase the load per batch job
    by 5% and leave the number of jobs constant").
    """
    scaled_services = []
    for service in landscape.services:
        workload = service.workload
        if workload.batch:
            scaled = replace(
                service,
                workload=replace(
                    workload, load_per_user=workload.load_per_user * factor
                ),
            )
        else:
            scaled = replace(
                service,
                workload=replace(workload, users=round(workload.users * factor)),
            )
        scaled_services.append(scaled)
    return LandscapeSpec(
        name=landscape.name,
        servers=list(landscape.servers),
        services=scaled_services,
        initial_allocation=list(landscape.initial_allocation),
        controller=landscape.controller,
        domains=list(landscape.domains),
    )
