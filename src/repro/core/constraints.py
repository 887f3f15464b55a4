"""Constraint verification for controller decisions.

"The fuzzy controller only considers actions that do not violate any
given constraint [...].  The first action of the list is selected and
verified once more.  This is necessary, because the fuzzy controller is
able to handle several exceptional situations concurrently."
(Section 4.1)

:func:`verify_action` answers *why* an action is currently infeasible
for a service (or ``None`` if it is feasible), combining the declarative
constraints with the platform's runtime state.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config.model import Action
from repro.serviceglobe.host import ServiceHost
from repro.serviceglobe.landscape_state import HostIds
from repro.serviceglobe.platform import Platform

__all__ = ["verify_action", "candidate_hosts"]


def verify_action(
    platform: Platform,
    action: Action,
    service_name: str,
    instance_id: Optional[str] = None,
) -> Optional[str]:
    """Reason the action is infeasible right now, or ``None`` if feasible."""
    service = platform.service(service_name)
    constraints = service.spec.constraints
    if not constraints.allows(action):
        return f"{service_name} does not support {action.value}"
    running = service.running_instances

    if action in (Action.START, Action.SCALE_OUT):
        if action is Action.START and running:
            return f"{service_name} is already running"
        if action is Action.SCALE_OUT and not running:
            return f"{service_name} is stopped"
        if (
            constraints.max_instances is not None
            and len(running) >= constraints.max_instances
        ):
            return (
                f"{service_name} is already at its maximum of "
                f"{constraints.max_instances} instances"
            )
        if not candidate_hosts(platform, action, service_name, instance_id):
            return f"no host can accept another {service_name} instance"
        return None

    if action in (Action.STOP, Action.SCALE_IN):
        if not running:
            return f"{service_name} is not running"
        minimum = constraints.min_instances
        remaining = 0 if action is Action.STOP else len(running) - 1
        if remaining < minimum:
            return (
                f"{service_name} must keep at least {minimum} instances running"
            )
        if action is Action.SCALE_IN and len(running) <= 1:
            return f"{service_name}: scale-in of the last instance is not allowed"
        return None

    if action in (Action.SCALE_UP, Action.SCALE_DOWN, Action.MOVE):
        if not running:
            return f"{service_name} is not running"
        if not candidate_hosts(platform, action, service_name, instance_id):
            return f"no suitable target host for {action.value} of {service_name}"
        return None

    # priority actions are always executable on a running service
    if not running:
        return f"{service_name} is not running"
    return None


def candidate_hosts(
    platform: Platform,
    action: Action,
    service_name: str,
    instance_id: Optional[str] = None,
) -> Sequence[ServiceHost]:
    """Hosts that could physically receive the action's new/moved instance.

    Applies the platform's feasibility checks plus the performance index
    relation of the relocation actions: scale-up targets a more powerful
    host, scale-down a less powerful one, move an equivalently powerful
    one (Table 2).  The result is a :class:`HostIds` carrying the
    filtered id array, which the server selector ranks without
    materializing host objects.
    """
    if not action.needs_target_host:
        return []
    if action in (Action.START, Action.SCALE_OUT):
        # a new instance may start anywhere feasible, including a host
        # that already runs one (memory permitting)
        return platform.eligible_hosts(service_name)
    instance = None
    if instance_id is not None:
        instance = platform.service(service_name).find_instance(instance_id)
    if instance is None:
        running = platform.service(service_name).running_instances
        if not running:
            return []
        # default to the instance on the most loaded host, as execution will
        instance = max(
            running, key=lambda i: (platform.host_cpu_load(i.host_name), i.instance_id)
        )
    # the perf-index relation over thousands of eligible hosts is one
    # column comparison, in substrate order
    eligible = platform.eligible_hosts(service_name)
    state, ids = eligible.state, eligible.ids
    source_id = platform.host(instance.host_name).state_id
    perf = state.host_perf_index
    source_index = perf[source_id]
    if action is Action.SCALE_UP:
        keep = perf[ids] > source_index
    elif action is Action.SCALE_DOWN:
        keep = perf[ids] < source_index
    else:
        keep = perf[ids] == source_index
    keep &= ids != source_id
    return HostIds(state, ids[keep])
