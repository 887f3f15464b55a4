"""Shared fixtures for controller tests."""

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
from repro.serviceglobe.platform import Platform

MOBILE_ACTIONS = frozenset(
    {
        Action.SCALE_IN,
        Action.SCALE_OUT,
        Action.SCALE_UP,
        Action.SCALE_DOWN,
        Action.MOVE,
        Action.INCREASE_PRIORITY,
        Action.REDUCE_PRIORITY,
    }
)


def build_landscape(app_actions=MOBILE_ACTIONS, min_instances=1, max_instances=None):
    """Two weak hosts, two strong hosts, one mobile app + one static DB."""
    return LandscapeSpec(
        name="core-test",
        servers=[
            ServerSpec("Weak1", performance_index=1.0, num_cpus=1, memory_mb=2048),
            ServerSpec("Weak2", performance_index=1.0, num_cpus=1, memory_mb=2048),
            ServerSpec("Strong1", performance_index=2.0, num_cpus=2, memory_mb=4096),
            ServerSpec("Strong2", performance_index=2.0, num_cpus=2, memory_mb=4096),
            ServerSpec("Big1", performance_index=9.0, num_cpus=4, memory_mb=12288),
        ],
        services=[
            ServiceSpec(
                "APP",
                constraints=ServiceConstraints(
                    min_instances=min_instances,
                    max_instances=max_instances,
                    allowed_actions=app_actions,
                ),
                workload=WorkloadSpec(users=300, memory_per_instance_mb=512),
            ),
            ServiceSpec(
                "DB",
                constraints=ServiceConstraints(
                    exclusive=False,
                    min_performance_index=5.0,
                    max_instances=1,
                    allowed_actions=frozenset(),
                ),
                workload=WorkloadSpec(memory_per_instance_mb=4096),
            ),
        ],
        initial_allocation=[("APP", "Weak1"), ("DB", "Big1")],
        controller=ControllerSettings(),
    )


@pytest.fixture
def platform():
    return Platform(build_landscape())


def set_demand(platform, host_name, demand):
    """Put the given total demand on a host by loading its instances.

    A host without instances simply has no load; the demand is dropped
    (the controller may legitimately have emptied the host).
    """
    host = platform.host(host_name)
    if not host.running_instances:
        return
    per_instance = demand / len(host.running_instances)
    for instance in host.running_instances:
        instance.demand = per_instance


class _OnePlane:
    """The plane surface the ops bridge reads, over one bare controller."""

    server_selector = None

    def __init__(self, controller):
        self.leaders = lambda: [controller]
        self.approvals = lambda status=None: [
            request for request in controller.alerts.approvals.requests
            if status in (None, request.status)
        ]


def console(controller):
    """An ops bridge over ``controller``, listening from now on: the
    console's message view is the alerts the bridge sees published."""
    from repro.ops.api import OpsBridge

    bridge = OpsBridge(controller.platform, _OnePlane(controller))
    bridge.attach(controller.platform.bus)
    return bridge


def console_frame(controller, now=0, bridge=None):
    """The controller console's frame, as ``autoglobe console`` prints it
    (its messages those ``bridge`` saw; none without one)."""
    from repro.ops.api import OpsBridge
    from repro.ops.console import render_snapshot

    if bridge is None:
        bridge = OpsBridge(controller.platform, _OnePlane(controller))
    bridge.refresh(now)
    return render_snapshot(
        *map(bridge.snapshot, ("landscape", "situations", "approvals"))
    )


def console_view(frame, title):
    """The lines of one ``== title ==`` section of a console frame."""
    lines = frame.splitlines()
    start = lines.index(f"== {title} ==") + 1
    end = next((i for i in range(start, len(lines)) if not lines[i]), len(lines))
    return lines[start:end]
