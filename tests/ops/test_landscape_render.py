"""``/state`` is captured as columns and rendered on request.

:class:`EagerLandscape` is the snapshot builder the bridge used to run
at every tick boundary — one scalar ``LandscapeState`` read per host and
service, one walk over every host's instance list — kept here as the
oracle.  What :meth:`OpsBridge.snapshot` renders from a capture must
equal it key for key and, as the HTTP body, byte for byte: on the
by-hand fixtures, across a host crash (``topology_version``) and a
service adoption (``registry_version``), and after every step of the
landscape-state mutation sequences.
"""

import json
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.model import Action
from repro.ops.api import OpsBridge
from repro.serviceglobe.platform import Platform
from tests.serviceglobe.test_landscape_state import (
    LATE,
    apply,
    build_landscape,
    operations,
    three_host_platform,
)


class EagerLandscape:
    """The eager ``_landscape_snapshot`` the bridge once ran, plus the
    console's keys (category, perf index; kind, priority, users,
    placement) read the same scalar way."""

    def __init__(self, platform):
        self.platform = platform

    def snapshot(self, now):
        platform = self.platform
        state = platform.landscape_state
        host_ids = state.host_index.ids
        hosts = []
        for name, host in platform.hosts.items():
            hid = host_ids[name]
            hosts.append(
                {
                    "name": name,
                    "category": host.spec.category,
                    "perf_index": host.performance_index,
                    "up": bool(host.up),
                    "cpu_load": round(state.host_cpu_load(hid), 6),
                    "mem_load": round(state.host_mem_load(hid), 6),
                    "instances": [
                        instance.instance_id
                        for instance in host.running_instances
                    ],
                }
            )
        services = []
        service_ids = state.service_index.ids
        for name in sorted(platform.services):
            sid = service_ids[name]
            definition = platform.services[name]
            services.append(
                {
                    "name": name,
                    "kind": definition.spec.kind.value,
                    "priority": definition.priority,
                    "running_instances": state.service_running_count(sid),
                    "users": definition.total_users,
                    "demand": round(state.service_demand(sid), 6),
                    "load": round(state.service_load(sid), 6),
                    "placement": [
                        f"{instance.instance_id}@{instance.host_name}"
                        for instance in definition.running_instances
                    ],
                }
            )
        return {"time": now, "hosts": hosts, "services": services}


class _NoController:
    """The eager snapshots' view of a plane that has nothing to say."""

    server_selector = None
    leaders = staticmethod(lambda: [])
    approvals = staticmethod(lambda status=None: [])


def bridge_for(platform):
    return OpsBridge(platform, _NoController())


def assert_rendered_equals_eager(bridge, now):
    bridge.refresh(now)
    expected = EagerLandscape(bridge.platform).snapshot(now)
    rendered = bridge.snapshot("landscape")
    assert rendered == expected
    assert json.dumps(rendered) == json.dumps(expected)  # the HTTP body
    for ours, theirs in zip(rendered["hosts"], expected["hosts"]):
        assert type(ours["up"]) is bool
        assert type(ours["cpu_load"]) is type(theirs["cpu_load"]) is float
    for ours in rendered["services"]:
        assert type(ours["running_instances"]) is int


def test_before_the_first_boundary_the_landscape_is_empty():
    bridge = bridge_for(three_host_platform())
    assert bridge.snapshot("landscape") == {"time": None, "hosts": [], "services": []}


def test_three_host_fixture_by_hand():
    """WEB 1/3 + 0.25 on A (index 2), DB 5 on B (index 4): literals a
    reviewer can check against ``three_host_platform``'s docstring."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    platform.service("DB").instances[0].demand = 5.0
    platform.service("WEB").instances[0].demand = 1.0 / 3.0
    assert_rendered_equals_eager(bridge, 1)
    web = [instance.instance_id for instance in platform.service("WEB").instances]
    db = [instance.instance_id for instance in platform.service("DB").instances]
    assert bridge.snapshot("landscape") == {
        "time": 1,
        "hosts": [
            # (1/3 + 0.25) / 2 and 2 x 512 MB of 4096, six places
            {"name": "A", "category": "server", "perf_index": 2.0, "up": True,
             "cpu_load": 0.291667, "mem_load": 0.25, "instances": web},
            # a saturated CPU reads 100%; 1024 MB of 8192
            {"name": "B", "category": "server", "perf_index": 4.0, "up": True,
             "cpu_load": 1.0, "mem_load": 0.125, "instances": db},
            {"name": "C", "category": "server", "perf_index": 4.0, "up": True,
             "cpu_load": 0.0, "mem_load": 0.0, "instances": []},
        ],
        "services": [  # by name, not by registration
            {"name": "DB", "kind": "application-server", "priority": 5,
             "running_instances": 1, "users": 0, "demand": 5.0, "load": 1.0,
             "placement": [f"{db[0]}@B"]},
            {"name": "WEB", "kind": "application-server", "priority": 5,
             "running_instances": 2, "users": 0, "demand": 0.583333,
             "load": 0.145833, "placement": [f"{web[0]}@A", f"{web[1]}@A"]},
        ],
    }


def test_host_crash_moves_the_instance_lists():
    """``topology_version`` is the cursor the per-host id lists hang on."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    assert_rendered_equals_eager(bridge, 1)
    before = bridge.snapshot("landscape")
    victim = next(host for host in before["hosts"] if host["instances"])
    platform.crash_host(victim["name"])
    assert_rendered_equals_eager(bridge, 2)
    after = {host["name"]: host for host in bridge.snapshot("landscape")["hosts"]}
    assert after[victim["name"]]["up"] is False
    assert after[victim["name"]]["instances"] == []
    # the capture a reader still holds is not rewritten under it
    assert victim["instances"] and before["time"] == 1
    platform.recover_host(victim["name"])
    assert_rendered_equals_eager(bridge, 3)


def test_service_adoption_moves_the_name_lists():
    """``registry_version`` is the cursor the name and id lists hang on."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    assert_rendered_equals_eager(bridge, 1)
    platform.adopt_service(LATE)
    assert_rendered_equals_eager(bridge, 2)
    names = [service["name"] for service in bridge.snapshot("landscape")["services"]]
    assert names == ["DB", "LATE", "WEB"]
    host = next(
        host.name for host in platform.hosts.values()
        if platform.can_host(LATE.name, host.name) is None
    )
    platform.execute(Action.START, LATE.name, target_host=host)
    assert_rendered_equals_eager(bridge, 3)
    late = bridge.snapshot("landscape")["services"][1]
    assert late["running_instances"] == 1


def test_demand_only_ticks_reuse_names_and_instance_lists():
    """The steady state: neither cursor moves, nothing but columns is copied."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    assert_rendered_equals_eager(bridge, 1)
    names, instances = bridge._names, bridge._instances
    platform.service("WEB").instances[0].demand = 0.75
    assert_rendered_equals_eager(bridge, 2)
    assert bridge._names is names and bridge._instances is instances


def test_rendering_happens_once_per_boundary_asked(monkeypatch):
    import repro.ops.api as api

    calls = []
    render = api._render_landscape
    monkeypatch.setattr(
        api, "_render_landscape", lambda capture: calls.append(1) or render(capture)
    )
    bridge = bridge_for(three_host_platform())
    for now in range(1, 6):
        bridge.refresh(now)  # five boundaries nobody asks about
    assert calls == []
    first = bridge.snapshot("landscape")
    assert bridge.snapshot("landscape") is first
    assert len(calls) == 1 and first["time"] == 5
    bridge.refresh(6)
    assert bridge.snapshot("landscape")["time"] == 6
    assert len(calls) == 2


def test_readers_on_other_threads_see_whole_boundaries_in_order():
    """Four readers render while the simulation thread captures: every
    answer is one boundary's (the demand written before ``refresh(t)``
    is the one shown under ``time == t``), and a reader never goes back
    in time."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    web = platform.service("WEB").instances[0]
    ticks, failures, done = 3000, [], threading.Event()

    def read():
        last = 0
        while not done.is_set():
            state = bridge.snapshot("landscape")
            now = state["time"]
            if now is None:
                continue
            demand = state["services"][1]["demand"]
            if now < last or demand != round(now / 1000 + 0.25, 6):
                failures.append((last, now, demand))
            last = now

    readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        for now in range(1, ticks + 1):
            web.demand = now / 1000
            bridge.refresh(now)
    finally:
        done.set()
        sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=10)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert bridge.snapshot("landscape")["time"] == ticks


@settings(max_examples=120, deadline=None)
@given(sequence=st.lists(operations, min_size=1, max_size=20))
def test_rendered_state_equals_eager_after_every_mutation(sequence):
    platform = Platform(build_landscape())
    bridge = bridge_for(platform)
    snapshots = []
    assert_rendered_equals_eager(bridge, 0)
    for step, operation in enumerate(sequence, 1):
        apply(platform, snapshots, operation)
        assert_rendered_equals_eager(bridge, step)


def test_users_and_priorities_are_read_at_every_boundary():
    """Neither is a cursor's concern: both are captured at every boundary."""
    platform = three_host_platform()
    bridge = bridge_for(platform)
    assert_rendered_equals_eager(bridge, 1)
    names, instances = bridge._names, bridge._instances
    platform.service("WEB").instances[1].users = 7
    platform.service("DB").adjust_priority(+2)
    assert_rendered_equals_eager(bridge, 2)
    services = bridge.snapshot("landscape")["services"]
    assert [(s["users"], s["priority"]) for s in services] == [(0, 7), (7, 5)]
    assert bridge._names is names and bridge._instances is instances
