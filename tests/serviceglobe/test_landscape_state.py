"""The columnar landscape state against a deliberately naive evaluator.

Every measurement the controller, the platform and the ops API read
comes from :class:`~repro.serviceglobe.landscape_state.LandscapeState`.
Two layers of evidence that its columns say what the objects say:

* two tiny landscapes whose expected values are written out as literals
  a reviewer can check by hand;
* a hypothesis mutation sequence — demand writes one by one and as the
  workload's column write, every placement action, host crashes and recoveries, ``restore_state``, a service
  registered mid-run — after every step of which each scalar read, each
  column read, the down-host scans and the eligibility mask must equal
  :class:`Naive` bit for bit, and the version counters must have moved
  whenever the facts they stand for did.  A missed bump is the one
  failure the value comparison cannot see: the controller skips its
  monitor re-sync on an unmoved cursor.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.model import (
    Action,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.serviceglobe.actions import ActionError
from repro.serviceglobe.landscape_state import Segments
from repro.serviceglobe.platform import DomainView, Platform

ALL_ACTIONS = frozenset(Action)


class Naive:
    """Every read, re-derived by plain loops over the object lists."""

    def __init__(self, platform):
        self.platform = platform

    def running(self, owner):
        """Running instances of a host or of a service definition."""
        return [i for i in owner.instances if i.running]

    def demand(self, owner):
        total = 0.0
        for instance in self.running(owner):
            total += instance.demand
        return total

    def capacity_of(self, instance):
        return self.platform.hosts[instance.host_name].spec.performance_index

    def cpu_load(self, host):
        return min(self.demand(host) / host.spec.performance_index, 1.0)

    def memory_used(self, host):
        used = 0
        for instance in self.running(host):
            spec = self.platform.services[instance.service_name].spec
            used += spec.workload.memory_per_instance_mb
        return used

    def mem_load(self, host):
        return min(self.memory_used(host) / host.spec.memory_mb, 1.0)

    def service_load(self, definition):
        running = self.running(definition)
        total = 0.0
        for instance in running:
            total += min(instance.demand / self.capacity_of(instance), 1.0)
        return total / len(running) if running else 0.0

    def service_capacity(self, definition):
        total = 0.0
        for instance in self.running(definition):
            total += self.capacity_of(instance)
        return total

    def down(self, hosts):
        return [host.name for host in hosts if not host.up]

    def facts(self):
        """What the version counters stand for: the service set, the
        running placement and the up-set, and every demand."""
        services = self.platform.services
        placement = {
            (i.instance_id, i.host_name)
            for d in services.values() for i in self.running(d)
        }
        up = {h.name for h in self.platform.hosts.values() if h.up}
        demands = {i.instance_id: i.demand for d in services.values() for i in d.instances}
        return set(services), (placement, up), demands


def assert_state_equals_naive(platform, views=(), scalar_first=0):
    """Compare every read of the state with the naive evaluator.

    Hosts and services at ``scalar_first::2`` are read one by one before
    the first column read, so both the per-id refresh and ``flush()``
    get stale ids to recompute.
    """
    state = platform.landscape_state
    naive = Naive(platform)
    hosts = list(platform.hosts.values())
    services = list(platform.services.values())
    host_ids = state.host_index.ids
    service_ids = state.service_index.ids

    def check_host(host):
        hid = host_ids[host.name]
        used = naive.memory_used(host)
        assert state.host_total_demand(hid) == naive.demand(host) == host.total_demand
        assert state.host_cpu_load(hid) == naive.cpu_load(host) == host.cpu_load
        assert state.host_memory_used(hid) == used
        assert state.host_memory_free(hid) == host.spec.memory_mb - used
        assert state.host_mem_load(hid) == naive.mem_load(host)
        assert platform.host_mem_load(host.name) == naive.mem_load(host)

    def check_service(definition):
        sid = service_ids[definition.name]
        name = definition.name
        assert state.service_running_count(sid) == len(naive.running(definition))
        assert state.service_demand(sid) == naive.demand(definition)
        assert state.service_load(sid) == naive.service_load(definition)
        assert state.service_capacity(sid) == naive.service_capacity(definition)
        assert platform.service_demand(name) == naive.demand(definition)
        assert platform.service_load(name) == naive.service_load(definition)
        assert platform.service_capacity(name) == naive.service_capacity(definition)

    for host in hosts[scalar_first::2]:
        check_host(host)
    for definition in services[scalar_first::2]:
        check_service(definition)

    ids = np.array([host_ids[h.name] for h in hosts], dtype=np.int64)
    sids = np.array([service_ids[d.name] for d in services], dtype=np.int64)
    cpu = [naive.cpu_load(h) for h in hosts]
    mem = [naive.mem_load(h) for h in hosts]
    assert state.host_cpu_values(ids).tolist() == cpu
    assert state.host_mem_values(ids).tolist() == mem
    assert state.service_demand_values(sids).tolist() == [naive.demand(d) for d in services]
    got_cpu, got_mem, got_running, got_free = state.host_server_inputs(ids)
    assert got_cpu.tolist() == cpu
    assert got_mem.tolist() == mem
    assert got_running.tolist() == [float(len(naive.running(h))) for h in hosts]
    assert got_free.tolist() == [
        float(h.spec.memory_mb - naive.memory_used(h)) for h in hosts
    ]

    for host in hosts:
        check_host(host)
    for definition in services:
        check_service(definition)

    names = state.host_index.names
    assert [names[i] for i in state.down_host_ids()] == naive.down(hosts)
    assert platform.hosts_down() == sorted(naive.down(hosts))
    for view in views:
        assert view.hosts_down() == sorted(naive.down(view.hosts.values()))

    for definition in services:
        can = [platform.can_host(definition.name, h.name) is None for h in hosts]
        assert state.eligible_mask(definition).tolist() == can
        eligible = [h.name for h, ok in zip(hosts, can) if ok]
        assert [names[i] for i in platform.eligible_ids(definition.name)] == eligible
        assert [h.name for h in platform.eligible_hosts(definition.name)] == eligible
        for view in views:
            inside = [name for name in eligible if name in view.hosts]
            assert [names[i] for i in view.eligible_ids(definition.name)] == inside
            assert [h.name for h in view.eligible_hosts(definition.name)] == inside


def versions(state):
    return state.registry_version, state.topology_version, state.mutation_version


def assert_versions_followed(before, after, facts_before, facts_after):
    """A changed fact must have moved the counter that stands for it."""
    registry, topology, mutation = (a != b for a, b in zip(before, after))
    services, placement, demands = (a != b for a, b in zip(facts_before, facts_after))
    assert registry or not services, "service set changed, registry_version did not"
    assert topology or not (services or placement), (
        "placement or host health changed, topology_version did not"
    )
    assert mutation or not (services or placement or demands), (
        "the landscape changed, mutation_version did not"
    )


# -- hand-checkable fixtures -----------------------------------------------------------


def three_host_platform() -> Platform:
    """Hosts A (index 2, 4096 MB), B (index 4, 8192 MB), C (index 4, 2048 MB).

    WEB (512 MB per instance) runs twice on A with demands 0.5 and 0.25;
    DB (1024 MB, exclusive, needs index >= 4) runs once on B with demand 3.
    """
    platform = Platform(
        LandscapeSpec(
            name="three-hosts",
            servers=[
                ServerSpec("A", performance_index=2.0, memory_mb=4096),
                ServerSpec("B", performance_index=4.0, memory_mb=8192),
                ServerSpec("C", performance_index=4.0, memory_mb=2048),
            ],
            services=[
                ServiceSpec(
                    "WEB",
                    constraints=ServiceConstraints(
                        min_instances=0, allowed_actions=ALL_ACTIONS
                    ),
                    workload=WorkloadSpec(users=10, memory_per_instance_mb=512),
                ),
                ServiceSpec(
                    "DB",
                    constraints=ServiceConstraints(
                        exclusive=True,
                        min_performance_index=4.0,
                        min_instances=0,
                        allowed_actions=ALL_ACTIONS,
                    ),
                    workload=WorkloadSpec(users=10, memory_per_instance_mb=1024),
                ),
            ],
            initial_allocation=[("WEB", "A"), ("WEB", "A"), ("DB", "B")],
            controller=ControllerSettings(),
        )
    )
    first, second = platform.service("WEB").instances
    first.demand = 0.5
    second.demand = 0.25
    platform.service("DB").instances[0].demand = 3.0
    return platform


def test_three_hosts_by_hand():
    platform = three_host_platform()
    state = platform.landscape_state
    a, b, c = 0, 1, 2
    web, db = 0, 1
    assert state.host_index.names == ["A", "B", "C"]
    assert state.service_index.names == ["WEB", "DB"]

    assert state.host_total_demand(a) == 0.75
    assert state.host_cpu_load(a) == 0.375  # 0.75 / 2
    assert state.host_memory_used(a) == 1024  # 2 x 512
    assert state.host_memory_free(a) == 3072
    assert state.host_mem_load(a) == 0.25  # 1024 / 4096
    assert state.host_cpu_load(b) == 0.75  # 3 / 4
    assert state.host_mem_load(b) == 0.125  # 1024 / 8192
    assert state.host_total_demand(c) == 0.0
    assert state.host_memory_free(c) == 2048

    assert state.service_running_count(web) == 2
    assert state.service_demand(web) == 0.75
    assert state.service_load(web) == 0.1875  # (0.5/2 + 0.25/2) / 2
    assert state.service_capacity(web) == 4.0  # A counted once per instance
    assert state.service_running_count(db) == 1
    assert state.service_load(db) == 0.75
    assert state.service_capacity(db) == 4.0

    ids = np.array([a, b, c])
    assert state.host_cpu_values(ids).tolist() == [0.375, 0.75, 0.0]
    assert state.host_mem_values(ids).tolist() == [0.25, 0.125, 0.0]
    assert state.service_demand_values(np.array([web, db])).tolist() == [0.75, 3.0]
    cpu, mem, running, free = state.host_server_inputs(ids)
    assert running.tolist() == [2.0, 1.0, 0.0]
    assert free.tolist() == [3072.0, 7168.0, 2048.0]

    # WEB: B is reserved by the exclusive DB
    assert state.eligible_mask(platform.service("WEB")).tolist() == [True, False, True]
    # DB: A is too weak (and runs WEB); B runs only DB itself; C is empty
    assert state.eligible_mask(platform.service("DB")).tolist() == [False, True, True]
    assert platform.eligible_ids("DB").tolist() == [b, c]

    east = DomainView(platform, "east", host_names=["B", "C"], service_names=["DB"])
    west = DomainView(platform, "west", host_names=["A"], service_names=["WEB"])
    assert east.eligible_ids("WEB").tolist() == [c]
    assert west.eligible_ids("DB").tolist() == []
    assert_state_equals_naive(platform, views=(east, west))

    # a second DB fills C to the megabyte; a third no longer fits
    platform.execute(Action.SCALE_OUT, "DB", target_host="C")
    assert state.host_memory_free(c) == 1024
    assert state.eligible_mask(platform.service("DB")).tolist() == [False, True, True]
    platform.execute(Action.SCALE_OUT, "DB", target_host="C")
    assert state.host_memory_free(c) == 0
    assert state.eligible_mask(platform.service("DB")).tolist() == [False, True, False]
    assert state.service_capacity(db) == 12.0
    assert_state_equals_naive(platform, views=(east, west), scalar_first=1)


def test_saturation_and_host_loss_by_hand():
    platform = three_host_platform()
    state = platform.landscape_state
    platform.service("DB").instances[0].demand = 5.0
    assert state.host_total_demand(1) == 5.0
    assert state.host_cpu_load(1) == 1.0  # a saturated CPU reads 100%
    assert state.service_load(1) == 1.0
    assert state.down_host_ids() == ()

    east = DomainView(platform, "east", host_names=["B", "C"], service_names=["DB"])
    west = DomainView(platform, "west", host_names=["A"], service_names=["WEB"])
    platform.crash_host("A")
    assert state.down_host_ids() == (0,)
    assert platform.hosts_down() == ["A"]
    assert west.hosts_down() == ["A"]
    assert east.hosts_down() == []
    assert state.host_total_demand(0) == 0.0
    assert state.host_memory_used(0) == 0
    assert state.service_running_count(0) == 0
    assert state.service_load(0) == 0.0  # no running instance: zero, not 0/0
    assert state.eligible_mask(platform.service("WEB")).tolist() == [False, False, True]
    assert_state_equals_naive(platform, views=(east, west))

    platform.recover_host("A")
    assert state.down_host_ids() == ()
    assert state.eligible_mask(platform.service("WEB")).tolist() == [True, False, True]


def test_versions_name_what_changed():
    platform = three_host_platform()
    state = platform.landscape_state
    start = versions(state)
    platform.service("WEB").instances[0].demand = 1.5
    assert versions(state) == (start[0], start[1], start[2] + 1)

    before = versions(state)
    platform.execute(Action.SCALE_OUT, "WEB", target_host="C")
    registry, topology, mutation = versions(state)
    assert registry == before[0] and topology > before[1] and mutation > before[2]

    before = versions(state)
    platform.crash_host("C")
    assert state.topology_version > before[1]

    before = versions(state)
    platform.adopt_service(LATE)
    assert all(after > b for after, b in zip(versions(state), before))
    assert state.service_index.names == ["WEB", "DB", "LATE"]
    assert state.service_running_count(2) == 0


# -- mutation sequences ------------------------------------------------------------------

HOSTS = 7
#: a service no landscape declares; registered mid-run by the "adopt" step
LATE = ServiceSpec(
    "LATE",
    constraints=ServiceConstraints(min_instances=0, allowed_actions=ALL_ACTIONS),
    workload=WorkloadSpec(users=10, memory_per_instance_mb=768),
)


def build_landscape() -> LandscapeSpec:
    """Seven hosts of four sizes; two ordinary services and two exclusive
    ones, so exclusivity is exercised in both directions."""
    servers = [
        ServerSpec(
            f"H{i + 1}",
            performance_index=(1.0, 2.0, 4.0, 9.0)[i % 4],
            memory_mb=(2048, 4096, 12288)[i % 3],
        )
        for i in range(HOSTS)
    ]

    def service(name, memory, exclusive=False, min_index=0.0):
        return ServiceSpec(
            name,
            constraints=ServiceConstraints(
                exclusive=exclusive,
                min_performance_index=min_index,
                min_instances=0,
                allowed_actions=ALL_ACTIONS,
            ),
            workload=WorkloadSpec(users=100, memory_per_instance_mb=memory),
        )

    return LandscapeSpec(
        name="state-vs-naive",
        servers=servers,
        services=[
            service("S1", 256),
            service("S2", 1024, min_index=2.0),
            service("X1", 512, exclusive=True),
            service("X2", 256, exclusive=True),
        ],
        initial_allocation=[("S1", "H1"), ("S1", "H2"), ("S2", "H2"), ("X1", "H3"), ("X2", "H4")],
        controller=ControllerSettings(),
    )


_index = st.integers(0, 10_000)
operations = st.one_of(
    st.tuples(st.just("demand"), _index, st.floats(0.0, 12.0)),
    st.tuples(
        st.sampled_from(["scale-out", "start", "move", "scale-up", "scale-down"]),
        _index,
        _index,
    ),
    st.tuples(st.sampled_from(["scale-in", "stop"]), _index, _index),
    st.tuples(st.sampled_from(["crash", "recover", "read"]), _index, _index),
    st.tuples(st.sampled_from(["snapshot", "restore", "adopt"]), _index, _index),
    st.tuples(st.just("write-demands"), _index, st.lists(st.floats(0.0, 12.0), max_size=8)),
)

RELOCATIONS = {
    "move": Action.MOVE,
    "scale-up": Action.SCALE_UP,
    "scale-down": Action.SCALE_DOWN,
    "scale-in": Action.SCALE_IN,
}


def apply(platform, snapshots, operation):
    kind, a, b = operation
    instances = sorted(platform.all_instances(), key=lambda i: i.instance_id)
    instance = instances[a % len(instances)] if instances else None
    service_names = list(platform.services)
    service_name = service_names[a % len(service_names)]
    host_name = f"H{b % HOSTS + 1}" if isinstance(b, int) else ""
    state = platform.landscape_state
    try:
        if kind == "demand":
            if instance is not None:
                instance.demand = b
        elif kind == "write-demands":
            # the workload's per-minute write: distinct rows, running or
            # not, through the cached running layout
            count = len(state.instance_objs)
            rows = random.Random(a).sample(range(count), min(len(b), count))
            seq, hosts = state.refresh_seq, len(state.host_objs)
            state.write_demands(
                np.array(rows, dtype=np.int64), np.array(b[: len(rows)], dtype=np.float64)
            )
            # every host stamped as a re-sum of each host in id order stamps it
            assert state.refresh_seq == seq + hosts
            assert state.host_stamp.tolist() == list(range(seq + 1, seq + hosts + 1))
        elif kind in ("scale-out", "start"):
            action = Action.SCALE_OUT if kind == "scale-out" else Action.START
            platform.execute(action, service_name, target_host=host_name)
        elif kind in RELOCATIONS and instance is not None:
            platform.execute(
                RELOCATIONS[kind],
                instance.service_name,
                instance_id=instance.instance_id,
                target_host=None if kind == "scale-in" else host_name,
            )
        elif kind == "stop":
            platform.execute(Action.STOP, service_name)
        elif kind == "crash":
            platform.crash_host(host_name)
        elif kind == "recover":
            platform.recover_host(host_name)
        elif kind == "read":
            # scalar reads refresh one stale host / service outside flush()
            naive = Naive(platform)
            host = platform.host(host_name)
            definition = platform.service(service_name)
            assert platform.host_cpu_load(host_name) == naive.cpu_load(host)
            assert platform.service_demand(service_name) == naive.demand(definition)
        elif kind == "snapshot":
            snapshots.append(platform.snapshot_state())
        elif kind == "restore" and snapshots:
            platform.restore_state(snapshots[a % len(snapshots)])
        elif kind == "adopt" and LATE.name not in platform.services:
            platform.adopt_service(LATE)
            # a platform is only ever restored from its own or a later
            # service set (resume replays adoptions first)
            snapshots.clear()
            assert state.service_index.names[-1] == LATE.name
    except ActionError:
        pass  # infeasible draws are part of the sequence


@settings(max_examples=120, deadline=None)
@given(sequence=st.lists(operations, min_size=1, max_size=20))
def test_state_equals_naive_after_every_mutation(sequence):
    platform = Platform(build_landscape())
    state = platform.landscape_state
    naive = Naive(platform)
    views = (
        DomainView(platform, "odd", ["H1", "H3", "H5", "H7"], ["S1", "X1"]),
        DomainView(platform, "even", ["H2", "H4", "H6"], ["S2", "X2"]),
    )
    snapshots = []
    assert_state_equals_naive(platform, views)
    for step, operation in enumerate(sequence):
        before, facts_before = versions(state), naive.facts()
        apply(platform, snapshots, operation)
        assert_versions_followed(before, versions(state), facts_before, naive.facts())
        assert_state_equals_naive(platform, views, scalar_first=step % 2)


@given(
    st.lists(st.lists(st.integers(0, 39), max_size=60), max_size=12),
    st.lists(st.floats(0.0, 12.0), min_size=40, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_segments_add_and_choose_like_the_scalar_loop(members, values):
    """Owners of any width, one far wider than the rest among them: each
    sum equals the left-to-right loop bit for bit, and each pick is the
    first member holding the owner's smallest value."""
    column = np.array(values, dtype=np.float64)
    segments = Segments(members)
    expected = []
    for owned in members:
        total = 0.0
        for position in owned:
            total += values[position]
        expected.append(total)
    assert segments.sums(column).tobytes() == np.array(expected, dtype=np.float64).tobytes()
    if members and all(members):
        # ``min`` returns the first of equal keys
        firsts = [min(owned, key=values.__getitem__) for owned in members]
        assert segments.first_minimum(column).tolist() == firsts
