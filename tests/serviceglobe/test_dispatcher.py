"""Tests for user-session routing: placement, fluctuation, redistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.model import ServerSpec, ServiceSpec
from repro.serviceglobe.dispatcher import Dispatcher, Fluctuation
from repro.serviceglobe.landscape_state import LandscapeState, Segments
from repro.serviceglobe.service import InstanceState, VirtualIP
from tests.sim import workload_oracle


def make_instances(capacities, loads=None):
    """Instances of service ``S``, one per synthetic host, with given
    capacities and host CPU loads (each instance's demand is its load
    times its host's capacity)."""
    state = LandscapeState(
        [ServerSpec(f"H{index}", performance_index=c) for index, c in enumerate(capacities)]
    )
    state.add_service(ServiceSpec("S"))
    instances = [
        state.add_instance("S", f"H{index}", VirtualIP(f"10.0.0.{index + 1}"), f"S#{index + 1}", 0)
        for index in range(len(capacities))
    ]
    for index, instance in enumerate(instances):
        state.attach(index, instance)
    for instance, load, capacity in zip(instances, loads or [0.0] * len(instances), capacities):
        instance.demand = load * capacity
    capacity_map = {
        i.instance_id: capacity for i, capacity in zip(instances, capacities)
    }
    dispatcher = Dispatcher(host_capacity=lambda i: capacity_map[i.instance_id])
    return dispatcher, instances


def _fluctuation(running, rates_and_ends):
    """A :class:`~repro.serviceglobe.dispatcher.Fluctuation` over ``running``
    cut into services ``(rate, end)``, and every entry's host id."""
    state = running[0]._rows
    hosts = np.array([state.host_index.ids[i.host_name] for i in running], dtype=np.int64)
    first, services = 0, []
    for rate, end in rates_and_ends:
        services.append(
            (rate, range(first, end), [i.instance_id for i in running[first:end]])
        )
        first = end
    return state, hosts, Fluctuation(services)


def least_loaded(instances):
    """:meth:`~repro.serviceglobe.landscape_state.Segments.first_minimum`
    over the running ``instances`` in instance-id order, as a fluctuating
    service picks its target: the instance picked, or ``None``."""
    running = [i for i in instances if i.running]
    if not running:
        return None
    state = running[0]._rows
    hosts = np.array([state.host_index.ids[i.host_name] for i in running], dtype=np.int64)
    by_id = sorted(range(len(running)), key=lambda k: running[k].instance_id)
    picked = Segments([by_id]).first_minimum(state.host_cpu_values(hosts))
    return running[int(picked[0])]


def fluctuate(instances, rate, rng):
    """:meth:`~repro.serviceglobe.dispatcher.Fluctuation.move` over the
    running ``instances`` as one service, as the workload model calls it:
    host loads read as one column, the users written back.  Returns the
    users moved."""
    running = [i for i in instances if i.running]
    state, hosts, fluctuation = _fluctuation(running, [(rate, len(running))])
    entries = fluctuation.entries
    users = np.array([i.users for i in running], dtype=np.int64)
    after, moved = fluctuation.move(
        users[entries], state.host_cpu_values(hosts[entries]), rng
    )
    for position, value in zip(entries.tolist(), after.tolist()):
        running[position].users = value
    return int(moved.sum())


class TestPlacement:
    def test_capacity_proportional_placement(self):
        """The paper's FI dimensioning: 600 users on PI 1/1/2 -> 150/150/300."""
        dispatcher, instances = make_instances([1.0, 1.0, 2.0])
        dispatcher.place_users(instances, 600)
        assert [i.users for i in instances] == [150, 150, 300]

    def test_placement_conserves_users(self):
        dispatcher, instances = make_instances([1.0, 2.0, 9.0])
        dispatcher.place_users(instances, 1001)
        assert sum(i.users for i in instances) == 1001

    def test_placement_on_empty_raises(self):
        dispatcher, instances = make_instances([1.0])
        instances[0].state = InstanceState.STOPPED
        with pytest.raises(ValueError, match="no running instances"):
            dispatcher.place_users(instances, 10)

    def test_least_loaded(self):
        __, instances = make_instances([1.0, 1.0], loads=[0.8, 0.2])
        assert least_loaded(instances) is instances[1]

    def test_least_loaded_ignores_stopped(self):
        __, instances = make_instances([1.0, 1.0], loads=[0.8, 0.2])
        instances[1].state = InstanceState.STOPPED
        assert least_loaded(instances) is instances[0]

    def test_least_loaded_of_none(self):
        __, instances = make_instances([1.0])
        instances[0].state = InstanceState.STOPPED
        assert least_loaded(instances) is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_placement_conserves_any_count(self, users):
        dispatcher, instances = make_instances([1.0, 2.0, 2.0, 9.0])
        dispatcher.place_users(instances, users)
        assert sum(i.users for i in instances) == users


class TestDisplacement:
    def test_displaced_users_reconnect(self):
        dispatcher, instances = make_instances([1.0, 1.0, 2.0])
        instances[0].users = 100
        moved = dispatcher.displace_users(instances[0], instances)
        assert moved == 100
        assert instances[0].users == 0
        assert instances[1].users + instances[2].users == 100

    def test_displacement_with_no_survivors_drops_users(self):
        dispatcher, instances = make_instances([1.0])
        instances[0].users = 50
        moved = dispatcher.displace_users(instances[0], [instances[0]])
        assert moved == 50
        assert instances[0].users == 0


class TestFluctuation:
    def test_fluctuation_conserves_users(self):
        dispatcher, instances = make_instances([1.0, 1.0], loads=[0.9, 0.1])
        instances[0].users = 200
        instances[1].users = 50
        rng = np.random.default_rng(7)
        fluctuate(instances, rate=0.05, rng=rng)
        assert instances[0].users + instances[1].users == 250

    def test_fluctuation_drifts_toward_least_loaded(self):
        """Users slowly migrate off the overloaded host (Section 5.1)."""
        dispatcher, instances = make_instances([1.0, 1.0], loads=[0.9, 0.1])
        instances[0].users = 300
        rng = np.random.default_rng(7)
        for __ in range(60):
            fluctuate(instances, rate=0.01, rng=rng)
        assert instances[1].users > 100
        assert instances[0].users + instances[1].users == 300

    def test_every_user_reconnects_to_the_one_least_loaded_instance(self):
        """Host load does not move with ``users`` inside a tick, so the
        least-loaded instance is chosen once, not once per moved user."""
        __, instances = make_instances([1.0, 1.0, 1.0], loads=[0.2, 0.5, 0.9])
        for instance, users in zip(instances, (10, 20, 30)):
            instance.users = users
        moved = fluctuate(instances, 1.0, np.random.default_rng(1))
        assert moved == 60
        assert [i.users for i in instances] == [60, 0, 0]

    def test_zero_rate_moves_nobody(self):
        dispatcher, instances = make_instances([1.0, 1.0])
        instances[0].users = 100
        moved = fluctuate(instances, 0.0, np.random.default_rng(1))
        assert moved == 0
        assert instances[0].users == 100

    def test_single_instance_no_fluctuation(self):
        dispatcher, instances = make_instances([1.0])
        instances[0].users = 100
        moved = fluctuate(instances, 0.5, np.random.default_rng(1))
        assert moved == 0


    def test_ties_go_to_the_lowest_instance_id(self):
        """Equal host loads: the smallest id as a string, ``S#10`` before ``S#2``."""
        __, instances = make_instances([1.0] * 10, loads=[0.5] * 10)
        instances[0].state = InstanceState.STOPPED
        instances[1].users = 40
        fluctuate(instances, 1.0, np.random.default_rng(1))
        assert [i.instance_id for i in instances if i.users] == ["S#10"]

    def test_one_call_for_many_services_equals_the_per_service_loop(self):
        """Services side by side — one with a single instance, one with a
        zero rate, empty instances among the rest — draw and move exactly
        as the per-service loop with one scalar draw per connected
        instance, and leave the stream where it leaves it."""
        capacities = [1.0, 2.0, 1.0, 4.0, 1.0, 2.0, 9.0, 1.0, 1.0, 2.0]
        loads = [0.9, 0.3, 0.3, 0.8, 0.1, 0.6, 0.6, 0.2, 0.7, 0.4]
        users = [120, 0, 35, 300, 7, 0, 64, 250, 90, 18]
        segments = [(0, 3, 0.2), (3, 4, 0.5), (4, 7, 0.0), (7, 10, 0.05)]
        results = []
        for oracle in (False, True):
            __, instances = make_instances(capacities, loads=loads)
            for instance, count in zip(instances, users):
                instance.users = count
            rng = np.random.default_rng(3)
            if oracle:
                for first, end, rate in segments:
                    workload_oracle.fluctuate(
                        instances[first:end], rate, rng,
                        lambda i: i._rows.host_cpu_load(i._rows.host_index.ids[i.host_name]),
                    )
            else:
                state, hosts, fluctuation = _fluctuation(
                    instances, [(rate, end) for __, end, rate in segments]
                )
                entries = fluctuation.entries
                after, __ = fluctuation.move(
                    np.array(users, dtype=np.int64)[entries],
                    state.host_cpu_values(hosts[entries]), rng,
                )
                for position, value in zip(entries.tolist(), after.tolist()):
                    instances[position].users = value
            results.append(([i.users for i in instances], rng.bit_generator.state))
        assert results[0] == results[1]
        assert results[0][0] != users


class TestRedistribution:
    def test_equal_load_redistribution(self):
        """Full-mobility redistribution equalizes *load*: shares follow
        host capacity, so a PI=2 host takes twice a PI=1 host's users."""
        dispatcher, instances = make_instances([1.0, 1.0, 2.0])
        instances[0].users = 300
        dispatcher.redistribute_equally(instances)
        assert [i.users for i in instances] == [75, 75, 150]

    def test_redistribution_conserves_remainder(self):
        dispatcher, instances = make_instances([1.0, 1.0, 1.0])
        instances[0].users = 100
        dispatcher.redistribute_equally(instances)
        assert sum(i.users for i in instances) == 100
        assert max(i.users for i in instances) - min(i.users for i in instances) <= 1

    def test_redistribution_skips_stopped_instances(self):
        dispatcher, instances = make_instances([1.0, 1.0])
        instances[0].users = 100
        instances[1].state = InstanceState.STOPPED
        dispatcher.redistribute_equally(instances)
        assert instances[0].users == 100
        assert instances[1].users == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_redistribution_conserves_any_population(self, populations):
        dispatcher, instances = make_instances([1.0] * len(populations))
        for instance, users in zip(instances, populations):
            instance.users = users
        dispatcher.redistribute_equally(instances)
        assert sum(i.users for i in instances) == sum(populations)
