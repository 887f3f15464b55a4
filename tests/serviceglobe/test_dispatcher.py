"""Tests for user-session routing: placement, fluctuation, redistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.model import ServerSpec, ServiceSpec
from repro.serviceglobe.dispatcher import Dispatcher
from repro.serviceglobe.landscape_state import LandscapeState
from repro.serviceglobe.service import InstanceState, VirtualIP


def make_instances(capacities, loads=None):
    """Instances of service ``S``, one per synthetic host, with given
    capacities and loads."""
    state = LandscapeState(
        [ServerSpec(f"H{index}", performance_index=c) for index, c in enumerate(capacities)]
    )
    state.add_service(ServiceSpec("S"))
    instances = [
        state.add_instance("S", f"H{index}", VirtualIP(f"10.0.0.{index + 1}"), f"S#{index + 1}", 0)
        for index in range(len(capacities))
    ]
    load_map = {
        i.instance_id: load for i, load in zip(instances, loads or [0.0] * len(instances))
    }
    capacity_map = {
        i.instance_id: capacity for i, capacity in zip(instances, capacities)
    }
    dispatcher = Dispatcher(
        host_load=lambda i: load_map[i.instance_id],
        host_capacity=lambda i: capacity_map[i.instance_id],
    )
    return dispatcher, instances


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
        dispatcher, instances = make_instances([1.0, 1.0], loads=[0.8, 0.2])
        assert dispatcher.least_loaded(instances) is instances[1]

    def test_least_loaded_ignores_stopped(self):
        dispatcher, instances = make_instances([1.0, 1.0], loads=[0.8, 0.2])
        instances[1].state = InstanceState.STOPPED
        assert dispatcher.least_loaded(instances) is instances[0]

    def test_least_loaded_of_none(self):
        dispatcher, instances = make_instances([1.0])
        instances[0].state = InstanceState.STOPPED
        assert dispatcher.least_loaded(instances) is None

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
        dispatcher.fluctuate(instances, rate=0.05, rng=rng)
        assert instances[0].users + instances[1].users == 250

    def test_fluctuation_drifts_toward_least_loaded(self):
        """Users slowly migrate off the overloaded host (Section 5.1)."""
        dispatcher, instances = make_instances([1.0, 1.0], loads=[0.9, 0.1])
        instances[0].users = 300
        rng = np.random.default_rng(7)
        for __ in range(60):
            dispatcher.fluctuate(instances, rate=0.01, rng=rng)
        assert instances[1].users > 100
        assert instances[0].users + instances[1].users == 300

    def test_every_user_reconnects_to_the_one_least_loaded_instance(self):
        """Host load does not move with ``users`` inside a tick, so the
        least-loaded instance is chosen once, not once per moved user."""
        loads = {"H0": 0.2, "H1": 0.5, "H2": 0.9}
        probes = []

        def probe(instance):
            probes.append(instance.host_name)
            return loads[instance.host_name]

        __, instances = make_instances([1.0, 1.0, 1.0])
        for instance, users in zip(instances, (10, 20, 30)):
            instance.users = users
        dispatcher = Dispatcher(host_load=probe, host_capacity=lambda i: 1.0)
        moved = dispatcher.fluctuate(instances, 1.0, np.random.default_rng(1))
        assert moved == 60
        assert [i.users for i in instances] == [60, 0, 0]
        assert len(probes) <= len(instances)

    def test_zero_rate_moves_nobody(self):
        dispatcher, instances = make_instances([1.0, 1.0])
        instances[0].users = 100
        moved = dispatcher.fluctuate(instances, 0.0, np.random.default_rng(1))
        assert moved == 0
        assert instances[0].users == 100

    def test_single_instance_no_fluctuation(self):
        dispatcher, instances = make_instances([1.0])
        instances[0].users = 100
        moved = dispatcher.fluctuate(instances, 0.5, np.random.default_rng(1))
        assert moved == 0


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
