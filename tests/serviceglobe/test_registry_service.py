"""Tests for the service and instance runtime objects."""

from repro.config.model import ServerSpec, ServiceSpec, WorkloadSpec
from repro.serviceglobe.landscape_state import LandscapeState
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import InstanceState, VirtualIP
from tests.core.conftest import build_landscape


def make_definition(name="APP"):
    """A landscape state of hosts ``H1``, ``H2`` and ``Blade3`` and its
    one service's definition."""
    state = LandscapeState([ServerSpec(host, 1.0) for host in ("H1", "H2", "Blade3")])
    return state, state.add_service(ServiceSpec(name, workload=WorkloadSpec(users=10)))


def make_instance(state, service="APP", host="H1"):
    """A running instance row; its definition lists it at once."""
    sequence = len(state.instance_objs) + 1
    return state.add_instance(
        service, host, VirtualIP.nth(sequence), f"{service}#{sequence:03d}", 0
    )


class TestServiceDefinition:
    def test_running_instances_excludes_stopped(self):
        state, definition = make_definition()
        first, second = make_instance(state), make_instance(state)
        second.state = InstanceState.STOPPED
        assert definition.running_instances == [first]

    def test_total_users(self):
        state, definition = make_definition()
        first, second = make_instance(state), make_instance(state)
        first.users, second.users = 30, 12
        assert definition.total_users == 42

    def test_instances_on_host(self):
        state, definition = make_definition()
        here = make_instance(state, host="H1")
        make_instance(state, host="H2")
        assert definition.instances_on("H1") == [here]

    def test_find_instance(self):
        state, definition = make_definition()
        instance = make_instance(state)
        assert definition.find_instance(instance.instance_id) is instance
        assert definition.find_instance("nope") is None

    def test_priority_clamping(self):
        __, definition = make_definition()
        assert definition.adjust_priority(+100) == 10
        assert definition.adjust_priority(-100) == 1

    def test_platform_ids_are_sequenced(self):
        platform = Platform(build_landscape())
        ids = [i.instance_id for i in platform.landscape_state.instance_objs]
        assert ids == [
            f"{name}#{n:03d}"
            for n, (name, __) in enumerate(platform.landscape.initial_allocation, 1)
        ]

    def test_instance_str(self):
        state, __ = make_definition("FI")
        instance = make_instance(state, service="FI", host="Blade3")
        assert str(instance) == "FI#001@Blade3"
