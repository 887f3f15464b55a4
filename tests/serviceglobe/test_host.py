"""Unit tests for the ServiceHost capacity bookkeeping."""

import pytest

from repro.config.model import ServerSpec, ServiceSpec
from repro.serviceglobe.landscape_state import LandscapeState
from repro.serviceglobe.service import InstanceState, VirtualIP


def make_host(index=2.0, memory_mb=4096):
    """A one-host landscape state that knows services ``APP``, ``A`` and
    ``B``, and its host ``H``."""
    state = LandscapeState([ServerSpec("H", performance_index=index, memory_mb=memory_mb)])
    for name in ("APP", "A", "B"):
        state.add_service(ServiceSpec(name))
    return state, state.host_objs[0]


def make_instance(state, service="APP", ip="10.0.0.1"):
    """A running instance row on ``H``, not yet attached."""
    row = len(state.instance_objs) + 1
    return state.add_instance(service, "H", VirtualIP(ip), f"{service}#{row}", 0)


class TestAttachment:
    def test_attach_detach(self):
        state, host = make_host()
        instance = make_instance(state)
        host.attach(instance)
        assert host.running_instances == [instance]
        host.detach(instance)
        assert host.running_instances == []

    def test_double_attach_rejected(self):
        state, host = make_host()
        instance = make_instance(state)
        host.attach(instance)
        with pytest.raises(ValueError, match="already attached"):
            host.attach(instance)

    def test_detach_unknown_rejected(self):
        state, host = make_host()
        with pytest.raises(ValueError, match="not attached"):
            host.detach(make_instance(state))

    def test_stopped_instances_not_running(self):
        state, host = make_host()
        instance = make_instance(state)
        host.attach(instance)
        instance.state = InstanceState.STOPPED
        assert host.running_instances == []

    def test_instances_of_and_service_names(self):
        state, host = make_host()
        a1 = make_instance(state, "A", "10.0.0.1")
        a2 = make_instance(state, "A", "10.0.0.2")
        b = make_instance(state, "B", "10.0.0.3")
        for instance in (a1, a2, b):
            host.attach(instance)
        assert host.instances_of("A") == [a1, a2]
        assert host.service_names == ["A", "B"]


class TestLoadAccounting:
    def test_load_is_demand_over_capacity(self):
        state, host = make_host(index=2.0)
        instance = make_instance(state)
        instance.demand = 1.0
        host.attach(instance)
        assert host.cpu_load == pytest.approx(0.5)

    def test_load_saturates_but_overload_factor_does_not(self):
        state, host = make_host(index=1.0)
        instance = make_instance(state)
        instance.demand = 2.5
        host.attach(instance)
        assert host.cpu_load == 1.0
        assert host.overload_factor == pytest.approx(2.5)

    def test_total_demand_sums_instances(self):
        state, host = make_host()
        for index, demand in enumerate((0.3, 0.7)):
            instance = make_instance(state, ip=f"10.0.0.{index + 1}")
            instance.demand = demand
            host.attach(instance)
        assert host.total_demand == pytest.approx(1.0)


class TestMemoryAccounting:
    def test_memory_accounting(self):
        state, host = make_host(memory_mb=4096)
        host.attach(make_instance(state, "A"))
        host.attach(make_instance(state, "B", ip="10.0.0.2"))
        memory_of = {"A": 1024, "B": 512}.get
        assert host.memory_used_mb(memory_of) == 1536
        assert host.memory_free_mb(memory_of) == 4096 - 1536
        assert host.mem_load(memory_of) == pytest.approx(1536 / 4096)
