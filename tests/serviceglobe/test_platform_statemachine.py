"""Property-based state-machine test of the Platform's action invariants.

Hypothesis drives random sequences of management actions against a small
landscape; after every step the platform must uphold its structural
invariants regardless of which actions succeeded or were rejected.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.config.model import (
    Action,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.serviceglobe.actions import ActionError
from repro.serviceglobe.platform import Platform

HOSTS = ("H1", "H2", "H3", "H4", "BIG")
ALL_ACTIONS = frozenset(Action)


def machine_landscape():
    return LandscapeSpec(
        name="statemachine",
        servers=[
            ServerSpec("H1", performance_index=1.0, memory_mb=2048),
            ServerSpec("H2", performance_index=1.0, memory_mb=2048),
            ServerSpec("H3", performance_index=2.0, memory_mb=4096),
            ServerSpec("H4", performance_index=2.0, memory_mb=4096),
            ServerSpec("BIG", performance_index=9.0, memory_mb=12288),
        ],
        services=[
            ServiceSpec(
                "A",
                constraints=ServiceConstraints(
                    min_instances=1, max_instances=4, allowed_actions=ALL_ACTIONS
                ),
                workload=WorkloadSpec(users=100, memory_per_instance_mb=512),
            ),
            ServiceSpec(
                "B",
                constraints=ServiceConstraints(
                    min_instances=1, max_instances=3, allowed_actions=ALL_ACTIONS
                ),
                workload=WorkloadSpec(users=50, memory_per_instance_mb=1024),
            ),
        ],
        initial_allocation=[("A", "H1"), ("B", "H3")],
    )


class PlatformMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.platform = Platform(machine_landscape())
        self.platform.service("A").running_instances[0].users = 100
        self.platform.service("B").running_instances[0].users = 50

    # -- random actions (failures are acceptable; corruption is not) --------

    def _attempt(self, action, service, instance_id=None, target=None):
        try:
            self.platform.execute(
                action, service, instance_id=instance_id, target_host=target
            )
        except ActionError:
            pass

    @rule(service=st.sampled_from(["A", "B"]), host=st.sampled_from(HOSTS))
    def scale_out(self, service, host):
        self._attempt(Action.SCALE_OUT, service, target=host)

    @rule(service=st.sampled_from(["A", "B"]))
    def scale_in(self, service):
        self._attempt(Action.SCALE_IN, service)

    @rule(service=st.sampled_from(["A", "B"]), host=st.sampled_from(HOSTS),
          pick=st.integers(min_value=0, max_value=5))
    def move(self, service, host, pick):
        instances = self.platform.service(service).running_instances
        if not instances:
            return
        instance = instances[pick % len(instances)]
        self._attempt(Action.MOVE, service, instance.instance_id, host)

    @rule(service=st.sampled_from(["A", "B"]), host=st.sampled_from(HOSTS),
          pick=st.integers(min_value=0, max_value=5))
    def scale_up(self, service, host, pick):
        instances = self.platform.service(service).running_instances
        if not instances:
            return
        instance = instances[pick % len(instances)]
        self._attempt(Action.SCALE_UP, service, instance.instance_id, host)

    @rule(service=st.sampled_from(["A", "B"]), host=st.sampled_from(HOSTS),
          pick=st.integers(min_value=0, max_value=5))
    def scale_down(self, service, host, pick):
        instances = self.platform.service(service).running_instances
        if not instances:
            return
        instance = instances[pick % len(instances)]
        self._attempt(Action.SCALE_DOWN, service, instance.instance_id, host)

    @rule(service=st.sampled_from(["A", "B"]))
    def change_priority(self, service):
        self._attempt(Action.INCREASE_PRIORITY, service)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def users_conserved(self):
        assert self.platform.service("A").total_users == 100
        assert self.platform.service("B").total_users == 50

    @invariant()
    def instance_bounds_respected(self):
        for name, definition in self.platform.services.items():
            count = len(definition.running_instances)
            constraints = definition.spec.constraints
            assert count >= constraints.min_instances
            assert count <= constraints.max_instances

    @invariant()
    def memory_within_limits(self):
        for host in self.platform.hosts.values():
            used = host.memory_used_mb(self.platform.memory_of)
            assert used <= host.spec.memory_mb

    @invariant()
    def only_running_instances_hold_a_host(self):
        running = self.platform.all_instances()
        attached = [i for host in self.platform.hosts.values() for i in host.instances]
        assert len(attached) == len(running)
        assert len({i.virtual_ip for i in running}) == len(running)

    @invariant()
    def attachment_consistent(self):
        for instance in self.platform.all_instances():
            host = self.platform.host(instance.host_name)
            assert instance in host.instances

    @invariant()
    def priorities_in_range(self):
        for definition in self.platform.services.values():
            assert 1 <= definition.priority <= 10


PlatformMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPlatformStateMachine = PlatformMachine.TestCase
