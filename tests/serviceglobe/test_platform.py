"""Tests for the Platform: instantiation, constraints and action execution."""

import pytest

from repro.config.builtin import paper_landscape
from repro.config.model import (
    Action,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.serviceglobe.actions import (
    ActionNotAllowed,
    ConstraintViolation,
    NoSuchTarget,
)
from repro.serviceglobe.dispatcher import UserDistribution
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import VirtualIP
from tests.conftest import executed

ALL_ACTIONS = frozenset(Action)


def small_landscape():
    """Two app hosts + one big DB host; the app service allows everything."""
    return LandscapeSpec(
        name="small",
        servers=[
            ServerSpec("H1", performance_index=1.0, memory_mb=2048),
            ServerSpec("H2", performance_index=1.0, memory_mb=2048),
            ServerSpec("H3", performance_index=2.0, memory_mb=4096),
            ServerSpec("DB1", performance_index=9.0, memory_mb=12288),
        ],
        services=[
            ServiceSpec(
                "APP",
                constraints=ServiceConstraints(
                    min_instances=1, max_instances=3, allowed_actions=ALL_ACTIONS
                ),
                workload=WorkloadSpec(users=300, memory_per_instance_mb=1024),
            ),
            ServiceSpec(
                "DB",
                constraints=ServiceConstraints(
                    exclusive=True,
                    min_performance_index=5.0,
                    max_instances=1,
                    allowed_actions=frozenset(),
                ),
                workload=WorkloadSpec(memory_per_instance_mb=6144),
            ),
        ],
        initial_allocation=[("APP", "H1"), ("DB", "DB1")],
    )


@pytest.fixture
def platform():
    return Platform(small_landscape())


class TestConstruction:
    def test_initial_allocation_instantiated(self, platform):
        assert len(platform.service("APP").running_instances) == 1
        assert platform.service("APP").running_instances[0].host_name == "H1"

    def test_virtual_ips_bound(self, platform):
        instance = platform.service("APP").running_instances[0]
        assert instance.virtual_ip == VirtualIP("10.83.0.2")
        assert platform.host("H1").instances == [instance]

    def test_instances_found_by_id(self, platform):
        instance = platform.service("APP").running_instances[0]
        assert platform.instance(instance.instance_id) is instance

    def test_paper_landscape_boots(self):
        platform = Platform(paper_landscape())
        assert len(platform.all_instances()) == 19
        assert len(platform.hosts) == 19

    def test_invalid_landscape_rejected(self):
        landscape = small_landscape()
        landscape.initial_allocation.append(("DB", "H1"))  # PI too low
        with pytest.raises(Exception, match="performance index"):
            Platform(landscape)


class TestCanHost:
    def test_feasible_host(self, platform):
        assert platform.can_host("APP", "H2") is None

    def test_performance_index_enforced(self, platform):
        assert "performance index" in platform.can_host("DB", "H1")

    def test_exclusive_service_rejects_shared_host(self):
        # an exclusive service may not join a host that runs something else
        landscape = small_landscape()
        landscape.servers.append(ServerSpec("DB2", performance_index=9.0,
                                            memory_mb=12288))
        platform = Platform(landscape)
        platform.execute(Action.SCALE_OUT, "APP", target_host="DB2")
        assert "exclusive" in platform.can_host("DB", "DB2")

    def test_exclusive_host_rejects_newcomers(self, platform):
        # DB1 runs the exclusive DB; APP may not join it
        assert "exclusively" in platform.can_host("APP", "DB1")

    def test_memory_enforced(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        # H2 has 2048 MB; two 1024 MB instances fill it
        assert "MB" in platform.can_host("APP", "H2")

    def test_eligible_hosts(self, platform):
        names = {h.name for h in platform.eligible_hosts("APP")}
        assert names == {"H1", "H2", "H3"}


class TestScaleOutIn:
    def test_scale_out_starts_instance(self, platform):
        outcome = platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        assert outcome.action is Action.SCALE_OUT
        assert len(platform.service("APP").running_instances) == 2

    def test_scale_out_beyond_max_rejected(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="H3")
        with pytest.raises(ConstraintViolation, match="maximum"):
            platform.execute(Action.SCALE_OUT, "APP", target_host="H3")

    def test_scale_out_requires_target(self, platform):
        with pytest.raises(Exception, match="target"):
            platform.execute(Action.SCALE_OUT, "APP")

    def test_scale_in_stops_instance(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        platform.execute(Action.SCALE_IN, "APP")
        assert len(platform.service("APP").running_instances) == 1

    def test_scale_in_below_min_rejected(self, platform):
        with pytest.raises(ConstraintViolation):
            platform.execute(Action.SCALE_IN, "APP")

    def test_scale_in_displaces_users(self, platform):
        service = platform.service("APP")
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        first, second = service.running_instances
        first.users, second.users = 100, 50
        platform.execute(Action.SCALE_IN, "APP", instance_id=second.instance_id)
        assert service.total_users == 150

    def test_scale_in_frees_virtual_ip(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        instance = platform.service("APP").running_instances[1]
        platform.execute(Action.SCALE_IN, "APP", instance_id=instance.instance_id)
        assert not instance.running
        assert instance not in platform.host("H2").instances
        assert instance not in platform.all_instances()


class TestRelocation:
    def test_move_between_equal_hosts(self, platform):
        instance = platform.service("APP").running_instances[0]
        platform.execute(
            Action.MOVE, "APP", instance_id=instance.instance_id, target_host="H2"
        )
        assert instance.host_name == "H2"
        assert platform.host("H2").instances == [instance]
        assert instance not in platform.host("H1").instances

    def test_move_to_stronger_host_rejected(self, platform):
        instance = platform.service("APP").running_instances[0]
        with pytest.raises(ConstraintViolation, match="equivalently"):
            platform.execute(
                Action.MOVE, "APP", instance_id=instance.instance_id, target_host="H3"
            )

    def test_scale_up_requires_stronger_host(self, platform):
        instance = platform.service("APP").running_instances[0]
        platform.execute(
            Action.SCALE_UP, "APP", instance_id=instance.instance_id, target_host="H3"
        )
        assert instance.host_name == "H3"

    def test_scale_up_to_equal_host_rejected(self, platform):
        instance = platform.service("APP").running_instances[0]
        with pytest.raises(ConstraintViolation, match="not above"):
            platform.execute(
                Action.SCALE_UP, "APP", instance_id=instance.instance_id,
                target_host="H2",
            )

    def test_scale_down_requires_weaker_host(self, platform):
        instance = platform.service("APP").running_instances[0]
        platform.execute(
            Action.SCALE_UP, "APP", instance_id=instance.instance_id, target_host="H3"
        )
        platform.execute(
            Action.SCALE_DOWN, "APP", instance_id=instance.instance_id,
            target_host="H1",
        )
        assert instance.host_name == "H1"

    def test_users_follow_moved_instance(self, platform):
        instance = platform.service("APP").running_instances[0]
        instance.users = 42
        platform.execute(
            Action.MOVE, "APP", instance_id=instance.instance_id, target_host="H2"
        )
        assert instance.users == 42

    def test_failed_move_leaves_instance_attached(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        instance = platform.service("APP").running_instances[0]
        # H2 is now full (2 x 1024 MB of 2048 MB)
        with pytest.raises(ConstraintViolation, match="MB"):
            platform.execute(
                Action.MOVE, "APP", instance_id=instance.instance_id, target_host="H2"
            )
        assert instance.host_name == "H1"
        assert instance in platform.host("H1").instances


class TestPolicyEnforcement:
    def test_disallowed_action_rejected(self, platform):
        with pytest.raises(ActionNotAllowed, match="does not support"):
            platform.execute(Action.SCALE_OUT, "DB", target_host="DB1")

    def test_enforce_allowed_can_be_disabled(self, platform):
        # administrators can force actions via the console
        landscape = small_landscape()
        platform = Platform(landscape)
        with pytest.raises(ConstraintViolation):
            # still fails on max_instances, but not on ActionNotAllowed
            platform.execute(
                Action.SCALE_OUT, "DB", target_host="DB1", enforce_allowed=False
            )

    def test_unknown_service_rejected(self, platform):
        with pytest.raises(NoSuchTarget):
            platform.execute(Action.SCALE_OUT, "GHOST", target_host="H1")

    def test_unknown_host_rejected(self, platform):
        with pytest.raises(NoSuchTarget):
            platform.execute(Action.SCALE_OUT, "APP", target_host="H99")

    def test_unknown_instance_rejected(self, platform):
        with pytest.raises(NoSuchTarget):
            platform.execute(
                Action.MOVE, "APP", instance_id="APP#999", target_host="H2"
            )


class TestPriorities:
    def test_increase_priority(self, platform):
        platform.execute(Action.INCREASE_PRIORITY, "APP")
        assert platform.service("APP").priority == 6

    def test_reduce_priority(self, platform):
        platform.execute(Action.REDUCE_PRIORITY, "APP")
        assert platform.service("APP").priority == 4

    def test_priority_clamped(self, platform):
        for __ in range(20):
            platform.execute(Action.INCREASE_PRIORITY, "APP")
        assert platform.service("APP").priority == 10


class TestAuditLog:
    def test_actions_are_logged(self, platform):
        outcomes = executed(platform)
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2", applicability=0.8)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.action is Action.SCALE_OUT
        assert outcome.applicability == pytest.approx(0.8)

    def test_failed_actions_not_logged(self, platform):
        outcomes = executed(platform)
        with pytest.raises(ConstraintViolation):
            platform.execute(Action.SCALE_IN, "APP")
        assert outcomes == []

    def test_outcome_str_readable(self, platform):
        outcome = platform.execute(
            Action.SCALE_OUT, "APP", target_host="H2", applicability=0.8
        )
        text = str(outcome)
        assert "scaleOut" in text and "H2" in text and "80%" in text


class TestUserRedistribution:
    def test_sticky_leaves_users(self):
        platform = Platform(small_landscape(), UserDistribution.STICKY)
        service = platform.service("APP")
        service.running_instances[0].users = 300
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        users = [i.users for i in service.running_instances]
        assert sorted(users) == [0, 300]

    def test_redistribute_balances_users(self):
        """Full mobility: after a scale-out, users are equally redistributed."""
        platform = Platform(small_landscape(), UserDistribution.REDISTRIBUTE)
        service = platform.service("APP")
        service.running_instances[0].users = 300
        platform.execute(Action.SCALE_OUT, "APP", target_host="H2")
        users = [i.users for i in service.running_instances]
        assert sorted(users) == [150, 150]
        assert service.total_users == 300


class TestMeasurements:
    def test_host_cpu_load_reflects_demand(self, platform):
        instance = platform.service("APP").running_instances[0]
        instance.demand = 0.5
        assert platform.host_cpu_load("H1") == pytest.approx(0.5)

    def test_cpu_load_saturates_at_one(self, platform):
        instance = platform.service("APP").running_instances[0]
        instance.demand = 2.5
        assert platform.host_cpu_load("H1") == 1.0
        assert platform.host("H1").overload_factor == pytest.approx(2.5)

    def test_instance_and_service_load(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="H3")
        first, second = platform.service("APP").running_instances
        first.demand = 0.5   # H1, capacity 1 -> load 0.5
        second.demand = 0.5  # H3, capacity 2 -> load 0.25
        assert platform.instance_load(first) == pytest.approx(0.5)
        assert platform.instance_load(second) == pytest.approx(0.25)
        assert platform.service_load("APP") == pytest.approx(0.375)

    def test_mem_load(self, platform):
        assert platform.host_mem_load("H1") == pytest.approx(1024 / 2048)
