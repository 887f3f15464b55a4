"""Tests for transactional platform rearrangements."""

import pytest

from repro.config.model import Action
from repro.serviceglobe.actions import ActionError
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.transactions import PlatformTransaction
from tests.core.conftest import build_landscape
from tests.conftest import executed


def placement(platform):
    return sorted(
        (i.service_name, i.host_name, i.users)
        for i in platform.all_instances()
    )


@pytest.fixture
def platform():
    platform = Platform(build_landscape())
    platform.service("APP").running_instances[0].users = 120
    return platform


class TestCommit:
    def test_successful_block_keeps_changes(self, platform):
        with PlatformTransaction(platform):
            platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert len(platform.service("APP").running_instances) == 2

    def test_audit_log_kept_on_commit(self, platform):
        outcomes = executed(platform)
        with PlatformTransaction(platform):
            platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert len(outcomes) == 1


class TestRollback:
    def test_failed_block_restores_placement(self, platform):
        before = placement(platform)
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
                platform.execute(
                    Action.SCALE_OUT, "DB", target_host="Big1"
                )  # not allowed -> whole block rolls back
        assert placement(platform) == before

    def test_rollback_restores_users(self, platform):
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
                # the new instance takes users via redistribution policy?
                # sticky here, so move them by hand to prove restoration
                first, second = platform.service("APP").running_instances
                first.users, second.users = 40, 80
                raise ActionError("boom")
        instances = platform.service("APP").running_instances
        assert len(instances) == 1
        assert instances[0].users == 120

    def test_rollback_restores_moved_instance(self, platform):
        instance = platform.service("APP").running_instances[0]
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(
                    Action.MOVE, "APP", instance_id=instance.instance_id,
                    target_host="Weak2",
                )
                raise ActionError("boom")
        assert instance.host_name == "Weak1"
        assert instance in platform.host("Weak1").instances
        restored = platform.instance(instance.instance_id)
        assert restored.host_name == "Weak1"
        assert restored.virtual_ip == instance.virtual_ip
        assert platform.host("Weak1").instances == [restored]

    def test_rollback_recreates_stopped_instance(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        victim = platform.service("APP").running_instances[0]
        victim_users = victim.users
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(
                    Action.SCALE_IN, "APP", instance_id=victim.instance_id
                )
                raise ActionError("boom")
        by_host = {
            i.host_name: i.users
            for i in platform.service("APP").running_instances
        }
        assert set(by_host) == {"Weak1", "Weak2"}
        assert by_host["Weak1"] == victim_users
        assert victim in platform.service("APP").running_instances

    def test_rollback_is_exact(self, platform):
        """Original ids come back and the instance sequence is rewound."""
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        before = platform.snapshot_state()
        victim = platform.service("APP").running_instances[0]
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_IN, "APP", instance_id=victim.instance_id)
                platform.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
                raise ActionError("boom")
        assert platform.snapshot_state() == before
        outcome = platform.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
        assert outcome.instance_id == "APP#004"

    def test_rollback_restores_priorities(self, platform):
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.INCREASE_PRIORITY, "APP")
                platform.execute(Action.INCREASE_PRIORITY, "APP")
                raise ActionError("boom")
        assert platform.service("APP").priority == 5

    def test_rollback_cannot_retract_published_actions(self, platform):
        """The platform keeps no action history to roll back: an outcome
        published inside a failed block stays published."""
        outcomes = executed(platform)
        platform.execute(Action.INCREASE_PRIORITY, "APP")
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
                raise ActionError("boom")
        assert [o.action for o in outcomes] == [Action.INCREASE_PRIORITY, Action.SCALE_OUT]
        assert len(platform.service("APP").running_instances) == 1

    def test_nested_state_flag(self, platform):
        transaction = PlatformTransaction(platform)
        assert not transaction.active
        with transaction:
            assert transaction.active
        assert not transaction.active

    def test_total_users_conserved_through_rollback(self, platform):
        before = platform.service("APP").total_users
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
                platform.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
                raise ActionError("boom")
        assert platform.service("APP").total_users == before

    def test_rollback_keeps_the_fencing_watermark(self, platform):
        with pytest.raises(ActionError):
            with PlatformTransaction(platform):
                platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2", fencing_token=5)
                raise ActionError("boom")
        assert platform.fence.token == 5
        assert len(platform.service("APP").running_instances) == 1
