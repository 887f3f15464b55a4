"""Self-healing under combined failure bursts.

Single faults are easy; these tests overlap them: a host dies while an
instance is mid-move, a hang is detected while the service is in
protection mode, and the last instance of a minInstances=1 service
crashes together with its only eligible host.
"""

import pytest

from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.serviceglobe.actions import TransientActionFailure
from repro.serviceglobe.executor import ActionExecutor, ExecutionFaults
from repro.serviceglobe.platform import Platform
from tests.conftest import alerts_of, escalations
from tests.core.conftest import build_landscape


@pytest.fixture
def platform():
    return Platform(build_landscape())


class TestHostCrashDuringMove:
    def test_orphaned_instance_restarted_by_next_tick(self, platform):
        """The source host dies while an instance is in flight and the
        target start fails: the instance can be restored nowhere, it is
        orphaned — and the controller's self-healing restarts it on the
        next tick."""
        controller = AutoGlobeController(platform)
        controller.tick(0)
        instance = platform.service("APP").running_instances[0]
        source = instance.host_name

        def source_dies(moving, target_host):
            platform.crash_host(source)
            raise TransientActionFailure("target start failed")

        platform.move_fault_hook = source_dies
        executor = ActionExecutor(
            platform, faults=ExecutionFaults(commit_failure_probability=1.0)
        )
        with pytest.raises(TransientActionFailure):
            executor.execute(
                Action.MOVE,
                "APP",
                instance_id=instance.instance_id,
                target_host="Weak2",
            )
        platform.move_fault_hook = None
        assert platform.orphans
        assert not platform.service("APP").running_instances
        controller.tick(1)
        assert platform.orphans == []
        survivors = platform.service("APP").running_instances
        assert len(survivors) == 1
        assert survivors[0].host_name != source  # the source is still down


class TestHangDuringProtection:
    def test_self_healing_ignores_protection_mode(self, platform):
        """Protection mode suppresses echo *situations*, not failures: a
        hang detected while the service is protected must still heal."""
        controller = AutoGlobeController(platform)
        controller.tick(0)
        victim = platform.service("APP").running_instances[0]
        controller.protection.protect(["APP", victim.host_name], now=1)
        controller.failure_detector.suppress(victim.instance_id)
        restarted = None
        for now in range(1, 8):
            for outcome in controller.tick(now):
                if "restart after failure" in outcome.note:
                    restarted = outcome
        assert restarted is not None
        survivors = platform.service("APP").running_instances
        assert len(survivors) == 1
        assert survivors[0].instance_id != victim.instance_id


class TestLastInstanceWithHostDown:
    def test_deferred_restart_after_host_recovery(self, platform):
        """The only instance of a minInstances=1 service dies with its
        only eligible host: the restart cannot run anywhere, so it is
        deferred and retried until the host rejoins the landscape."""
        alerts = alerts_of(platform)
        controller = AutoGlobeController(platform)
        controller.tick(0)
        victims = platform.crash_host("Big1")  # kills DB's only instance
        assert [v.service_name for v in victims] == ["DB"]
        for victim in victims:
            controller.failure_detector.forget(victim.instance_id)
            controller.report_failure(victim.instance_id, 1)
        # no eligible host (DB needs performanceIndex >= 5): escalated
        assert any(
            "could not restart" in a.message
            for a in escalations(alerts)
        )
        for now in range(2, 6):
            controller.tick(now)
            assert not platform.service("DB").running_instances
        platform.recover_host("Big1")
        outcomes = controller.tick(6)
        deferred = [o for o in outcomes if "deferred restart" in o.note]
        assert len(deferred) == 1
        db = platform.service("DB").running_instances
        assert len(db) == 1
        assert db[0].host_name == "Big1"
        # retried once, not leaked: later ticks stay quiet
        assert controller.tick(7) == []
