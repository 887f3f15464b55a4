"""Tests for heartbeat-based failure detection and the self-healing loop."""

import pytest

from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.monitoring.heartbeat import HeartbeatDetector
from repro.serviceglobe.platform import Platform
from tests.conftest import alerts_of
from tests.core.conftest import build_landscape


@pytest.fixture
def platform():
    return Platform(build_landscape())


class TestDetector:
    def test_healthy_instances_never_reported(self, platform):
        detector = HeartbeatDetector(platform)
        for now in range(10):
            assert detector.tick(now) == []

    def test_hung_instance_reported_after_threshold(self, platform):
        detector = HeartbeatDetector(platform, miss_threshold=3)
        instance = platform.service("APP").running_instances[0]
        detector.tick(0)
        detector.suppress(instance.instance_id)
        assert detector.tick(1) == []
        assert detector.tick(2) == []
        assert detector.tick(3) == [instance.instance_id]

    def test_failure_reported_exactly_once(self, platform):
        detector = HeartbeatDetector(platform, miss_threshold=2)
        instance = platform.service("APP").running_instances[0]
        detector.tick(0)
        detector.suppress(instance.instance_id)
        assert detector.tick(2) == [instance.instance_id]
        assert detector.tick(3) == []

    def test_clean_stop_is_not_a_failure(self, platform):
        detector = HeartbeatDetector(platform, miss_threshold=2)
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        detector.tick(0)
        extra = platform.service("APP").running_instances[1]
        platform.execute(Action.SCALE_IN, "APP", instance_id=extra.instance_id)
        for now in range(1, 6):
            assert detector.tick(now) == []
        assert extra.instance_id not in detector.tracked

    def test_resume_cancels_detection(self, platform):
        detector = HeartbeatDetector(platform, miss_threshold=5)
        instance = platform.service("APP").running_instances[0]
        detector.tick(0)
        detector.suppress(instance.instance_id)
        detector.tick(2)
        detector.resume(instance.instance_id)
        for now in range(3, 10):
            assert detector.tick(now) == []

    def test_bad_threshold_rejected(self, platform):
        with pytest.raises(ValueError):
            HeartbeatDetector(platform, miss_threshold=0)

    def test_suppressed_instance_removed_from_platform_is_forgotten(
        self, platform
    ):
        """A hung instance that dies (host crash, scale-in) before the
        detector reports it must not leak bookkeeping or be reported as a
        failure of an instance that no longer exists."""
        detector = HeartbeatDetector(platform, miss_threshold=3)
        instance = platform.service("APP").running_instances[0]
        detector.tick(0)
        detector.suppress(instance.instance_id)
        detector.tick(1)
        platform.crash_instance(instance.instance_id)
        assert detector.tick(2) == []
        assert instance.instance_id not in detector.tracked
        assert instance.instance_id not in detector.suppressed
        # it never surfaces later either
        for now in range(3, 10):
            assert detector.tick(now) == []

    def test_suppressed_before_first_beat_is_forgotten_too(self, platform):
        detector = HeartbeatDetector(platform, miss_threshold=2)
        instance = platform.service("APP").running_instances[0]
        # suppressed before the first tick: no _last_beat entry exists
        detector.suppress(instance.instance_id)
        platform.crash_instance(instance.instance_id)
        assert detector.tick(0) == []
        assert instance.instance_id not in detector.suppressed


class TestSelfHealingLoop:
    def test_hung_instance_restarted_automatically(self, platform):
        """Detector -> report_failure -> restart, end to end inside the
        controller's own tick."""
        controller = AutoGlobeController(platform)
        controller.tick(0)
        victim = platform.service("APP").running_instances[0]
        victim.users = 77
        controller.failure_detector.suppress(victim.instance_id)
        restarted = None
        for now in range(1, 8):
            outcomes = controller.tick(now)
            for outcome in outcomes:
                if "restart after failure" in outcome.note:
                    restarted = outcome
        assert restarted is not None
        survivors = platform.service("APP").running_instances
        assert len(survivors) == 1
        assert survivors[0].instance_id != victim.instance_id
        assert platform.service("APP").total_users == 77

    def test_restart_logged_as_warning(self, platform):
        alerts = alerts_of(platform)
        controller = AutoGlobeController(platform)
        controller.tick(0)
        victim = platform.service("APP").running_instances[0]
        controller.failure_detector.suppress(victim.instance_id)
        for now in range(1, 8):
            controller.tick(now)
        warnings = [a for a in alerts if "restarted" in a.message]
        assert warnings
