"""Tests for failure injection and self-healing under churn."""

import pytest

from repro.core.federation import FederatedControlPlane
from repro.serviceglobe.platform import Platform
from repro.sim.faults import FaultInjector
from repro.sim.scenarios import Scenario, scenario_landscape
from repro.sim.workload import NoiseParameters, WorkloadModel
from repro.config.builtin import paper_landscape
from repro.telemetry.records import TOPIC_FAULTS
from tests.conftest import executed, published
from tests.core.conftest import build_landscape


def _count(faults, kind):
    return sum(1 for fault in faults if fault.kind == kind)


class TestInjector:
    def test_no_faults_with_zero_probability(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        injector = FaultInjector(controller, crash_probability=0.0,
                                 hang_probability=0.0)
        for now in range(100):
            controller.tick(now)
            assert injector.tick(now) == []
        assert faults == []

    def test_crash_restarts_instance(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        injector = FaultInjector(controller, crash_probability=1.0,
                                 hang_probability=0.0, seed=1)
        controller.tick(0)
        injector.tick(0)
        assert _count(faults, "crash") >= 1
        # every crashed service is running again (restart succeeded)
        for fault in faults:
            assert platform.service(fault.service_name).running_instances

    def test_hang_detected_and_healed(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        injector = FaultInjector(controller, crash_probability=0.0,
                                 hang_probability=1.0, seed=1)
        outcomes = executed(platform)
        controller.tick(0)
        injector.tick(0)  # everything hangs at t=0
        assert _count(faults, "hang") >= 1
        for now in range(1, 8):
            controller.tick(now)
        # the heartbeat detector noticed and the controller restarted
        restarts = [a for a in outcomes if "restart" in a.note]
        assert restarts
        for fault in faults:
            assert platform.service(fault.service_name).running_instances

    def test_deterministic_under_seed(self):
        def run():
            platform = Platform(build_landscape())
            faults = published(platform.bus, TOPIC_FAULTS)
            controller = FederatedControlPlane(platform)
            injector = FaultInjector(controller, crash_probability=0.05,
                                     hang_probability=0.05, seed=42)
            for now in range(60):
                controller.tick(now)
                injector.tick(now)
            return [(f.time, f.service_name, f.kind) for f in faults]

        assert run() == run()

    def test_deterministic_with_host_faults(self):
        def run():
            platform = Platform(build_landscape())
            faults = published(platform.bus, TOPIC_FAULTS)
            controller = FederatedControlPlane(platform)
            injector = FaultInjector(
                controller,
                crash_probability=0.02,
                hang_probability=0.02,
                host_crash_probability=0.01,
                host_reboot_minutes=(3, 10),
                monitor_outage_probability=0.02,
                monitor_outage_minutes=(2, 6),
                seed=42,
            )
            for now in range(120):
                injector.tick(now)
                controller.tick(now)
            return [
                (f.time, f.service_name, f.host_name, f.kind)
                for f in faults
            ]

        assert run() == run()

    def test_bad_probabilities_rejected(self):
        platform = Platform(build_landscape())
        controller = FederatedControlPlane(platform)
        with pytest.raises(ValueError):
            FaultInjector(controller, crash_probability=1.5)
        with pytest.raises(ValueError):
            FaultInjector(controller, hang_probability=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(controller, host_crash_probability=2.0)
        with pytest.raises(ValueError):
            FaultInjector(controller, host_reboot_minutes=(0, 5))
        with pytest.raises(ValueError):
            FaultInjector(controller, monitor_outage_minutes=(10, 5))

    def test_disabled_controller_leaves_crashes_unhealed(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform, enabled=False)
        injector = FaultInjector(controller, crash_probability=1.0,
                                 hang_probability=0.0, seed=1)
        controller.tick(0)
        injector.tick(0)
        assert _count(faults, "crash") >= 1
        for now in range(1, 10):
            controller.tick(now)
        # nothing heals: the crashed services stay dead (chaos baseline)
        for fault in faults:
            if fault.kind == "crash":
                assert not platform.service(fault.service_name).running_instances


class TestHostFaults:
    def test_host_crash_takes_capacity_and_instances(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform, enabled=False)
        injector = FaultInjector(
            controller, crash_probability=0.0, hang_probability=0.0,
            host_crash_probability=1.0, host_reboot_minutes=(5, 5), seed=1,
        )
        injector.tick(0)
        assert _count(faults, "host-crash") == len(platform.hosts)
        assert platform.hosts_down() == sorted(platform.hosts)
        assert platform.all_instances() == []

    def test_crashed_host_rejoins_after_reboot(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        injector = FaultInjector(
            controller, crash_probability=0.0, hang_probability=0.0,
            host_crash_probability=1.0, host_reboot_minutes=(5, 5), seed=1,
        )
        controller.tick(0)
        injector.tick(0)
        injector.host_crash_probability = 0.0  # one storm, then calm
        assert platform.hosts_down() == sorted(platform.hosts)
        for now in range(1, 10):
            injector.tick(now)
            controller.tick(now)
        assert platform.hosts_down() == []
        assert _count(faults, "host-recovery") == _count(faults, "host-crash")
        # the controller restarted every service once capacity returned
        for name, definition in platform.services.items():
            assert definition.running_instances, f"{name} still down"

    def test_victims_not_healed_when_controller_disabled(self):
        platform = Platform(build_landscape())
        controller = FederatedControlPlane(platform, enabled=False)
        injector = FaultInjector(
            controller, crash_probability=0.0, hang_probability=0.0,
            host_crash_probability=1.0, host_reboot_minutes=(2, 2), seed=1,
        )
        controller.tick(0)
        injector.tick(0)
        injector.host_crash_probability = 0.0
        for now in range(1, 8):
            injector.tick(now)
            controller.tick(now)
        assert platform.hosts_down() == []  # hosts reboot on their own
        assert platform.all_instances() == []  # but nothing restarts them


class TestMonitoringOutages:
    def test_outage_drops_reports_instead_of_sampling_zero(self):
        platform = Platform(build_landscape())
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        injector = FaultInjector(
            controller, crash_probability=0.0, hang_probability=0.0,
            monitor_outage_probability=1.0, monitor_outage_minutes=(4, 4),
            seed=1,
        )
        injector.tick(0)
        injector.monitor_outage_probability = 0.0
        assert _count(faults, "monitor-outage") == len(platform.hosts)
        for now in range(0, 4):
            controller.tick(now)
        [leader] = controller.leaders()
        for name in platform.hosts:
            # the archive holds no cpu sample for the outage's minutes
            assert leader.archive.history(name, "cpu", 0, 3) == []
        # after the outage window reports flow again
        controller.tick(4)
        for name in platform.hosts:
            assert len(leader.archive.history(name, "cpu", 4, 4)) == 1


class TestChaosOnSapLandscape:
    def test_landscape_survives_fault_storm(self):
        """Six hours of elevated fault rates on the full SAP landscape:
        every service keeps its minimum instance count and all users
        survive."""
        landscape = scenario_landscape(
            paper_landscape(), Scenario.CONSTRAINED_MOBILITY, 1.0
        )
        platform = Platform(landscape)
        faults = published(platform.bus, TOPIC_FAULTS)
        controller = FederatedControlPlane(platform)
        workload = WorkloadModel(
            platform, seed=5,
            noise=NoiseParameters(sigma=0.0, burst_probability=0.0),
        )
        workload.initialize()
        users_before = workload.total_users()
        injector = FaultInjector(
            controller,
            crash_probability=1.0 / 360,  # one crash per instance per ~6 h
            hang_probability=1.0 / 360,
            seed=11,
        )
        for now in range(12 * 60, 18 * 60):
            workload.tick(now)
            controller.tick(now)
            injector.tick(now)
        assert faults, "the storm should have injected faults"
        for definition in platform.services.values():
            running = len(definition.running_instances)
            assert running >= max(definition.spec.constraints.min_instances, 1)
        assert workload.total_users() == users_before
