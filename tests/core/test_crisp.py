"""Tests for the crisp threshold-rule baseline controller."""

import pytest

from repro.config.model import Action, ControllerSettings
from repro.core.crisp import CrispThresholdController
from repro.serviceglobe.platform import Platform
from tests.conftest import alerts_of, escalations
from tests.core.conftest import build_landscape, set_demand


def make(platform=None, **overrides):
    if platform is None:
        platform = Platform(build_landscape())
    settings = ControllerSettings(**overrides) if overrides else ControllerSettings()
    return platform, CrispThresholdController(platform, settings)


def drive(platform, controller, minutes, demand_by_host, start=0):
    outcomes = []
    for now in range(start, start + minutes):
        for host, demand in demand_by_host.items():
            set_demand(platform, host, demand)
        outcomes.extend(controller.tick(now))
    return outcomes


class TestOverloadPath:
    def test_reacts_after_consecutive_breaches(self):
        platform, controller = make()
        outcomes = drive(platform, controller, 15, {"Weak1": 0.95, "Big1": 3.0})
        assert outcomes
        # the crisp rule: always scale out first
        assert outcomes[0].action is Action.SCALE_OUT

    def test_counter_resets_on_dip(self):
        """Unlike the watch-time mean, a single quiet minute resets the
        crisp breach counter — short dips blind the baseline."""
        platform, controller = make()
        outcomes = []
        for now in range(30):
            load = 0.3 if now % 9 == 8 else 0.95  # dip every 9th minute
            set_demand(platform, "Weak1", load)
            set_demand(platform, "Big1", 3.0)
            outcomes.extend(controller.tick(now))
        assert outcomes == []

    def test_target_is_least_loaded(self):
        platform, controller = make()
        set_demand(platform, "Big1", 8.0)  # busy
        outcomes = drive(platform, controller, 12, {"Weak1": 0.95, "Big1": 8.0})
        assert outcomes
        assert outcomes[0].target_host in ("Weak2", "Strong1", "Strong2")

    def test_protection_respected(self):
        platform, controller = make()
        outcomes = drive(platform, controller, 40, {"Weak1": 0.95, "Big1": 3.0})
        times = [o.time for o in outcomes if o.service_name == "APP"]
        for first, second in zip(times, times[1:]):
            assert second - first >= controller.settings.protection_time

    def test_escalates_when_no_action_possible(self):
        landscape = build_landscape(app_actions=frozenset())
        platform = Platform(landscape)
        alerts = alerts_of(platform)
        controller = CrispThresholdController(platform)
        drive(platform, controller, 15, {"Weak1": 0.95, "Big1": 3.0})
        assert escalations(alerts)


class TestIdlePath:
    def test_idle_scale_in(self):
        platform, controller = make()
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        outcomes = drive(
            platform, controller, 25, {"Weak1": 0.01, "Weak2": 0.01, "Big1": 3.0}
        )
        assert any(o.action is Action.SCALE_IN for o in outcomes)

    def test_disabled_controller_is_inert(self):
        platform = Platform(build_landscape())
        controller = CrispThresholdController(platform, enabled=False)
        outcomes = drive(platform, controller, 30, {"Weak1": 0.95})
        assert outcomes == []


class TestBaselineRun:
    def test_the_baseline_escalations_reach_the_stream(self):
        """The ablation's crisp replica set, constrained mobility at 140 %
        for a day: it escalates, and the live verifier's AG305 finds every
        escalation of the summary on the event stream."""
        from repro.core.failover import ControllerSupervisor
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        class CrispSupervisor(ControllerSupervisor):
            def _new_controller(self):
                controller = CrispThresholdController(
                    self.platform, self.settings, self._enabled
                )
                self.replicas.append(controller)
                return controller

        runner = SimulationRunner(
            Scenario.CONSTRAINED_MOBILITY,
            user_factor=1.4,
            horizon=24 * 60,
            seed=7,
            collect_host_series=False,
            verify=True,
            controller_factory=lambda platform, settings, enabled, store: (
                CrispSupervisor(platform, settings=settings, enabled=enabled, store=store)
            ),
        )
        result = runner.run()
        assert result.escalation_count > 0
        report = runner.verification_report(result)
        assert report.exit_code() == 0, report.render()
