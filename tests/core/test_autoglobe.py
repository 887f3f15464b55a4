"""Integration tests for the AutoGlobe controller facade.

These drive the full Figure 2 stack minute by minute: demand is written
onto instances, the controller samples, confirms situations after the
watch time, and executes remedies through the platform.
"""

import pytest

from repro.config.model import Action, ControllerSettings
from repro.core.autoglobe import AutoGlobeController
from repro.core.explain import explain_last_decisions
from repro.monitoring.lms import SituationKind
from repro.serviceglobe.platform import Platform
from tests.conftest import alerts_of, confirmed, executed
from tests.core.conftest import build_landscape, console_frame, console_view, set_demand


def make_controller(platform=None, **settings_overrides):
    if platform is None:
        platform = Platform(build_landscape())
    defaults = dict(
        overload_threshold=0.70,
        overload_watch_time=10,
        idle_threshold_base=0.125,
        idle_watch_time=20,
        protection_time=30,
        min_applicability=0.10,
    )
    defaults.update(settings_overrides)
    controller = AutoGlobeController(platform, ControllerSettings(**defaults))
    return platform, controller


def run(controller, platform, minutes, demand_by_host, start=0):
    """Drive the controller with constant per-host demand."""
    outcomes = []
    for now in range(start, start + minutes):
        for host_name, demand in demand_by_host.items():
            set_demand(platform, host_name, demand)
        outcomes.extend(controller.tick(now))
    return outcomes


class TestOverloadReaction:
    def test_sustained_overload_triggers_action_after_watchtime(self):
        platform, controller = make_controller()
        outcomes = run(controller, platform, 15, {"Weak1": 0.95, "Big1": 3.0})
        assert outcomes, "controller should have reacted"
        first = outcomes[0]
        assert first.time == 9  # 10-minute watch starting at t=0
        assert first.service_name == "APP"

    def test_short_burst_does_not_trigger(self):
        platform, controller = make_controller()
        outcomes = run(controller, platform, 3, {"Weak1": 0.95, "Big1": 3.0})
        outcomes += run(
            controller, platform, 20, {"Weak1": 0.30, "Big1": 3.0}, start=3
        )
        overload_actions = [o for o in outcomes if o.action is not Action.SCALE_IN]
        assert overload_actions == []

    def test_overloaded_weak_host_scales_up(self):
        """High load on a weak host: the instance moves to stronger iron."""
        platform, controller = make_controller()
        outcomes = run(controller, platform, 15, {"Weak1": 0.95, "Big1": 3.0})
        assert outcomes[0].action in (Action.SCALE_UP, Action.SCALE_OUT, Action.MOVE)

    def test_protection_prevents_immediate_second_action(self):
        platform, controller = make_controller()
        outcomes = run(controller, platform, 35, {"Weak1": 0.95, "Big1": 3.0})
        app_actions = [o for o in outcomes if o.service_name == "APP"]
        if len(app_actions) >= 2:
            gap = app_actions[1].time - app_actions[0].time
            assert gap >= controller.settings.protection_time

    def test_disabled_controller_never_acts(self):
        platform, controller = make_controller()
        controller.enabled = False
        situations = confirmed(platform.bus)
        outcomes = run(controller, platform, 40, {"Weak1": 0.95})
        assert outcomes == []
        # monitoring still runs: the situation was confirmed, just unhandled
        assert situations


class TestIdleReaction:
    def test_idle_service_scales_in(self):
        platform, controller = make_controller()
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        # both instances idle; Big1 busy enough to stay quiet
        outcomes = run(controller, platform, 25, {"Weak1": 0.01, "Weak2": 0.01,
                                                  "Big1": 3.0})
        scale_ins = [o for o in outcomes if o.action is Action.SCALE_IN]
        assert scale_ins
        assert scale_ins[0].time == 19  # 20-minute idle watch

    def test_idle_threshold_scales_with_performance_index(self):
        """A 10% load is idle for a PI=1 host (12.5%) but not for a PI=2
        host (6.25%)."""
        platform, controller = make_controller()
        platform.execute(Action.SCALE_OUT, "APP", target_host="Strong1")
        situations = confirmed(platform.bus)
        run(controller, platform, 25, {"Weak1": 0.10, "Strong1": 0.20, "Big1": 3.0})
        idle_subjects = {
            s.subject
            for s in situations
            if s.kind in (SituationKind.SERVER_IDLE, SituationKind.SERVICE_IDLE)
        }
        assert "Weak1" in idle_subjects
        assert "Strong1" not in idle_subjects


class TestSelfHealing:
    def test_crashed_instance_restarted(self):
        platform, controller = make_controller()
        outcomes = executed(platform)
        instance = platform.service("APP").running_instances[0]
        instance.users = 120
        outcome = controller.report_failure(instance.instance_id, now=5)
        assert outcome is not None
        restarted = platform.service("APP").running_instances
        assert len(restarted) == 1
        assert restarted[0].instance_id != instance.instance_id
        assert "restart after failure" in outcomes[-1].note

    def test_restart_prefers_original_host(self):
        platform, controller = make_controller()
        instance = platform.service("APP").running_instances[0]
        outcome = controller.report_failure(instance.instance_id, now=5)
        assert outcome.target_host == instance.host_name

    def test_restart_bypasses_allowed_actions(self):
        """DB allows no actions, but self-healing restarts it anyway."""
        platform, controller = make_controller()
        instance = platform.service("DB").running_instances[0]
        outcome = controller.report_failure(instance.instance_id, now=5)
        assert outcome is not None
        assert platform.service("DB").running_instances

    def test_users_survive_crash_when_peers_exist(self):
        platform, controller = make_controller()
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        first, second = platform.service("APP").running_instances
        first.users, second.users = 100, 50
        controller.report_failure(first.instance_id, now=5)
        assert platform.service("APP").total_users == 150


class TestMonitoringLifecycle:
    def test_new_instances_get_monitors(self):
        platform, controller = make_controller()
        controller.tick(0)
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        controller.tick(1)
        new_instance = platform.service("APP").running_instances[-1]
        assert (new_instance.instance_id, "cpu") in controller._instance_series

    def test_moved_instance_advisor_recreated(self):
        platform, controller = make_controller()
        controller.tick(0)
        instance = platform.service("APP").running_instances[0]
        platform.execute(
            Action.SCALE_UP, "APP", instance_id=instance.instance_id,
            target_host="Big1",
        )
        controller.tick(1)
        assert (instance.instance_id, "Big1") in controller._instance_keys
        assert (instance.instance_id, "Weak1") not in controller._instance_keys

    def test_an_idle_threshold_at_the_overload_threshold_is_refused(self):
        """12.5% over a performance index of 1 is not below a 12.5%
        overload threshold: the host's thresholds cannot be built."""
        with pytest.raises(ValueError, match="must be below overload threshold"):
            make_controller(overload_threshold=0.125)
        with pytest.raises(ValueError, match="must be below overload threshold"):
            make_controller(overload_threshold=0.1, idle_threshold_base=0.5)

    def test_archive_populated(self):
        platform, controller = make_controller()
        run(controller, platform, 5, {"Weak1": 0.42})
        assert controller.archive.average("Weak1", "cpu", 0, 4) == pytest.approx(0.42)

    def test_service_rule_overrides_installed_from_landscape(self):
        import dataclasses

        landscape = build_landscape()
        landscape.services[0] = dataclasses.replace(
            landscape.services[0],
            rule_overrides={
                "serviceOverloaded": (
                    "IF cpuLoad IS high THEN increasePriority IS applicable"
                )
            },
        )
        platform = Platform(landscape)
        controller = AutoGlobeController(platform)
        rulebase = controller.action_selector.rulebase_for(
            SituationKind.SERVICE_OVERLOADED, "APP"
        )
        assert any(r.output_variable == "increasePriority" and r.weight == 1.0
                   for r in rulebase)


class TestConsole:
    def test_three_views_render(self):
        platform, controller = make_controller()
        run(controller, platform, 2, {"Weak1": 0.5})
        text = console_frame(controller, now=1)
        assert "== Servers ==" in text
        assert "== Services ==" in text
        assert "== Messages ==" in text
        assert "Weak1" in text and "APP" in text

    def test_server_view_groups_by_category(self):
        platform, controller = make_controller()
        lines = console_view(console_frame(controller), "Servers")
        assert lines[0].startswith("category")

    def test_manual_execution_protects_and_logs(self):
        platform, controller = make_controller()
        alerts = alerts_of(platform)
        outcome = controller.execute_manually(
            Action.SCALE_OUT, "APP", target_host="Weak2", now=3
        )
        assert outcome.note == "manual execution via controller console"
        assert controller.protection.is_protected("APP", 4)
        assert alerts

    def test_decision_view_renders_explanations(self):
        platform, controller = make_controller()
        run(controller, platform, 15, {"Weak1": 0.95, "Big1": 3.0})
        text = explain_last_decisions(controller.decision_records, 3)
        assert "situation:" in text
        assert "executed:" in text

    def test_manual_execution_bypasses_allowed_actions(self):
        platform, controller = make_controller()
        # DB allows nothing, but the administrator may still act on it
        outcome = controller.execute_manually(
            Action.REDUCE_PRIORITY, "DB", now=0
        )
        assert outcome is not None
