"""Cross-module integration tests: the whole stack on short horizons.

Everything here exercises platform + monitoring + fuzzy controllers +
workload together, asserting conservation laws and end-to-end behaviour
that no single-module test can see.
"""

import pytest

from repro.config.builtin import paper_landscape
from repro.config.model import Action, ServiceKind
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario

MORNING_TO_EVENING = 12 * 60  # noon -> midnight


def run(scenario, factor, horizon=MORNING_TO_EVENING, **kwargs):
    runner = SimulationRunner(
        scenario, user_factor=factor, horizon=horizon, seed=13, **kwargs
    )
    result = runner.run()
    return runner, result


class TestConservationLaws:
    def test_interactive_users_never_created_or_lost(self):
        runner, __ = run(Scenario.FULL_MOBILITY, 1.25)
        landscape = runner.platform.landscape
        for spec in landscape.services:
            if spec.kind is not ServiceKind.APPLICATION_SERVER:
                continue
            assert runner.platform.service(spec.name).total_users == spec.workload.users

    def test_every_instance_attached_exactly_once(self):
        runner, __ = run(Scenario.FULL_MOBILITY, 1.25)
        platform = runner.platform
        for instance in platform.all_instances():
            owners = [
                host.name
                for host in platform.hosts.values()
                if instance in host.instances
            ]
            assert owners == [instance.host_name]

    def test_virtual_ip_bindings_match_placements(self):
        runner, __ = run(Scenario.FULL_MOBILITY, 1.25)
        platform = runner.platform
        for instance in platform.all_instances():
            assert platform.fabric.host_of(instance.virtual_ip) == instance.host_name
        # stopped instances hold no bindings
        assert len(platform.fabric) == len(platform.all_instances())

    def test_memory_never_overcommitted(self):
        runner, __ = run(Scenario.FULL_MOBILITY, 1.35)
        platform = runner.platform
        for host in platform.hosts.values():
            assert host.memory_used_mb(platform.memory_of) <= host.spec.memory_mb

    def test_constraints_hold_after_controller_actions(self):
        runner, result = run(Scenario.FULL_MOBILITY, 1.30)
        platform = runner.platform
        assert result.actions  # the controller actually did something
        for definition in platform.services.values():
            constraints = definition.spec.constraints
            count = len(definition.running_instances)
            assert count >= constraints.min_instances
            if constraints.max_instances is not None:
                assert count <= constraints.max_instances
            for instance in definition.running_instances:
                host = platform.host(instance.host_name)
                assert (
                    host.performance_index >= constraints.min_performance_index
                )
                if constraints.exclusive:
                    assert host.service_names == [definition.name]


class TestActionPolicyEndToEnd:
    def test_static_scenario_never_changes_topology(self):
        runner, result = run(Scenario.STATIC, 1.30)
        assert result.actions == []
        placed = sorted(
            (i.service_name, i.host_name) for i in runner.platform.all_instances()
        )
        assert placed == sorted(paper_landscape().initial_allocation)

    def test_cm_scenario_only_scales_in_and_out(self):
        __, result = run(Scenario.CONSTRAINED_MOBILITY, 1.30)
        kinds = {a.action for a in result.actions}
        assert kinds <= {Action.SCALE_IN, Action.SCALE_OUT}

    def test_databases_never_touched_outside_bw(self):
        __, result = run(Scenario.FULL_MOBILITY, 1.35, horizon=MINUTES_PER_DAY)
        for action in result.actions:
            assert action.service_name not in ("DB-ERP", "DB-CRM")

    def test_audit_log_matches_result_actions(self):
        runner, result = run(Scenario.CONSTRAINED_MOBILITY, 1.30)
        assert result.actions == runner.platform.audit_log


class TestFuzzyPathCounters:
    def test_paper_landscape_runs_on_the_stacked_table_and_the_closed_form(self):
        """Tables 1 and 3 are all trapezoids and every rule asserts the one
        ramp: in a run, no term row leaves the stacked table, every output
        has the closed form, and a rule base is compiled once."""
        runner, __ = run(Scenario.FULL_MOBILITY, 1.15, horizon=60)
        controller = runner.controller
        action = controller.action_selector.fuzzy_stats
        server = controller.server_selector.fuzzy_stats
        for stats in (action, server):
            assert stats["batches"] > 0 and stats["contexts"] >= stats["batches"]
            assert stats["generic_terms"] == 0
        # the built-in landscape declares no service overrides
        assert 1 <= action["programs_compiled"] <= 4  # triggers
        assert 1 <= server["programs_compiled"] <= 5  # actions needing a host


class TestMonitoringEndToEnd:
    def test_archive_has_full_series_for_every_host(self):
        runner, result = run(Scenario.STATIC, 1.0, horizon=120)
        archive = runner.controller.archive
        for host_name in runner.platform.hosts:
            history = archive.history(host_name, "cpu")
            assert len(history) == 120

    def test_watchtime_mean_feeds_the_controller(self):
        """The cpuLoad the controller decides on is the archive's
        watch-time mean, not the instantaneous spike."""
        runner, result = run(Scenario.CONSTRAINED_MOBILITY, 1.30)
        for record in runner.controller.decision_records:
            if record.situation.kind.is_overload:
                # confirmed overload means the mean breached the threshold
                assert record.situation.observed_mean > 0.70

    def test_escalations_only_for_overloads(self):
        runner, __ = run(Scenario.CONSTRAINED_MOBILITY, 1.30)
        for alert in runner.controller.alerts.escalations():
            assert "Overloaded" in alert.message or "overload" in alert.message


class TestSemiAutomaticEndToEnd:
    def test_declined_actions_keep_topology(self):
        import dataclasses

        from repro.config.model import ControllerMode, ControllerSettings
        from repro.core.autoglobe import AutoGlobeController
        from repro.serviceglobe.platform import Platform
        from repro.sim.scenarios import apply_scenario
        from repro.sim.workload import WorkloadModel

        landscape = apply_scenario(paper_landscape(), Scenario.CONSTRAINED_MOBILITY)
        landscape = dataclasses.replace(
            landscape.scaled_users(1.30),
            controller=ControllerSettings(mode=ControllerMode.SEMI_AUTOMATIC),
        )
        platform = Platform(landscape)
        controller = AutoGlobeController(platform, confirm=lambda d: False)
        workload = WorkloadModel(platform, seed=13)
        workload.initialize()
        before = sorted(
            (i.service_name, i.host_name) for i in platform.all_instances()
        )
        for now in range(12 * 60, 12 * 60 + 300):
            workload.tick(now)
            controller.tick(now)
        after = sorted(
            (i.service_name, i.host_name) for i in platform.all_instances()
        )
        assert after == before
        assert any("declined" in a.message for a in controller.alerts.alerts)
