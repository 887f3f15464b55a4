"""Tests for the landscape model dataclasses."""

import pytest

from repro.config.model import (
    Action,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.sim.scenarios import Scenario, scenario_landscape


class TestAction:
    def test_all_nine_actions_of_table2(self):
        assert {a.value for a in Action} == {
            "start",
            "stop",
            "scaleIn",
            "scaleOut",
            "scaleUp",
            "scaleDown",
            "move",
            "increasePriority",
            "reducePriority",
        }

    def test_from_name(self):
        assert Action.from_name("scaleOut") is Action.SCALE_OUT

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="unknown action"):
            Action.from_name("explode")

    def test_targeted_actions_need_host(self):
        assert Action.SCALE_OUT.needs_target_host
        assert Action.SCALE_UP.needs_target_host
        assert Action.MOVE.needs_target_host
        assert Action.START.needs_target_host
        assert not Action.STOP.needs_target_host
        assert not Action.SCALE_IN.needs_target_host
        assert not Action.INCREASE_PRIORITY.needs_target_host


class TestServerSpec:
    def test_valid_server(self):
        server = ServerSpec("Blade1", performance_index=1.0)
        assert server.name == "Blade1"

    def test_nonpositive_performance_index_rejected(self):
        with pytest.raises(ValueError, match="performance index"):
            ServerSpec("X", performance_index=0.0)

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError, match="CPU"):
            ServerSpec("X", performance_index=1.0, num_cpus=0)

    def test_zero_memory_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            ServerSpec("X", performance_index=1.0, memory_mb=0)


class TestServiceConstraints:
    def test_defaults_allow_nothing(self):
        constraints = ServiceConstraints()
        assert not constraints.allows(Action.SCALE_OUT)

    def test_allows(self):
        constraints = ServiceConstraints(
            allowed_actions=frozenset({Action.SCALE_IN, Action.SCALE_OUT})
        )
        assert constraints.allows(Action.SCALE_OUT)
        assert not constraints.allows(Action.MOVE)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_instances"):
            ServiceConstraints(min_instances=3, max_instances=2)

    def test_negative_min_rejected(self):
        with pytest.raises(ValueError):
            ServiceConstraints(min_instances=-1)


class TestControllerSettings:
    def test_paper_defaults(self):
        """Section 5.1: 70% overload, 10 min watch, 30 min protection,
        idle threshold 12.5% / performance index, 20 min idle watch."""
        settings = ControllerSettings()
        assert settings.overload_threshold == pytest.approx(0.70)
        assert settings.overload_watch_time == 10
        assert settings.idle_watch_time == 20
        assert settings.protection_time == 30

    def test_idle_threshold_scales_with_performance_index(self):
        settings = ControllerSettings()
        assert settings.idle_threshold(1.0) == pytest.approx(0.125)
        assert settings.idle_threshold(2.0) == pytest.approx(0.0625)
        assert settings.idle_threshold(9.0) == pytest.approx(0.125 / 9)

    def test_idle_threshold_rejects_bad_index(self):
        with pytest.raises(ValueError):
            ControllerSettings().idle_threshold(0.0)


class TestServiceSpec:
    def test_interactive_flag(self):
        interactive = ServiceSpec("FI", workload=WorkloadSpec(batch=False))
        batch = ServiceSpec("BW", workload=WorkloadSpec(batch=True))
        assert interactive.interactive
        assert not batch.interactive

    def test_with_users(self):
        service = ServiceSpec("FI", workload=WorkloadSpec(users=600))
        scaled = service.with_users(690)
        assert scaled.workload.users == 690
        assert service.workload.users == 600  # original untouched


class TestLandscapeSpec:
    def _landscape(self):
        return LandscapeSpec(
            name="test",
            servers=[ServerSpec("H1", 1.0), ServerSpec("H2", 2.0)],
            services=[
                ServiceSpec("A", workload=WorkloadSpec(users=100)),
                ServiceSpec("B", workload=WorkloadSpec(users=60, batch=True,
                                                       load_per_user=0.01)),
            ],
            initial_allocation=[("A", "H1"), ("A", "H2"), ("B", "H2")],
        )

    def test_lookup(self):
        landscape = self._landscape()
        assert landscape.server("H1").performance_index == 1.0
        assert landscape.service("A").workload.users == 100

    def test_lookup_unknown_raises(self):
        landscape = self._landscape()
        with pytest.raises(KeyError, match="no server"):
            landscape.server("H9")
        with pytest.raises(KeyError, match="no service"):
            landscape.service("Z")

    def test_instance_hosts(self):
        assert self._landscape().instance_hosts() == {"A": ["H1", "H2"], "B": ["H2"]}

    def test_scaled_users_scales_interactive_users(self):
        scaled = scenario_landscape(self._landscape(), Scenario.STATIC, 1.15)
        assert scaled.service("A").workload.users == 115

    def test_scaled_users_scales_batch_load_not_jobs(self):
        """Section 5.1: for BW 'we increase the load per batch job by 5%
        and leave the number of jobs constant'."""
        scaled = scenario_landscape(self._landscape(), Scenario.STATIC, 1.05)
        batch = scaled.service("B").workload
        assert batch.users == 60
        assert batch.load_per_user == pytest.approx(0.0105)

    def test_scaled_users_leaves_original_untouched(self):
        landscape = self._landscape()
        scenario_landscape(landscape, Scenario.STATIC, 2.0)
        assert landscape.service("A").workload.users == 100
