"""Tests pinning the scenario definitions to Tables 5 and 6."""

import pytest

from repro.config.builtin import paper_landscape, replicated_landscape
from repro.config.model import Action
from repro.serviceglobe.dispatcher import UserDistribution
from repro.sim.scenarios import (
    Scenario,
    controller_enabled_for,
    scenario_landscape,
    user_distribution_for,
)
from tests.sim.intake_oracle import apply_scenario, scaled_users


@pytest.fixture(scope="module")
def base():
    return paper_landscape()


class TestStatic:
    def test_no_actions_anywhere(self, base):
        landscape = scenario_landscape(base, Scenario.STATIC, 1.0)
        for service in landscape.services:
            assert service.constraints.allowed_actions == frozenset()

    def test_controller_disabled(self):
        assert not controller_enabled_for(Scenario.STATIC)

    def test_sticky_users(self):
        assert user_distribution_for(Scenario.STATIC) is UserDistribution.STICKY


class TestConstrainedMobility:
    """Table 5: databases and central instances static; application
    servers support scale-in and scale-out."""

    def test_application_servers_scale_in_out_only(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        for name in ("FI", "LES", "PP", "HR", "CRM", "BW"):
            allowed = landscape.service(name).constraints.allowed_actions
            assert allowed == frozenset({Action.SCALE_IN, Action.SCALE_OUT})

    def test_databases_static(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        for name in ("DB-ERP", "DB-CRM", "DB-BW"):
            assert landscape.service(name).constraints.allowed_actions == frozenset()

    def test_central_instances_static(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        for name in ("CI-ERP", "CI-CRM", "CI-BW"):
            assert landscape.service(name).constraints.allowed_actions == frozenset()

    def test_min_2_fi_and_les_instances(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        assert landscape.service("FI").constraints.min_instances == 2
        assert landscape.service("LES").constraints.min_instances == 2

    def test_erp_database_stays_exclusive(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        assert landscape.service("DB-ERP").constraints.exclusive

    def test_sticky_users_with_fluctuation(self):
        assert (
            user_distribution_for(Scenario.CONSTRAINED_MOBILITY)
            is UserDistribution.STICKY
        )

    def test_controller_enabled(self):
        assert controller_enabled_for(Scenario.CONSTRAINED_MOBILITY)


class TestFullMobility:
    """Table 6: BW database distributable; central instances movable;
    application servers fully mobile; users dynamically redistributed."""

    def test_application_servers_fully_mobile(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        expected = frozenset(
            {
                Action.SCALE_IN,
                Action.SCALE_OUT,
                Action.SCALE_UP,
                Action.SCALE_DOWN,
                Action.MOVE,
            }
        )
        for name in ("FI", "LES", "PP", "HR", "CRM", "BW"):
            assert landscape.service(name).constraints.allowed_actions == expected

    def test_bw_database_distributable(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        bw_db = landscape.service("DB-BW")
        assert bw_db.constraints.allowed_actions == frozenset(
            {Action.SCALE_IN, Action.SCALE_OUT}
        )
        assert bw_db.constraints.max_instances > 1

    def test_other_databases_still_static(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        assert landscape.service("DB-ERP").constraints.allowed_actions == frozenset()
        assert landscape.service("DB-CRM").constraints.allowed_actions == frozenset()

    def test_central_instances_movable(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        for name in ("CI-ERP", "CI-CRM", "CI-BW"):
            allowed = landscape.service(name).constraints.allowed_actions
            assert allowed == frozenset(
                {Action.SCALE_UP, Action.SCALE_DOWN, Action.MOVE}
            )

    def test_dynamic_user_redistribution(self):
        assert (
            user_distribution_for(Scenario.FULL_MOBILITY)
            is UserDistribution.REDISTRIBUTE
        )

    def test_min_performance_index_preserved(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        for name in ("DB-ERP", "DB-CRM", "DB-BW"):
            assert landscape.service(name).constraints.min_performance_index == 5.0


class TestScenarioApplication:
    def test_base_landscape_untouched(self, base):
        scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        for service in base.services:
            assert service.constraints.allowed_actions == frozenset()

    def test_scenario_suffix_in_name(self, base):
        landscape = scenario_landscape(base, Scenario.FULL_MOBILITY, 1.0)
        assert landscape.name.endswith("full-mobility")

    def test_allocation_preserved(self, base):
        landscape = scenario_landscape(base, Scenario.CONSTRAINED_MOBILITY, 1.0)
        assert landscape.initial_allocation == base.initial_allocation


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("factor", [1.0, 1.15, 0.85, 2.0])
def test_one_copy_equals_the_two_step_intake(scenario, factor):
    """Scenario and user factor applied in one copy per service build the
    landscape the two copies built."""
    for landscape in (paper_landscape(), replicated_landscape(2)):
        assert scenario_landscape(landscape, scenario, factor) == scaled_users(
            apply_scenario(landscape, scenario), factor
        )
