"""Tests for migrating a running platform to a designed allocation."""

import pytest

from repro.allocation.designer import LandscapeDesigner
from repro.allocation.migration import Migrator
from repro.config.builtin import paper_landscape
from repro.serviceglobe.platform import Platform
from repro.sim.scenarios import Scenario, scenario_landscape


def current_allocation(platform):
    return sorted(
        (i.service_name, i.host_name) for i in platform.all_instances()
    )


@pytest.fixture
def platform():
    return Platform(scenario_landscape(paper_landscape(), Scenario.STATIC, 1.0))


class TestPlanning:
    def test_noop_plan_for_identical_target(self, platform):
        migrator = Migrator(platform)
        plan = migrator.plan(paper_landscape().initial_allocation)
        assert plan.is_noop
        assert "nothing to do" in str(plan)

    def test_relocation_planned_as_move(self, platform):
        migrator = Migrator(platform)
        target = [
            pair for pair in paper_landscape().initial_allocation
            if pair != ("FI", "Blade3")
        ] + [("FI", "Blade4")]
        plan = migrator.plan(target)
        assert [str(s) for s in plan.moves] == ["move FI Blade3 -> Blade4"]
        assert plan.starts == [] and plan.stops == []

    def test_growth_planned_as_start(self, platform):
        migrator = Migrator(platform)
        target = paper_landscape().initial_allocation + [("FI", "Blade4")]
        plan = migrator.plan(target)
        assert [str(s) for s in plan.starts] == ["start FI on Blade4"]
        assert plan.moves == [] and plan.stops == []

    def test_shrink_planned_as_stop(self, platform):
        migrator = Migrator(platform)
        target = [
            pair for pair in paper_landscape().initial_allocation
            if pair != ("FI", "Blade3")
        ]
        plan = migrator.plan(target)
        assert [str(s) for s in plan.stops] == ["stop FI on Blade3"]
        assert plan.moves == [] and plan.starts == []

    def test_unknown_service_rejected(self, platform):
        with pytest.raises(Exception):
            Migrator(platform).plan([("GHOST", "Blade1")])


class TestExecution:
    def test_migrate_to_designed_allocation(self, platform):
        """The headline use case: carry the running Figure-11 installation
        over to the landscape designer's optimized assignment."""
        designed = LandscapeDesigner(platform.landscape).design()
        migrator = Migrator(platform)
        plan = migrator.migrate(designed.assignment)
        assert not plan.is_noop
        assert current_allocation(platform) == sorted(designed.assignment)

    def test_users_survive_migration(self, platform):
        platform.dispatcher.place_users(
            platform.service("FI").running_instances, 600
        )
        designed = LandscapeDesigner(platform.landscape).design()
        Migrator(platform).migrate(designed.assignment)
        assert platform.service("FI").total_users == 600

    def test_migration_is_idempotent(self, platform):
        designed = LandscapeDesigner(platform.landscape).design()
        migrator = Migrator(platform)
        migrator.migrate(designed.assignment)
        second = migrator.migrate(designed.assignment)
        assert second.is_noop

    def test_failed_migration_rolls_back(self, platform):
        before = current_allocation(platform)
        # DB-ERP onto a weak blade violates its minimum performance index
        bad_target = [
            pair for pair in paper_landscape().initial_allocation
            if pair[0] != "DB-ERP"
        ] + [("DB-ERP", "Blade1")]
        with pytest.raises(Exception):
            Migrator(platform).migrate(bad_target)
        assert current_allocation(platform) == before

    def test_migration_respects_physical_constraints(self, platform):
        designed = LandscapeDesigner(platform.landscape).design()
        Migrator(platform).migrate(designed.assignment)
        for host in platform.hosts.values():
            assert host.memory_used_mb(platform.memory_of) <= host.spec.memory_mb
