"""Tests for the simulation runner, result accounting and capacity search.

Full 80-hour runs live in the benchmarks; these tests use one simulated
day (or less) to stay fast.
"""

import numpy as np
import pytest

from repro.config.model import Action
from repro.sim.capacity import capacity_search
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.results import OverloadEpisode, SimulationResult, SlaPolicy
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario

ONE_DAY = MINUTES_PER_DAY


def run(scenario, factor=1.0, horizon=ONE_DAY, **kwargs):
    return SimulationRunner(
        scenario, user_factor=factor, horizon=horizon, seed=7, **kwargs
    ).run()


class TestRunner:
    def test_static_baseline_within_sla(self):
        result = run(Scenario.STATIC)
        assert not result.violates()
        assert result.actions == []

    def test_static_at_105_percent_overloaded(self):
        """'If we increase the number of users by 5%, the installation
        immediately becomes overloaded.'"""
        result = run(Scenario.STATIC, factor=1.05, collect_host_series=False)
        assert result.violates()

    def test_controller_acts_in_cm(self):
        result = run(Scenario.CONSTRAINED_MOBILITY, factor=1.15,
                     collect_host_series=False)
        kinds = {a.action for a in result.actions}
        assert kinds <= {Action.SCALE_IN, Action.SCALE_OUT}
        assert Action.SCALE_OUT in kinds

    def test_fm_uses_relocation_actions(self):
        result = run(Scenario.FULL_MOBILITY, factor=1.15,
                     collect_host_series=False)
        kinds = {a.action for a in result.actions}
        assert kinds & {Action.SCALE_UP, Action.SCALE_DOWN, Action.MOVE}

    def test_deterministic_given_seed(self):
        first = run(Scenario.CONSTRAINED_MOBILITY, factor=1.15, horizon=600)
        second = run(Scenario.CONSTRAINED_MOBILITY, factor=1.15, horizon=600)
        assert first.total_overload_minutes == second.total_overload_minutes
        assert [str(a) for a in first.actions] == [str(a) for a in second.actions]

    def test_host_series_collected(self):
        result = run(Scenario.STATIC, horizon=300)
        assert set(result.host_series) == set(result.host_names)
        assert all(len(s) == 300 for s in result.host_series.values())

    def test_series_collection_can_be_disabled(self):
        result = run(Scenario.STATIC, horizon=60, collect_host_series=False)
        assert result.host_series == {}
        with pytest.raises(ValueError):
            result.average_load_series()

    def test_service_samples_collected(self):
        result = run(Scenario.STATIC, horizon=60, collect_services={"FI"})
        samples = result.service_samples["FI"]
        assert len(samples) == 60 * 3  # 3 FI instances
        minute, instance_id, host, load = samples[0]
        assert instance_id.startswith("FI#")
        assert host in result.host_names
        assert 0.0 <= load <= 1.0

    def test_run_starts_at_noon_by_default(self):
        result = run(Scenario.STATIC, horizon=10)
        assert result.start_minute == 12 * 60

    def test_users_conserved_through_whole_run(self):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=ONE_DAY, seed=7
        )
        runner.run()
        # 15% more users than Table 4 (batch jobs unscaled)
        expected = round(600 * 1.15) + round(900 * 1.15) + round(450 * 1.15) + \
            round(300 * 1.15) + round(300 * 1.15) + 60
        assert runner.workload.total_users() == expected


class TestPersistentArchive:
    def test_runner_with_sqlite_archive(self, tmp_path):
        from repro.monitoring.archive import SqliteLoadArchive
        from repro.ops.store import read_store

        path = tmp_path / "run.db"
        with SqliteLoadArchive(path) as archive:
            runner = SimulationRunner(
                Scenario.CONSTRAINED_MOBILITY,
                user_factor=1.3,
                horizon=4 * 60,
                seed=7,
                collect_host_series=False,
                archive=archive,
                store_path=tmp_path / "store.db",
            )
            runner.run()
            archive.commit()
        with SqliteLoadArchive(path) as reopened:
            # measurements and service demand series persisted
            assert len(reopened.history("Blade1", "cpu")) == 4 * 60
            assert reopened.history("service:FI", "demand")
        # the administration events are the event log's queryable history
        __, events = read_store(tmp_path / "store.db")
        assert any(event.topic == "situations" for event in events)


class TestResultAccounting:
    def test_overload_episode_duration(self):
        episode = OverloadEpisode("Blade1", start=100, end=129)
        assert episode.duration == 30

    def test_overload_minutes_per_day_normalization(self):
        result = SimulationResult(
            scenario_name="x", user_factor=1.0, horizon=2 * ONE_DAY,
            host_names=["H"], overload_minutes_by_host={"H": 100},
        )
        assert result.overload_minutes_per_day == pytest.approx(50.0)

    def test_violates_on_budget(self):
        result = SimulationResult(
            scenario_name="x", user_factor=1.0, horizon=ONE_DAY,
            host_names=["H"], overload_minutes_by_host={"H": 500},
        )
        assert result.violates(SlaPolicy(max_overload_minutes_per_day=110))

    def test_violates_on_long_episode(self):
        result = SimulationResult(
            scenario_name="x", user_factor=1.0, horizon=ONE_DAY,
            host_names=["H"], overload_minutes_by_host={"H": 10},
            episodes=[OverloadEpisode("H", 0, 400)],
        )
        assert result.violates(SlaPolicy(max_episode_minutes=180))

    def test_average_load_series_is_mean_over_hosts(self):
        result = SimulationResult(
            scenario_name="x", user_factor=1.0, horizon=2,
            host_names=["A", "B"],
            host_series={"A": np.array([0.2, 0.4]), "B": np.array([0.6, 0.8])},
        )
        np.testing.assert_allclose(result.average_load_series(), [0.4, 0.6])

    def test_summary_mentions_key_figures(self):
        result = run(Scenario.STATIC, horizon=60)
        text = result.summary()
        assert "static" in text and "overload minutes/day" in text


class TestCapacitySearch:
    def test_sweep_stops_at_first_failure(self):
        # a harsh SLA makes even the reference load fail -> capacity 0
        result = capacity_search(
            Scenario.STATIC,
            horizon=ONE_DAY,
            sla=SlaPolicy(max_overload_minutes_per_day=0.0),
        )
        assert result.max_factor == 0.0
        assert len(result.steps) == 1
        assert not result.steps[0][1]

    def test_static_capacity_is_100_percent(self):
        """Table 7, static column (one-day horizon for speed)."""
        result = capacity_search(Scenario.STATIC, horizon=ONE_DAY)
        assert result.max_users_percent == 100
        assert len(result.steps) == 2  # 100% passes, 105% fails

    def test_summary_lists_each_step(self):
        result = capacity_search(
            Scenario.STATIC, horizon=ONE_DAY,
            sla=SlaPolicy(max_overload_minutes_per_day=0.0),
        )
        assert "OVERLOADED" in result.summary()

    def test_max_factor_bound_respected(self):
        result = capacity_search(
            Scenario.STATIC, horizon=200, start_factor=1.0, max_factor=1.05,
            sla=SlaPolicy(max_overload_minutes_per_day=10_000),
        )
        # both steps pass; the sweep stops at the bound
        assert result.max_factor == pytest.approx(1.05)
