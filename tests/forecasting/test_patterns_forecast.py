"""Tests for pattern extraction and the proactive (feed-forward) scaler."""

import math

import pytest

from repro.forecasting.forecast import LoadForecaster, ProactiveScaler
from repro.forecasting.patterns import extract_daily_pattern
from repro.monitoring.archive import InMemoryLoadArchive
from repro.sim.clock import MINUTES_PER_DAY
from tests.monitoring.batches import record


def sinusoidal_history(days=3, amplitude=0.4, base=0.5, noise=None):
    history = []
    for minute in range(days * MINUTES_PER_DAY):
        phase = 2 * math.pi * (minute % MINUTES_PER_DAY) / MINUTES_PER_DAY
        value = base + amplitude * math.sin(phase)
        if noise is not None:
            value += noise(minute)
        history.append((minute, max(0.0, min(1.0, value))))
    return history


class TestPatternExtraction:
    def test_strongly_periodic_history(self):
        pattern = extract_daily_pattern(sinusoidal_history())
        assert pattern.periodicity > 0.95
        assert pattern.buckets == MINUTES_PER_DAY // 15

    def test_pattern_recovers_daily_shape(self):
        pattern = extract_daily_pattern(sinusoidal_history())
        # the sine peaks a quarter into the day
        peak_minute, peak_value = pattern.peak()
        assert abs(peak_minute - MINUTES_PER_DAY // 4) <= 30
        assert peak_value == pytest.approx(0.9, abs=0.05)

    def test_value_at_folds_minutes(self):
        pattern = extract_daily_pattern(sinusoidal_history())
        assert pattern.value_at(100) == pattern.value_at(100 + 2 * MINUTES_PER_DAY)

    def test_aperiodic_history_scores_low(self):
        # deterministic pseudo-noise, no daily structure
        history = [
            (m, 0.5 + 0.4 * math.sin(m * 0.7918)) for m in range(3 * MINUTES_PER_DAY)
        ]
        pattern = extract_daily_pattern(history)
        assert pattern.periodicity < 0.3

    def test_constant_history_has_zero_periodicity(self):
        history = [(m, 0.5) for m in range(MINUTES_PER_DAY)]
        assert extract_daily_pattern(history).periodicity == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_daily_pattern([])

    def test_bad_bucket_width_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            extract_daily_pattern([(0, 0.5)], bucket_minutes=7)

    def test_unobserved_buckets_inherit_global_mean(self):
        # only the first hour of the day was ever observed
        history = [(m, 0.8) for m in range(60)]
        pattern = extract_daily_pattern(history)
        assert pattern.value_at(12 * 60) == pytest.approx(0.8)


class TestForecaster:
    def _loaded_archive(self, days=2):
        archive = InMemoryLoadArchive()
        for minute, value in sinusoidal_history(days=days):
            record(archive, [("Blade1", "cpu", minute, value)])
        return archive

    def test_predict_after_refit(self):
        archive = self._loaded_archive()
        forecaster = LoadForecaster(archive)
        assert forecaster.predict("Blade1", 100) is None  # not fitted yet
        pattern = forecaster.refit("Blade1", 2 * MINUTES_PER_DAY)
        assert pattern is not None
        predicted = forecaster.predict("Blade1", MINUTES_PER_DAY // 4)
        assert predicted == pytest.approx(0.9, abs=0.05)

    def test_insufficient_history_refuses_to_fit(self):
        archive = InMemoryLoadArchive()
        for minute in range(100):
            record(archive, [("Blade1", "cpu", minute, 0.5)])
        forecaster = LoadForecaster(archive)
        assert forecaster.refit("Blade1", 100) is None

    def test_unreliable_pattern_yields_no_prediction(self):
        archive = InMemoryLoadArchive()
        for minute in range(2 * MINUTES_PER_DAY):
            value = 0.5 + 0.4 * math.sin(minute * 0.7918)
            record(archive, [("Blade1", "cpu", minute, value)])
        forecaster = LoadForecaster(archive, min_periodicity=0.5)
        forecaster.refit("Blade1", 2 * MINUTES_PER_DAY)
        assert forecaster.predict("Blade1", 100) is None

    def test_predict_window(self):
        archive = self._loaded_archive()
        forecaster = LoadForecaster(archive)
        forecaster.refit("Blade1", 2 * MINUTES_PER_DAY)
        window = forecaster.predict_window("Blade1", 0, 30)
        assert len(window) == 30


class TestProactiveScaler:
    def test_anticipates_recurring_morning_overload(self):
        """After observing a periodic overload for two days, the scaler
        acts before the third day's breach."""
        from repro.config.model import Action
        from repro.core.autoglobe import AutoGlobeController
        from repro.serviceglobe.platform import Platform
        from tests.core.conftest import build_landscape

        platform = Platform(build_landscape())
        controller = AutoGlobeController(platform)
        controller.enabled = False  # isolate the proactive path
        scaler = ProactiveScaler(controller, lookahead=30, refit_interval=MINUTES_PER_DAY)

        def demand_at(minute):
            # daily 2-hour overload block starting at 9:00
            of_day = minute % MINUTES_PER_DAY
            return 0.95 if 9 * 60 <= of_day < 11 * 60 else 0.2

        acted_at = None
        for now in range(0, 2 * MINUTES_PER_DAY + 10 * 60):
            for instance in platform.service("APP").running_instances:
                instance.demand = demand_at(now) * platform.host(
                    instance.host_name
                ).cpu_capacity / max(
                    len(platform.host(instance.host_name).running_instances), 1
                )
            controller.tick(now)
            outcomes = scaler.tick(now)
            if outcomes and acted_at is None:
                acted_at = now
        assert acted_at is not None
        # the action happened on a later day, BEFORE the 9:00 breach
        minute_of_day = acted_at % MINUTES_PER_DAY
        assert acted_at >= MINUTES_PER_DAY  # needs at least a day of history
        assert minute_of_day < 9 * 60
        assert minute_of_day >= 9 * 60 - scaler.lookahead

    def test_no_action_without_history(self):
        from repro.core.autoglobe import AutoGlobeController
        from repro.serviceglobe.platform import Platform
        from tests.core.conftest import build_landscape

        platform = Platform(build_landscape())
        controller = AutoGlobeController(platform)
        scaler = ProactiveScaler(controller)
        for now in range(60):
            controller.tick(now)
            assert scaler.tick(now) == []
