"""Tests for simulated time and the daily load profiles (Figure 10)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import (
    MINUTES_PER_DAY,
    PAPER_HORIZON_MINUTES,
    format_minute,
    parse_clock_time,
)
from repro.sim.loadcurves import (
    available_profiles,
    profile_array,
    profile_value,
    register_profile,
)


class TestClock:
    def test_paper_horizon_is_80_hours(self):
        assert PAPER_HORIZON_MINUTES == 80 * 60

    def test_format_minute(self):
        assert format_minute(0) == "0 00:00"
        assert format_minute(8 * 60 + 5) == "0 08:05"
        assert format_minute(MINUTES_PER_DAY + 12 * 60) == "1 12:00"


class TestParseClockTime:
    def test_parses_valid_times(self):
        assert parse_clock_time("12:00") == 720
        assert parse_clock_time("00:00") == 0
        assert parse_clock_time("23:59") == 1439
        assert parse_clock_time(" 08:30 ") == 510

    @pytest.mark.parametrize(
        "text, match",
        [
            ("25:00", "hour must be 0-23"),
            ("12:60", "minute must be 0-59"),
            ("-1:30", "expected HH:MM"),
            ("noon", "expected HH:MM"),
            ("12", "expected HH:MM"),
            ("1:2:3", "expected HH:MM"),
        ],
    )
    def test_rejects_malformed_times(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_clock_time(text)


def minute(hours, minutes=0):
    return hours * 60 + minutes


class TestProfiles:
    def test_known_profiles_registered(self):
        names = available_profiles()
        for expected in ("les", "fi", "pp", "hr", "crm", "bw-batch", "flat"):
            assert expected in names

    def test_profiles_normalized_to_unit_peak(self):
        for name in ("les", "fi", "bw-batch"):
            values = profile_array(name)
            assert values.max() == pytest.approx(1.0)
            assert values.min() >= 0.0

    def test_les_three_workday_peaks(self):
        """Figure 10: LES peaks in the morning, before midday, and before
        the employees leave."""
        values = profile_array("les")
        morning = values[minute(8, 30):minute(10)].max()
        midday = values[minute(11):minute(12, 30)].max()
        evening = values[minute(15, 30):minute(17, 30)].max()
        lull_1 = values[minute(10):minute(11)].min()
        lull_2 = values[minute(13):minute(15)].min()
        assert morning > lull_1 and midday > lull_1
        assert midday > lull_2 and evening > lull_2

    def test_les_starts_at_eight(self):
        """'At eight o'clock, when the employees start to work, the number
        of requests [...] increases.'"""
        values = profile_array("les")
        assert values[minute(6)] < 0.10
        assert values[minute(9)] > 0.60

    def test_les_night_is_quiet(self):
        values = profile_array("les")
        assert values[minute(2)] < 0.08
        assert values[minute(23)] < 0.15

    def test_bw_batch_heavy_at_night(self):
        """Figure 10: BW processes heavy batch jobs during the night and
        only light aggregated-data requests during the day."""
        values = profile_array("bw-batch")
        assert values[minute(2)] > 0.85
        assert values[minute(4)] > 0.85
        assert values[minute(12)] < 0.25
        assert values[minute(12)] > 0.05

    def test_les_and_bw_are_complementary(self):
        """The controller exploits that interactive and batch peaks do not
        overlap."""
        les, bw = profile_array("les"), profile_array("bw-batch")
        overlap = np.minimum(les, bw)
        assert overlap.max() < 0.35

    def test_flat_profile(self):
        assert profile_value("flat", 0) == 1.0
        assert profile_value("flat", 12345) == 1.0

    def test_profile_value_wraps_across_days(self):
        assert profile_value("les", minute(9)) == profile_value(
            "les", MINUTES_PER_DAY * 2 + minute(9)
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown load profile"):
            profile_value("weekend", 0)

    def test_register_custom_profile(self):
        register_profile("test-spike", lambda m: 1.0 if 100 <= m <= 200 else 0.1)
        assert profile_value("test-spike", 150) == pytest.approx(1.0)
        assert profile_value("test-spike", 600) == pytest.approx(0.1)
        with pytest.raises(ValueError, match="already exists"):
            register_profile("test-spike", lambda m: 0.5)

    def test_profile_array_returns_copy(self):
        values = profile_array("les")
        values[:] = 0.0
        assert profile_array("les").max() == pytest.approx(1.0)

    @given(st.sampled_from(["les", "fi", "pp", "hr", "crm", "bw-batch"]),
           st.integers(min_value=0, max_value=3 * MINUTES_PER_DAY))
    def test_profile_values_in_unit_interval(self, name, minute_abs):
        assert 0.0 <= profile_value(name, minute_abs) <= 1.0
