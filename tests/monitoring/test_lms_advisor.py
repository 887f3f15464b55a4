"""Tests for monitors, advisors and the load monitoring system together.

These pin the paper's watch-time semantics: a threshold crossing only
becomes a real situation if the *average* load during the watch time
stays beyond the threshold, so short load peaks are filtered out.
"""

import pytest

from repro.monitoring.advisor import Advisor, SubjectKind
from repro.monitoring.archive import InMemoryLoadArchive
from repro.monitoring.lms import LoadMonitoringSystem, SituationKind
from repro.monitoring.monitor import LoadMonitor


class Dial:
    """The load the next pushed measurement carries."""

    def __init__(self, value=0.0):
        self.value = value


def make_stack(
    subject_kind=SubjectKind.SERVER,
    overload_threshold=0.7,
    idle_threshold=0.125,
    overload_watch=10,
    idle_watch=20,
    service_name=None,
):
    dial = Dial()
    lms = LoadMonitoringSystem()
    monitor = LoadMonitor("Blade1" if service_name is None else f"{service_name}#1",
                          "cpu")
    advisor = Advisor(
        monitor,
        subject_kind,
        lms,
        overload_threshold=overload_threshold,
        idle_threshold=idle_threshold,
        overload_watch_time=overload_watch,
        idle_watch_time=idle_watch,
        service_name=service_name,
    )
    return dial, monitor, advisor, lms


def run_minutes(dial, monitor, advisor, lms, loads, start=0):
    """Feed a load sequence through the stack; return all confirmed situations."""
    situations = []
    for offset, load in enumerate(loads):
        now = start + offset
        dial.value = load
        monitor.push(now, dial.value)
        advisor.inspect(now)
        situations.extend(lms.tick(now))
    return situations


class TestOverloadDetection:
    def test_sustained_overload_confirmed_after_watchtime(self):
        dial, monitor, advisor, lms = make_stack()
        situations = run_minutes(dial, monitor, advisor, lms, [0.9] * 12)
        assert len(situations) == 1
        situation = situations[0]
        assert situation.kind is SituationKind.SERVER_OVERLOADED
        assert situation.subject == "Blade1"
        assert situation.detected_at == 9  # watch covers minutes 0..9
        assert situation.observed_mean == pytest.approx(0.9)

    def test_short_peak_filtered_out(self):
        """A 3-minute burst must not trigger the controller."""
        dial, monitor, advisor, lms = make_stack()
        loads = [0.9, 0.9, 0.9] + [0.3] * 15
        situations = run_minutes(dial, monitor, advisor, lms, loads)
        assert situations == []

    def test_mean_just_below_threshold_not_confirmed(self):
        dial, monitor, advisor, lms = make_stack()
        # spike opens the observation, but the watch-time mean is ~0.45
        loads = [0.75] + [0.4] * 11
        situations = run_minutes(dial, monitor, advisor, lms, loads)
        assert situations == []

    def test_retrigger_after_discarded_observation(self):
        """After a discarded peak, a later real overload is still detected."""
        dial, monitor, advisor, lms = make_stack()
        loads = [0.9, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3] + [0.9] * 10
        situations = run_minutes(dial, monitor, advisor, lms, loads)
        assert len(situations) == 1
        assert situations[0].detected_at == 19

    def test_no_duplicate_observation_while_watching(self):
        dial, monitor, advisor, lms = make_stack()
        dial.value = 0.9
        monitor.push(0, dial.value)
        advisor.inspect(0)
        monitor.push(1, dial.value)
        advisor.inspect(1)
        assert len(lms.active_observations) == 1

    def test_service_kind_trigger(self):
        dial, monitor, advisor, lms = make_stack(
            subject_kind=SubjectKind.SERVICE_INSTANCE, service_name="FI"
        )
        situations = run_minutes(dial, monitor, advisor, lms, [0.95] * 10)
        assert situations[0].kind is SituationKind.SERVICE_OVERLOADED
        assert situations[0].service_name == "FI"
        assert situations[0].subject == "FI#1"


class TestIdleDetection:
    def test_sustained_idle_confirmed_after_idle_watchtime(self):
        dial, monitor, advisor, lms = make_stack()
        situations = run_minutes(dial, monitor, advisor, lms, [0.05] * 25)
        assert len(situations) == 1
        assert situations[0].kind is SituationKind.SERVER_IDLE
        assert situations[0].detected_at == 19  # idle watch is 20 minutes

    def test_idle_threshold_scaled_by_performance_index(self):
        """A PI=2 server is idle below 6.25%, not below 12.5%."""
        dial, monitor, advisor, lms = make_stack(idle_threshold=0.125 / 2)
        situations = run_minutes(dial, monitor, advisor, lms, [0.08] * 30)
        assert situations == []

    def test_busy_middle_cancels_idle(self):
        dial, monitor, advisor, lms = make_stack()
        loads = [0.05] * 5 + [0.6] * 20
        situations = run_minutes(dial, monitor, advisor, lms, loads)
        assert situations == []


class TestAdvisorValidation:
    def test_idle_above_overload_rejected(self):
        with pytest.raises(ValueError, match="below"):
            make_stack(overload_threshold=0.1, idle_threshold=0.5)

    def test_service_advisor_needs_service_name(self):
        lms = LoadMonitoringSystem()
        monitor = LoadMonitor("X#1", "cpu")
        with pytest.raises(ValueError, match="service name"):
            Advisor(
                monitor,
                SubjectKind.SERVICE_INSTANCE,
                lms,
                overload_threshold=0.7,
                idle_threshold=0.1,
                overload_watch_time=10,
                idle_watch_time=20,
            )


class TestMonitorArchiveIntegration:
    def test_samples_flow_into_archive(self):
        archive = InMemoryLoadArchive()
        dial = Dial(0.42)
        monitor = LoadMonitor("Blade1", "cpu", archive=archive)
        for t in range(5):
            monitor.push(t, dial.value)
        assert archive.average("Blade1", "cpu", 0, 4) == pytest.approx(0.42)

    def test_lms_cancel(self):
        dial, monitor, advisor, lms = make_stack()
        dial.value = 0.9
        monitor.push(0, dial.value)
        advisor.inspect(0)
        assert lms.observing("Blade1", SituationKind.SERVER_OVERLOADED)
        lms.cancel("Blade1", SituationKind.SERVER_OVERLOADED)
        assert not lms.observing("Blade1", SituationKind.SERVER_OVERLOADED)

    def test_situation_str(self):
        dial, monitor, advisor, lms = make_stack()
        situations = run_minutes(dial, monitor, advisor, lms, [0.9] * 10)
        text = str(situations[0])
        assert "serverOverloaded" in text and "Blade1" in text
