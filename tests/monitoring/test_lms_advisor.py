"""Tests for monitors, advisors and the load monitoring system together.

These pin the paper's watch-time semantics: a threshold crossing only
becomes a real situation if the *average* load during the watch time
stays beyond the threshold, so short load peaks are filtered out.  The
watch windows are read from the load archive, which a monitor's sample
reaches once a minute in the controller's report batch.  The monitor
and advisor are the oracle's (the controller's threshold pass replaced
them; ``tests/core/test_threshold_pass.py`` holds the two equal).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.archive import InMemoryLoadArchive, SqliteLoadArchive
from repro.monitoring.lms import LoadMonitoringSystem, SituationKind
from tests.monitoring.advisor_oracle import Advisor, LoadMonitor, SubjectKind
from tests.monitoring.batches import record


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
    lms.archive = InMemoryLoadArchive()
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


def report(monitor, archive, now):
    """The controller's per-tick batch: the monitor's sample of minute
    ``now`` into the archive, nothing when its report was lost."""
    if monitor.latest_time == now:
        record(archive, [(monitor.subject, monitor.metric, now, monitor.latest)])


def run_minutes(dial, monitor, advisor, lms, loads, start=0):
    """Feed a load sequence through the stack; return all confirmed situations.

    A load of ``None`` is a minute whose report was lost.
    """
    situations = []
    for offset, load in enumerate(loads):
        now = start + offset
        if load is None:
            monitor.mark_dropped(now)
        else:
            dial.value = load
            monitor.push(now, dial.value)
        report(monitor, lms.archive, now)
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
        assert len(lms.snapshot_state()) == 1

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


class TestLoadMonitor:
    def test_record_and_latest(self):
        monitor = LoadMonitor("Blade1", "cpu")
        monitor.push(0, 0.5)
        monitor.push(1, 0.7)
        assert (monitor.latest_time, monitor.latest) == (1, 0.7)

    def test_empty_series(self):
        monitor = LoadMonitor("Blade1", "cpu")
        assert monitor.latest is None
        assert monitor.latest_time is None

    def test_non_monotone_time_rejected(self):
        monitor = LoadMonitor("Blade1", "cpu")
        monitor.push(5, 0.5)
        with pytest.raises(ValueError, match="not after"):
            monitor.push(5, 0.6)
        with pytest.raises(ValueError, match="not after"):
            monitor.push(4, 0.6)
        assert (monitor.latest_time, monitor.latest) == (5, 0.5)

    def test_a_dropped_report_keeps_the_last_sample(self):
        monitor = LoadMonitor("Blade1", "cpu")
        monitor.push(0, 0.2)
        monitor.mark_dropped(1)
        assert (monitor.latest_time, monitor.latest) == (0, 0.2)
        assert monitor.dropped_reports == 1


class TestMonitorArchiveIntegration:
    def test_samples_flow_into_archive(self):
        dial, monitor, advisor, lms = make_stack()
        run_minutes(dial, monitor, advisor, lms, [0.42] * 5)
        assert lms.archive.average("Blade1", "cpu", 0, 4) == pytest.approx(0.42)

    def test_lms_cancel(self):
        dial, monitor, advisor, lms = make_stack()
        dial.value = 0.9
        monitor.push(0, dial.value)
        advisor.inspect(0)
        [descriptor] = lms.snapshot_state()
        assert (descriptor["subject"], descriptor["kind"]) == (
            "Blade1", SituationKind.SERVER_OVERLOADED.value
        )
        assert lms.cancel_subject("Blade1", now=1) == 1
        assert lms.snapshot_state() == []
        assert lms.cancel_subject("Blade1", now=1) == 0

    def test_situation_str(self):
        dial, monitor, advisor, lms = make_stack()
        situations = run_minutes(dial, monitor, advisor, lms, [0.9] * 10)
        text = str(situations[0])
        assert "serverOverloaded" in text and "Blade1" in text


def observe(archive, loads, started_at, watch_time):
    """Feed ``loads`` (``None`` = a lost report) through a monitor into
    ``archive`` and watch it from ``started_at`` until due, under a
    threshold every mean is above, so the coverage gate alone decides.

    Returns the confirmed mean (``None`` if nothing was confirmed) and
    the observation's journal descriptor.
    """
    monitor = LoadMonitor("Blade1", "cpu")
    lms = LoadMonitoringSystem()
    lms.archive = archive
    situations = []
    for now, load in enumerate(loads[: started_at + watch_time]):
        if load is None:
            monitor.mark_dropped(now)
        else:
            monitor.push(now, load)
        report(monitor, archive, now)
        if now == started_at:
            lms.open_observation(
                kind=SituationKind.SERVER_OVERLOADED,
                subject=monitor.subject,
                metric=monitor.metric,
                threshold=-1.0,
                now=now,
                watch_time=watch_time,
            )
            (descriptor,) = lms.snapshot_state()
        situations.extend(lms.tick(now))
    assert len(situations) <= 1 and not lms.snapshot_state()
    return (situations[0].observed_mean if situations else None), descriptor


class TestWatchWindows:
    """The LMS's watch window is the archive's ``[started_at, now]``."""

    @staticmethod
    def _confirm(loads, started_at, watch_time):
        return observe(InMemoryLoadArchive(), loads, started_at, watch_time)[0]

    def test_watchtime_semantics(self):
        """A 10-minute watch starting at t=100 covers samples 100..109."""
        loads = [1.0 if 100 <= t <= 109 else 0.0 for t in range(115)]
        assert self._confirm(loads, 100, 10) == 1.0

    def test_window_boundaries_are_inclusive(self):
        loads = [(t - 10) / 10 if t >= 10 else 5.0 for t in range(20)]
        assert self._confirm(loads, 12, 3) == pytest.approx(0.3)
        assert self._confirm(loads, 12, 1) == pytest.approx(0.2)
        # a sample just before the window is not in it
        assert self._confirm(loads, 10, 2) == pytest.approx(0.05)

    def test_gap_in_samples_shrinks_the_window_mean(self):
        # minutes 2..3 lost (monitoring outage): the gap is no zero load
        loads = [0.2, 0.4, None, None, 0.9, 0.5]
        assert self._confirm(loads, 0, 6) == pytest.approx(
            (0.2 + 0.4 + 0.9 + 0.5) / 4
        )

    def test_mark_dropped_accounts_for_lost_reports(self):
        """Half the window's minutes backed by samples still confirms;
        fewer does not."""
        assert self._confirm([0.9, None, 0.9, None], 0, 4) == 0.9
        assert self._confirm([0.9, None, None, 0.9, None], 0, 5) is None

    def test_empty_window_means_are_none(self):
        assert self._confirm([None] * 12, 0, 10) is None
        assert self._confirm([0.9] * 3 + [None] * 12, 3, 10) is None

    def test_mean_between(self):
        """The mean sums newest first, the order the seeded digests pin."""
        loads = [0.1, 0.2, 0.3]
        assert self._confirm(loads, 0, 3) == ((0.3 + 0.2) + 0.1) / 3
        assert self._confirm(loads, 0, 3) != ((0.1 + 0.2) + 0.3) / 3


def reference(loads, start, end):
    """The deleted per-monitor series' arithmetic: the samples of
    ``[start, end]`` summed newest first, behind the >= 0.5 coverage
    gate; the mean's ``float.hex()``, or ``None``."""
    window = [load for load in loads[start : end + 1] if load is not None]
    if not window or len(window) / (end - start + 1) < 0.5:
        return None
    total = 0.0
    for value in reversed(window):
        total += value
    return (total / len(window)).hex()


@st.composite
def watched_streams(draw):
    """A per-minute load stream with lost reports, an observation, and
    the minute a resume rewinds the archive to."""
    loads = draw(st.lists(
        st.one_of(st.none(), st.floats(0.0, 1.5, allow_nan=False)),
        min_size=1, max_size=40,
    ))
    started_at = draw(st.integers(0, len(loads) - 1))
    watch_time = draw(st.integers(1, len(loads) - started_at))
    rewind = draw(st.integers(-1, len(loads) - 1))
    return loads, started_at, watch_time, rewind


def _hex(mean):
    return None if mean is None else mean.hex()


def revive(archive, descriptor, due):
    """Revive a journaled observation in a fresh LMS over ``archive``
    and tick it at ``due``: the confirmed mean's hex, or ``None``."""
    lms = LoadMonitoringSystem()
    lms.archive = archive
    lms.restore_observation(descriptor)
    revived = lms.tick(due)
    return _hex(revived[0].observed_mean if revived else None)


class _Abort(Exception):
    pass


class TestWatchWindowOracle:
    @settings(max_examples=80, deadline=None)
    @given(watched_streams())
    def test_the_archive_window_is_the_series_window(self, drawn):
        """Both archives confirm the reference's mean, bit for bit, and
        its coverage verdict; SQLite again after the resume rewind."""
        loads, started_at, watch_time, rewind = drawn
        due = started_at + watch_time - 1
        expected = reference(loads, started_at, due)
        assert _hex(observe(InMemoryLoadArchive(), *drawn[:3])[0]) == expected
        with SqliteLoadArchive(":memory:") as archive:
            observed, descriptor = observe(archive, *drawn[:3])
            assert _hex(observed) == expected
            # the resume rewind: cut back to minute ``rewind``, report the
            # minutes after it again, and revive the observation in a
            # fresh LMS
            archive.truncate_after(rewind)
            record(archive, [
                ("Blade1", "cpu", t, load)
                for t, load in enumerate(loads[: due + 1])
                if t > rewind and load is not None
            ])
            assert revive(archive, descriptor, due) == expected

    @settings(max_examples=40, deadline=None)
    @given(watched_streams(), st.floats(0.0, 1.5, allow_nan=False))
    def test_the_window_is_reloaded_after_a_rollback_and_a_reopen(
        self, tmp_path_factory, drawn, bogus
    ):
        """The durable archive's lists mirror its file: a write group that
        rolls back leaves the revived window as it was, and so does a
        close and reopen, which loads the lists from the file."""
        from repro.core.state import StateDb

        loads, started_at, watch_time, __ = drawn
        due = started_at + watch_time - 1
        expected = reference(loads, started_at, due)
        path = tmp_path_factory.mktemp("window") / "state.db"
        db = StateDb(path)
        try:
            archive = SqliteLoadArchive(db)
            observed, descriptor = observe(archive, *drawn[:3])
            assert _hex(observed) == expected
            with pytest.raises(_Abort), db.group():
                record(archive, [("Blade1", "cpu", t, bogus) for t in range(due + 2)])
                assert archive.history("Blade1", "cpu", 0, due) == [
                    (t, bogus) for t in range(due + 1)
                ]
                raise _Abort
            assert revive(archive, descriptor, due) == expected
        finally:
            db.close()
        with SqliteLoadArchive(path) as reopened:
            assert revive(reopened, descriptor, due) == expected
