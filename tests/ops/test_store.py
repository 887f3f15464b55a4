"""The persistent telemetry store (``autoglobe run --store``).

Acceptance: a store-backed run replays identically to its JSONL trace
(same events, same AG3xx report); batches commit at tick boundaries by
wall-clock age; a SIGKILL mid-flush loses at most the last uncommitted
batch and leaves a gapless committed prefix; the one ``attach`` lets a
crash-resumed run drop the abandoned timeline and append seamlessly and
a new run replace what an earlier one left; damaged or foreign files
are typed errors; ``tail_store`` follows commits live.  The commit and
crash guarantees hold in both layouts: a store file of its own (the
runner's) and the ``events`` table of a ``StateDb`` that also journals
(a domain agent's ``state.db``).
"""

import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.ops.store as store_module
from repro.cli import main
from repro.core.state import StateCorruptError, StateDb, StateJournal
from repro.ops.store import (
    STORE_SCHEMA_VERSION,
    TelemetryStore,
    is_store_file,
    read_store,
    tail_store,
)
from repro.sim.export import export_store_jsonl
from repro.telemetry.bus import WILDCARD, EventBus
from repro.telemetry.records import AlertEvent
from repro.telemetry.trace import TraceSchemaError, read_trace
from tests.conftest import JsonlRecorder


def _publish_alerts(bus, count, start=0):
    for t in range(start, start + count):
        bus.publish(AlertEvent(time=t, severity="info", message=f"m{t}"))


@contextmanager
def _own_file(path, bus):
    """The runner's layout: the store opens a file of its own."""
    with TelemetryStore(path) as store:
        yield store


@contextmanager
def _shared_state_db(path, bus):
    """A domain agent's layout: the ``events`` table of a ``StateDb``
    whose journal autocommits a row before every event is buffered."""
    db = StateDb(path)
    journal = StateJournal(db)
    bus.subscribe(WILDCARD, lambda envelope: journal.append("seen", seq=envelope.seq))
    try:
        with TelemetryStore(db, source="domain-1") as store:
            yield store
    finally:
        db.close()


class TestRoundTrip:
    def test_store_replays_identically_to_trace(self, tmp_path):
        bus = EventBus()
        store = TelemetryStore(tmp_path / "store.db")
        recorder = JsonlRecorder(bus)
        store.attach(bus)
        _publish_alerts(bus, 25)
        store.close()
        recorder.write(tmp_path / "trace.jsonl")
        trace_header, trace_events = read_trace(tmp_path / "trace.jsonl")
        store_header, store_events = read_store(tmp_path / "store.db")
        assert store_header.complete is trace_header.complete is True
        assert len(store_events) == len(trace_events) == 25
        for ours, theirs in zip(store_events, trace_events):
            assert (ours.seq, ours.topic, ours.record) == (
                theirs.seq,
                theirs.topic,
                theirs.record,
            )

    def test_attach_to_used_bus_marks_incomplete(self, tmp_path):
        bus = EventBus()
        _publish_alerts(bus, 3)
        store = TelemetryStore(tmp_path / "store.db")
        store.attach(bus)
        _publish_alerts(bus, 2, start=3)
        store.close()
        header, events = read_store(tmp_path / "store.db")
        assert header.complete is False
        assert [event.seq for event in events] == [4, 5]

    def test_is_store_file_sniffs_sqlite_magic(self, tmp_path):
        with TelemetryStore(tmp_path / "store.db"):
            pass
        (tmp_path / "trace.jsonl").write_text("{}\n", encoding="utf-8")
        assert is_store_file(tmp_path / "store.db") is True
        assert is_store_file(tmp_path / "trace.jsonl") is False
        assert is_store_file(tmp_path / "missing.db") is False

    def test_newer_schema_version_rejected(self, tmp_path):
        TelemetryStore(tmp_path / "store.db").close()
        with sqlite3.connect(tmp_path / "store.db") as newer_writer:
            newer_writer.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        with pytest.raises(ValueError, match="newer"):
            read_store(tmp_path / "store.db")

    def test_double_attach_rejected(self, tmp_path):
        bus = EventBus()
        with TelemetryStore(tmp_path / "store.db") as store:
            store.attach(bus)
            with pytest.raises(RuntimeError, match="already attached"):
                store.attach(bus)

    def test_export_is_byte_identical_to_a_streamed_trace(self, tmp_path):
        """JSONL is a rendering of the rows: the bytes a streaming
        writer on the same bus would have written."""
        bus = EventBus()
        recorder = JsonlRecorder(bus)
        with TelemetryStore(tmp_path / "store.db") as store:
            store.attach(bus)
            _publish_alerts(bus, 25)
        streamed = recorder.write(tmp_path / "streamed.jsonl")
        count = export_store_jsonl(tmp_path / "store.db", tmp_path / "export.jsonl")
        assert count == 25
        assert (tmp_path / "export.jsonl").read_bytes() == streamed.read_bytes()
        # and the read-only reader's -wal/-shm are not left in the export
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "export.jsonl", "store.db", "streamed.jsonl",
        ]

    def test_a_store_written_by_the_parent_commit_still_reads(self, tmp_path):
        """The two table definitions are the ones ``store.db`` always
        had: the literal schema of the commit before events moved into
        ``StateDb``, one JSON-text record (older still) and one pickled."""
        path = tmp_path / "store.db"
        with sqlite3.connect(path) as old_writer:
            old_writer.executescript(_PARENT_SCHEMA)
            old_writer.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("schema_version", "1"), ("complete", "1")],
            )
            old_writer.executemany(
                "INSERT INTO events (source, seq, topic, time, clock, record) "
                "VALUES ('', ?, 'alerts', ?, NULL, ?)",
                [
                    (1, 5, '{"type": "AlertEvent", "time": 5, "rows": [[1, 2]]}'),
                    (2, 6, pickle.dumps({"type": "AlertEvent", "time": 6, "rows": ((1, 2),)}, 5)),
                ],
            )
        header, events = read_store(path)
        assert header.complete is True
        assert [(e.seq, e.record["time"], e.record["rows"]) for e in events] == [
            (1, 5, [[1, 2]]), (2, 6, [[1, 2]]),
        ]
        assert [event.seq for _, event in tail_store(path)] == [1, 2]

    def test_double_close_is_idempotent(self, tmp_path):
        bus = EventBus()
        store = TelemetryStore(tmp_path / "store.db")
        store.attach(bus)
        _publish_alerts(bus, 1)
        store.close()
        store.close()
        _publish_alerts(bus, 1, start=1)  # close stopped the streaming
        _, events = read_store(tmp_path / "store.db")
        assert [event.seq for event in events] == [1]


#: ``repro.ops.store._SCHEMA`` as of the parent commit, verbatim
_PARENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    source TEXT NOT NULL DEFAULT '',
    seq    INTEGER NOT NULL,
    topic  TEXT NOT NULL,
    time   INTEGER,
    clock  INTEGER,
    record BLOB NOT NULL,
    PRIMARY KEY (source, seq)
);
CREATE INDEX IF NOT EXISTS events_topic ON events (topic, source, seq);
"""


class FakeClock:
    """``time.monotonic`` for the store under test; the test moves it."""

    def __init__(self, monkeypatch):
        self.now = 1000.0
        monkeypatch.setattr(store_module._time, "monotonic", lambda: self.now)


def _run_ticks(bus, store, clock, ticks, seconds_per_tick, per_tick=3):
    """Publish ``per_tick`` alerts a tick; the committed seq after each tick."""
    committed = []
    for t in range(ticks):
        for i in range(per_tick):
            bus.publish(AlertEvent(time=t, severity="info", message=f"{t}/{i}"))
        clock.now += seconds_per_tick
        store.end_tick()
        committed.append(store.last_seq())
    return committed


class TestCommitPolicy:
    """One policy, served or not: commit at the first tick boundary that
    finds the batch ``MAX_AGE_S`` old or ``MAX_BATCH`` rows long.

    Replaces ``TestBatching`` (``test_interval_flush_never_splits_a_tick``,
    ``test_size_cap_forces_flush``, ``test_flush_ticks_must_be_positive``),
    whose subject — the ``flush_ticks`` parameter — is gone.
    """

    layout = staticmethod(_own_file)

    @pytest.fixture
    def wired(self, tmp_path, monkeypatch):
        clock = FakeClock(monkeypatch)
        bus = EventBus()
        with self.layout(tmp_path / "store.db", bus) as store:
            store.attach(bus)
            yield bus, store, clock

    def test_fast_ticks_commit_once_per_max_age(self, wired):
        bus, store, clock = wired
        committed = _run_ticks(bus, store, clock, ticks=1000, seconds_per_tick=0.001)
        commits = sorted(set(committed) - {0})
        # one second of 1 ms ticks: a commit every MAX_AGE_S, give or
        # take the float sum landing a tick late
        assert 3 <= len(commits) <= 4
        gaps = [b - a for a, b in zip(commits, commits[1:])]
        assert all(abs(gap - 3 * 250) <= 3 for gap in gaps)

    def test_slow_ticks_commit_every_tick(self, wired):
        bus, store, clock = wired
        committed = _run_ticks(bus, store, clock, ticks=10, seconds_per_tick=1.0)
        assert committed == [3 * (t + 1) for t in range(10)]

    def test_a_tick_at_exactly_max_age_commits(self, wired):
        bus, store, clock = wired
        committed = _run_ticks(
            bus, store, clock, ticks=4, seconds_per_tick=store.MAX_AGE_S
        )
        assert committed == [3, 6, 9, 12]

    def test_max_batch_forces_a_commit_whatever_the_age(self, wired):
        bus, store, clock = wired
        per_tick = store.MAX_BATCH // 4 + 1
        committed = _run_ticks(
            bus, store, clock, ticks=8, seconds_per_tick=0.0, per_tick=per_tick
        )
        # frozen clock: only the row count can commit, at the boundary
        # that finds MAX_BATCH rows buffered
        assert committed == [0, 0, 0, 4 * per_tick, 4 * per_tick,
                             4 * per_tick, 4 * per_tick, 8 * per_tick]

    def test_a_batch_never_holds_part_of_a_tick(self, wired):
        bus, store, clock = wired
        # far more rows than MAX_BATCH inside one tick, on an old batch:
        # nothing commits until the tick is over, then all of it does
        clock.now += 10.0
        for i in range(store.MAX_BATCH + 7):
            bus.publish(AlertEvent(time=0, severity="info", message=str(i)))
            assert store.last_seq() == 0
        store.end_tick()
        assert store.last_seq() == store.MAX_BATCH + 7
        committed = _run_ticks(bus, store, clock, ticks=40, seconds_per_tick=0.1)
        assert all((seq - (store.MAX_BATCH + 7)) % 3 == 0 for seq in committed)

    def test_an_idle_boundary_commits_nothing(self, wired):
        _, store, clock = wired
        clock.now += 60.0
        assert store.end_tick() == 0
        assert store.flush() == 0

    def test_flush_is_commit_now_and_restarts_the_age(self, wired):
        bus, store, clock = wired
        _publish_alerts(bus, 2)
        clock.now += 0.2
        assert store.flush() == 2  # what snapshots and close() rely on
        _publish_alerts(bus, 1, start=2)
        clock.now += 0.2  # 0.4 s since the store opened, 0.2 since the commit
        assert store.end_tick() == 0
        clock.now += 0.05
        assert store.end_tick() == 1


class TestCommitPolicyOnASharedStateDb(TestCommitPolicy):
    """The same policy where the store is one accessor of an agent's
    ``state.db``: the journal's autocommits between the store's rows
    neither commit a batch early nor split one."""

    layout = staticmethod(_shared_state_db)


class TestCrashSafety:
    layout = staticmethod(_own_file)
    #: how the SIGKILLed child opens ``store`` on ``sys.argv[1]`` and ``bus``
    child_open = "store = store_module.TelemetryStore(sys.argv[1])"

    def test_sigkill_mid_flush_loses_at_most_one_batch(self, tmp_path):
        """SIGKILL a writer process; the store must reopen unrepaired.

        The child reports its last *committed* sequence just before
        dying with a partial batch buffered; the reopened store must
        hold exactly that gapless prefix — nothing torn, nothing past
        the last commit.
        """
        store_path = tmp_path / "store.db"
        mark_path = tmp_path / "mark.txt"
        child = textwrap.dedent(
            """
            import os, signal, sys
            from repro.telemetry.bus import EventBus
            from repro.telemetry.records import AlertEvent
            import repro.ops.store as store_module

            now = [0.0]
            store_module._time.monotonic = lambda: now[0]
            bus = EventBus()
            %s
            store.attach(bus)
            for t in range(100):
                bus.publish(AlertEvent(time=t, severity="info", message=f"m{t}"))
                now[0] += 0.1  # three ticks age a batch past MAX_AGE_S
                store.end_tick()
            with open(sys.argv[2], "w") as handle:
                handle.write(str(store.last_seq()))
            os.kill(os.getpid(), signal.SIGKILL)
            """
        ) % self.child_open
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", child, str(store_path), str(mark_path)],
            env=env,
            timeout=60,
        )
        assert result.returncode == -signal.SIGKILL
        committed = int(mark_path.read_text())
        assert 0 < committed < 100  # died with a batch still buffered
        header, events = read_store(store_path)
        seqs = [event.seq for event in events]
        assert seqs == list(range(1, committed + 1))  # gapless prefix
        # at most one uncommitted batch lost (0.1 s ticks, one event
        # per tick: the tail batch is under three events)
        assert 100 - committed < 3

    def test_served_unpaced_run_survives_sigkill_and_resumes(self, tmp_path):
        """The age policy under a real kill: a served run at full speed
        (commits by age and before each run snapshot, never per tick)
        SIGKILLs itself mid-horizon between two snapshots.  What the
        store holds is a gapless prefix reaching at least the last
        snapshot, and a resume ends with the uninterrupted run's
        summary and a complete store."""
        from repro.sim.export import summary_json_payload
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario, default_chaos

        store_path, state_dir = tmp_path / "store.db", tmp_path / "state"
        settings = dict(user_factor=1.15, horizon=120, seed=7)
        child = textwrap.dedent(
            """
            import sys
            from repro.sim.runner import SimulationRunner
            from repro.sim.scenarios import Scenario, default_chaos

            SimulationRunner(
                Scenario.FULL_MOBILITY, chaos=default_chaos(seed=115),
                store_path=sys.argv[1], state_dir=sys.argv[2],
                serve=("127.0.0.1", 0), kill_at=12 * 60 + 75, **%r
            ).run()
            """
            % settings
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", child, str(store_path), str(state_dir)],
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert result.returncode == -signal.SIGKILL
        header, events = read_store(store_path)
        assert header.complete is True  # i.e. gapless from seq 1
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        committed_through = max(event.record["time"] for event in events)
        assert 12 * 60 + 69 <= committed_through <= 12 * 60 + 75  # snapshot at :69

        resumed = SimulationRunner(
            Scenario.FULL_MOBILITY, chaos=default_chaos(seed=115),
            store_path=store_path, state_dir=state_dir, resume=True, **settings
        ).run()
        reference = SimulationRunner(
            Scenario.FULL_MOBILITY, chaos=default_chaos(seed=115),
            store_path=tmp_path / "reference.db",
            state_dir=tmp_path / "reference-state", **settings
        ).run()
        assert summary_json_payload(resumed) == summary_json_payload(reference)
        header, events = read_store(store_path)
        _, expected = read_store(tmp_path / "reference.db")
        assert header.complete is True
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        # the resumed process announces its own leadership epoch and
        # samples its restored instance monitors in another order; the
        # landscape's history is the uninterrupted run's
        def history(stream):
            return [
                dict(e.record, rows=sorted(e.record.get("rows", ())))
                for e in stream if e.topic != "supervision"
            ]

        assert history(events) == history(expected)

    def test_torn_store_resumes_gaplessly(self, tmp_path):
        """truncate_after + attach continue the sequence."""
        bus = EventBus()
        with self.layout(tmp_path / "store.db", bus) as store:
            store.attach(bus)
            _publish_alerts(bus, 10)
        # resume from a snapshot taken at seq 6: drop 7..10, continue
        fresh_bus = EventBus()
        fresh_bus.fast_forward(6)
        with self.layout(tmp_path / "store.db", fresh_bus) as resumed:
            assert resumed.truncate_after(6) == 4
            assert resumed.last_seq() == 6
            resumed.attach(fresh_bus)
            _publish_alerts(fresh_bus, 3, start=6)
        header, events = read_store(tmp_path / "store.db")
        assert header.complete is True
        assert [event.seq for event in events] == list(range(1, 10))

    def test_attach_alone_drops_the_abandoned_tail(self, tmp_path):
        """The runner's resume path: fast_forward + attach, no
        truncate_after call of its own."""
        bus = EventBus()
        with self.layout(tmp_path / "store.db", bus) as store:
            store.attach(bus)
            _publish_alerts(bus, 10)
        fresh_bus = EventBus()
        fresh_bus.fast_forward(6)
        with self.layout(tmp_path / "store.db", fresh_bus) as resumed:
            resumed.attach(fresh_bus)
            assert resumed.last_seq() == 6
            _publish_alerts(fresh_bus, 3, start=6)
        header, events = read_store(tmp_path / "store.db")
        assert header.complete is True
        assert [event.record["time"] for event in events] == list(range(9))

    def test_a_resume_past_the_rows_is_incomplete(self, tmp_path):
        """A bus ahead of what the store holds (a resume onto a store
        whose run committed nothing) cannot be called complete, by the
        reader's gap check and by the writer's own claim."""
        def claim():
            with sqlite3.connect(tmp_path / "store.db") as connection:
                return connection.execute(
                    "SELECT value FROM meta WHERE key = 'complete'"
                ).fetchone()

        virgin = EventBus()
        with self.layout(tmp_path / "store.db", virgin) as store:
            store.attach(virgin)
        assert claim() == ("1",)
        bus = EventBus()
        bus.fast_forward(6)
        with self.layout(tmp_path / "store.db", bus) as store:
            store.attach(bus)
            _publish_alerts(bus, 2)
        assert claim() == ("0",)
        header, events = read_store(tmp_path / "store.db")
        assert header.complete is False
        assert [event.seq for event in events] == [7, 8]


class TestCrashSafetyOnASharedStateDb(TestCrashSafety):
    """A batch is all-or-nothing in an agent's ``state.db`` too, with
    the journal committing row by row around it."""

    layout = staticmethod(_shared_state_db)
    child_open = (
        "from repro.core.state import StateDb, StateJournal; "
        "db = StateDb(sys.argv[1]); journal = StateJournal(db); "
        "bus.subscribe('*', lambda e: journal.append('seen', seq=e.seq)); "
        "store = store_module.TelemetryStore(db, source='domain-1')"
    )
    # the runner only ever opens a store file of its own
    test_served_unpaced_run_survives_sigkill_and_resumes = None


class TestAStoreIsAnOutput:
    def test_a_second_run_replaces_what_the_first_left(self, tmp_path):
        """Seed 7 for 120 min, then seed 8 for 60 min on the same path:
        the store holds the second run, event for event, and says so."""
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario, default_chaos

        def run(seed, horizon, path):
            SimulationRunner(
                Scenario.FULL_MOBILITY, user_factor=1.15, horizon=horizon,
                seed=seed, chaos=default_chaos(seed=115), store_path=path,
            ).run()
            return read_store(path)

        _, first = run(7, 120, tmp_path / "store.db")
        header, second = run(8, 60, tmp_path / "store.db")
        _, expected = run(8, 60, tmp_path / "fresh.db")
        assert len(first) > len(second)
        assert header.complete is True
        assert second == expected
        assert max(event.record["time"] for event in second) < 12 * 60 + 60


class TestMultiSource:
    def test_insert_events_first_write_wins(self, tmp_path):
        store = TelemetryStore(tmp_path / "store.db")
        rows = [(1, "alerts", {"type": "AlertEvent", "time": 5, "v": "first"}, 9)]
        dupes = [(1, "alerts", {"type": "AlertEvent", "time": 5, "v": "second"}, 9)]
        assert store.insert_events("domain-1", rows) == 1
        assert store.insert_events("domain-1", dupes) == 0  # dedup
        store.close()
        _, events = read_store(tmp_path / "store.db")
        assert [event.record["v"] for event in events] == ["first"]

    def test_multi_source_merge_matches_merge_traces(self, tmp_path):
        from repro.telemetry.trace import TraceEvent, merge_traces

        store = TelemetryStore(tmp_path / "store.db")
        a = [(s, "alerts", {"type": "AlertEvent", "time": s}, clock)
             for s, clock in ((1, 2), (2, 5))]
        b = [(s, "alerts", {"type": "AlertEvent", "time": s}, clock)
             for s, clock in ((1, 1), (2, 4))]
        store.insert_events("domain-1", a)
        store.insert_events("domain-2", b)
        store.mark_complete(True)
        store.close()
        header, merged = read_store(tmp_path / "store.db")
        assert header.complete is True
        expected = merge_traces(
            [
                ("domain-1", [TraceEvent(s, t, r, clock=c) for s, t, r, c in a]),
                ("domain-2", [TraceEvent(s, t, r, clock=c) for s, t, r, c in b]),
            ]
        )
        assert [(e.seq, e.clock, e.record) for e in merged] == [
            (e.seq, e.clock, e.record) for e in expected
        ]


class TestTail:
    def _seeded(self, tmp_path):
        bus = EventBus()
        store = TelemetryStore(tmp_path / "store.db")
        store.attach(bus)
        for t in range(6):
            bus.publish(
                AlertEvent(
                    time=t,
                    severity="info" if t % 2 == 0 else "warning",
                    message=f"m{t}",
                )
            )
        store.close()
        return tmp_path / "store.db"

    def test_tail_yields_everything_in_order(self, tmp_path):
        path = self._seeded(tmp_path)
        events = list(tail_store(path))
        assert [event.seq for _, event in events] == list(range(1, 7))
        assert all(source == "" for source, _ in events)

    def test_since_seq_cursor(self, tmp_path):
        path = self._seeded(tmp_path)
        events = list(tail_store(path, since_seq=4))
        assert [event.seq for _, event in events] == [5, 6]

    def test_topic_filter(self, tmp_path):
        path = self._seeded(tmp_path)
        assert list(tail_store(path, topic="actions")) == []
        alerts = list(tail_store(path, topic="alerts"))
        assert len(alerts) == 6

    def test_follow_sees_fresh_commits(self, tmp_path):
        path = self._seeded(tmp_path)
        stop = threading.Event()
        seen = []

        def consume():
            for source, event in tail_store(
                path, follow=True, poll_interval=0.05, stop=stop
            ):
                seen.append(event.seq)
                if event.seq >= 8:
                    stop.set()

        tailer = threading.Thread(target=consume, daemon=True)
        tailer.start()
        # append two more committed events while the tailer polls
        time.sleep(0.1)
        store = TelemetryStore(path)
        store.insert_events(
            "",
            [
                (7, "alerts", {"type": "AlertEvent", "time": 7}, None),
                (8, "alerts", {"type": "AlertEvent", "time": 8}, None),
            ],
        )
        store.close()
        tailer.join(timeout=10)
        assert not tailer.is_alive()
        assert seen[-2:] == [7, 8]


class TestVerifyFromStore:
    def test_report_identical_to_jsonl_trace(self, tmp_path):
        """The ISSUE's parity criterion, end to end on a real chaos run.

        ``autoglobe verify`` over the SQLite store must produce the
        byte-identical report to verifying the JSONL export of the same
        run.
        """
        from repro.analysis.verify.engine import verify_trace
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario, default_chaos

        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=240,
            seed=7,
            chaos=default_chaos(seed=115),
            store_path=tmp_path / "store.db",
        )
        recorder = JsonlRecorder(runner.platform.bus)
        runner.run()
        recorder.write(tmp_path / "telemetry.jsonl")
        from_trace = verify_trace(tmp_path / "telemetry.jsonl", name="run")
        from_store = verify_trace(tmp_path / "store.db", name="run")
        assert from_store.render("text") == from_trace.render("text")
        assert from_store.render("json") == from_trace.render("json")
        # and the streams themselves are event-for-event identical
        _, trace_events = read_trace(tmp_path / "telemetry.jsonl")
        _, store_events = read_store(tmp_path / "store.db")
        assert len(store_events) == len(trace_events)
        assert all(
            (ours.seq, ours.topic, ours.record)
            == (theirs.seq, theirs.topic, theirs.record)
            for ours, theirs in zip(store_events, trace_events)
        )


def _small_store(path, events=40):
    bus = EventBus()
    with TelemetryStore(path) as store:
        store.attach(bus)
        _publish_alerts(bus, events)
    return path


class TestDamagedFiles:
    """Damaged, foreign or empty files are a typed error — never a bare
    ``sqlite3`` or ``pickle`` traceback, and never "clean"."""

    @pytest.fixture
    def damaged(self, tmp_path):
        """name -> (path, expected error) for every kind of damage."""
        good = _small_store(tmp_path / "good.db", events=600).read_bytes()
        page = 4096
        assert len(good) > 8 * page
        files = {}

        def add(name, data, error):
            (tmp_path / name).write_bytes(data)
            files[name] = (tmp_path / name, error)

        header = bytes(byte ^ 0xFF for byte in good[2 * page : 2 * page + 64])
        add("flipped.db", good[: 2 * page] + header + good[2 * page + 64 :],
            StateCorruptError)  # the b-tree header of page 3
        add("half.db", good[: len(good) // 2], StateCorruptError)
        add("garbage.db", good[:16] + b"garbage" * 500, StateCorruptError)
        with sqlite3.connect(tmp_path / "old-state.db") as parent_layout:
            # a state.db of the commit before events were state
            parent_layout.execute(
                "CREATE TABLE journal (seq INTEGER PRIMARY KEY, kind TEXT, data TEXT)"
            )
        files["old-state.db"] = (tmp_path / "old-state.db", TraceSchemaError)
        StateDb(tmp_path / "no-log.db").close()  # the tables, but no store ever
        files["no-log.db"] = (tmp_path / "no-log.db", TraceSchemaError)
        add("blob.db", good, TraceSchemaError)
        with sqlite3.connect(tmp_path / "blob.db") as vandal:
            vandal.execute(
                "UPDATE events SET record = ? WHERE seq = 3", (pickle.dumps(object),)
            )
        return files

    def test_readers_raise_the_typed_error(self, damaged):
        for name, (path, error) in damaged.items():
            with pytest.raises(error) as caught:
                read_store(path)
            assert str(path) in str(caught.value), name
            with pytest.raises(error):
                list(tail_store(path))
        message = str(pytest.raises(TraceSchemaError, read_store,
                                    damaged["blob.db"][0]).value)
        assert "event 3 of source ''" in message and "builtins.object" in message

    def test_verify_and_tail_exit_2_without_a_traceback(self, damaged, capsys):
        for name, (path, _) in damaged.items():
            for command in ("verify", "tail"):
                assert main([command, str(path)]) == 2, (command, name)
                captured = capsys.readouterr()
                assert captured.err.startswith(f"autoglobe {command}: {path}: ")
                assert captured.err.count("\n") == 1
                assert "Traceback" not in captured.err
                assert "clean" not in captured.out

    @settings(max_examples=60, deadline=1000)
    @given(data=st.data())
    def test_random_damage_is_a_result_or_a_typed_error(
        self, data, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("damage")  # no stale -wal/-shm
        good = bytearray(_small_store(directory / "good.db").read_bytes())
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)),
                max_size=64,
            )
        )
        for position, value in flips:
            good[position] = value
        keep = data.draw(st.one_of(st.just(len(good)), st.integers(0, len(good))))
        (directory / "damaged.db").write_bytes(good[:keep])
        try:
            header, events = read_store(directory / "damaged.db")
        except (StateCorruptError, TraceSchemaError):
            return
        assert all(isinstance(event.record, dict) for event in events)
