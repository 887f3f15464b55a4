"""Tests for the load archive implementations (in-memory and SQLite)."""

import builtins
import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import StateDb
from repro.monitoring.archive import InMemoryLoadArchive, SqliteLoadArchive
from repro.telemetry.records import LoadReportBatch
from tests.monitoring.batches import record


@pytest.fixture(params=["memory", "sqlite"])
def archive(request, tmp_path):
    if request.param == "memory":
        yield InMemoryLoadArchive()
    else:
        with SqliteLoadArchive(tmp_path / "loads.db") as archive:
            yield archive


class TestArchiveInterface:
    def test_store_and_history(self, archive):
        record(archive, [("Blade1", "cpu", 0, 0.5)])
        record(archive, [("Blade1", "cpu", 1, 0.7)])
        assert archive.history("Blade1", "cpu") == [(0, 0.5), (1, 0.7)]

    def test_history_window(self, archive):
        for t in range(10):
            record(archive, [("Blade1", "cpu", t, t / 10)])
        assert archive.history("Blade1", "cpu", start=3, end=5) == [
            (3, 0.3),
            (4, 0.4),
            (5, 0.5),
        ]

    def test_average_over_watchtime(self, archive):
        """The archive computes watch-time means for the fuzzy controller."""
        for t in range(20):
            record(archive, [("FI#1", "cpu", t, 0.8 if t >= 10 else 0.2)])
        assert archive.average("FI#1", "cpu", 10, 19) == pytest.approx(0.8)

    def test_average_of_missing_subject(self, archive):
        assert archive.average("GHOST", "cpu", 0, 100) is None

    def test_metrics_are_independent(self, archive):
        record(archive, [("Blade1", "cpu", 0, 0.9)])
        record(archive, [("Blade1", "mem", 0, 0.1)])
        assert archive.average("Blade1", "cpu", 0, 0) == pytest.approx(0.9)
        assert archive.average("Blade1", "mem", 0, 0) == pytest.approx(0.1)

    def test_subjects_listed(self, archive):
        record(archive, [("Blade2", "cpu", 0, 0.5)])
        record(archive, [("Blade1", "cpu", 0, 0.5)])
        assert archive.subjects() == ["Blade1", "Blade2"]

    @pytest.mark.parametrize("batched", [False, True], ids=["store", "batch"])
    def test_a_sample_stored_again_replaces_the_earlier(self, archive, batched):
        samples = [("A", "cpu", 5, 0.2), ("A", "cpu", 5, 0.4),
                   ("A", "cpu", 3, 0.1), ("A", "cpu", 3, 0.3)]
        if batched:
            record(archive, samples)
        else:
            for sample in samples:
                record(archive, [sample])
        assert archive.history("A", "cpu") == [(3, 0.3), (5, 0.4)]
        assert archive.average("A", "cpu", 0, 10) == (0.3 + 0.4) / 2

    @pytest.mark.parametrize("minute", [1, 0], ids=["new-minute", "stored-minute"])
    def test_a_batch_naming_a_series_twice_is_refused(self, archive, minute):
        """One minute holds one sample of a series: a layout that repeats
        one would append the minute twice to its column."""
        record(archive, [("A", "cpu", 0, 0.5), ("B", "cpu", 0, 0.6)])
        twice = LoadReportBatch(
            minute, (("A", "cpu"), ("B", "cpu"), ("A", "cpu")),
            np.array([0.1, 0.2, 0.3]),
        )
        with pytest.raises(ValueError, match="names a series twice"):
            archive.record_reports(twice)
        assert archive.history("A", "cpu") == [(0, 0.5)]
        assert archive.history("B", "cpu") == [(0, 0.6)]
        assert archive.average("A", "cpu", 0, 1) == 0.5

    def test_a_mean_is_a_left_to_right_sum_whatever_sum_does(
        self, archive, monkeypatch
    ):
        """Python 3.12's builtin ``sum`` is compensated; the archive's
        means must not change with the interpreter."""
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        folded = 0.0
        for value in values:
            folded += value  # the 1.0 is lost against 1e16
        for time, value in enumerate(values):
            record(archive, [("A", "cpu", time, value)])
        monkeypatch.setattr(
            builtins, "sum", lambda items, start=0: math.fsum(items) + start
        )
        assert sum(values) == 2.0  # what a compensated sum makes of it
        mean = archive.average("A", "cpu", 0, len(values) - 1)
        assert mean.hex() == (folded / len(values)).hex() == (0.0).hex()
        if sqlite3.sqlite_version_info < (3, 43):  # later AVGs compensate
            sql = sqlite3.connect(":memory:")
            sql.execute("CREATE TABLE samples (value REAL)")
            sql.executemany("INSERT INTO samples VALUES (?)", [(v,) for v in values])
            assert sql.execute("SELECT AVG(value) FROM samples").fetchone()[0] == mean
            sql.close()


class TestEventLog:
    def test_controller_records_situations_and_actions(self):
        """The telemetry event log holds the administration history the
        forecasting/auditing extensions mine; the archive holds load data
        only."""
        from repro.core.autoglobe import AutoGlobeController
        from repro.serviceglobe.platform import Platform
        from tests.core.conftest import build_landscape, set_demand

        platform = Platform(build_landscape())
        controller = AutoGlobeController(platform)
        for now in range(12):
            set_demand(platform, "Weak1", 0.95)
            set_demand(platform, "Big1", 3.0)
            controller.tick(now)
        counts = platform.bus.counts()
        assert counts.get("situations", 0) and counts.get("actions", 0)
        assert any(
            "scale" in envelope.record.outcome.action.value
            for envelope in platform.bus.tail("actions")
        )
        assert not hasattr(controller.archive, "events")


class TestSqliteSpecifics:
    def test_persistence_across_connections(self, tmp_path):
        path = tmp_path / "persistent.db"
        with SqliteLoadArchive(path) as archive:
            record(archive, [("Blade1", "cpu", 0, 0.5)])
            archive.commit()
        with SqliteLoadArchive(path) as archive:
            assert archive.history("Blade1", "cpu") == [(0, 0.5)]

    def test_store_many(self, tmp_path):
        with SqliteLoadArchive(tmp_path / "bulk.db") as archive:
            record(
                archive, [("Blade1", "cpu", t, t / 100) for t in range(100)]
            )
            assert len(archive.history("Blade1", "cpu")) == 100

    def test_duplicate_time_overwrites(self):
        with SqliteLoadArchive() as archive:
            record(archive, [("Blade1", "cpu", 0, 0.5)])
            record(archive, [("Blade1", "cpu", 0, 0.9)])
            assert archive.history("Blade1", "cpu") == [(0, 0.9)]

    def test_aggregate_buckets(self):
        """The 'persistent aggregated view' used by load forecasting."""
        with SqliteLoadArchive() as archive:
            for t in range(60):
                record(archive, [("Blade1", "cpu", t, 1.0 if t < 30 else 0.0)])
            buckets = archive.aggregate("Blade1", "cpu", bucket_minutes=30)
            assert buckets == [(0, 1.0), (30, 0.0)]

    def test_aggregate_rejects_bad_bucket(self):
        with SqliteLoadArchive() as archive:
            with pytest.raises(ValueError):
                archive.aggregate("Blade1", "cpu", bucket_minutes=0)


class TestWriteBehind:
    def test_the_state_file_is_only_written_between_open_and_close(self):
        """Every read is served from memory: no statement reads
        ``load_minutes`` after the load at open, a re-stored minute's
        merge included."""
        from repro.core.state import DurableStateStore

        store = DurableStateStore()
        archive = store.archive
        statements = []
        store.db.connection.set_trace_callback(statements.append)
        for t in range(5):
            record(archive, [("Blade1", "cpu", t, t / 10),
                                    ("Blade2", "mem", t, t / 20)])
        record(archive, [("Blade1", "cpu", 2, 0.9)])  # stored again
        assert archive.history("Blade2", "mem", 0, 4)[2] == (2, 0.1)
        assert archive.history("Blade1", "cpu")[2] == (2, 0.9)
        assert archive.average("Blade1", "cpu", 0, 4) is not None
        assert archive.subjects() == ["Blade1", "Blade2"]
        assert archive.aggregate("Blade1", "cpu", 2)
        store.close()
        writes = [s for s in statements if "load_minutes" in s]
        assert writes and all(s.startswith("INSERT") for s in writes), writes


class TestHardening:
    """Crash-safety of the SQLite archive (the durable-controller PR)."""

    def test_file_backed_archive_runs_in_wal_mode(self, tmp_path):
        with SqliteLoadArchive(tmp_path / "wal.db") as archive:
            mode = archive._connection.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "wal"
            timeout = archive._connection.execute(
                "PRAGMA busy_timeout"
            ).fetchone()[0]
            assert timeout == 5000

    def test_corrupt_file_is_moved_aside_and_rebuilt(self, tmp_path):
        path = tmp_path / "loads.db"
        path.write_bytes(b"this was never a SQLite database" * 100)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            archive = SqliteLoadArchive(path)
        with archive:
            record(archive, [("Blade1", "cpu", 0, 0.5)])
            assert archive.history("Blade1", "cpu") == [(0, 0.5)]
        assert (tmp_path / "loads.db.corrupt").exists()

    def test_rebuild_keeps_working_after_corruption(self, tmp_path):
        path = tmp_path / "loads.db"
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            archive = SqliteLoadArchive(path)
        with archive:
            # the rebuilt archive is fully functional
            record(archive, [("Blade1", "cpu", 1, 0.5)])
            archive.commit()
        with SqliteLoadArchive(path) as reopened:
            assert reopened.history("Blade1", "cpu") == [(1, 0.5)]

    @pytest.mark.parametrize("damage", [
        "UPDATE load_minutes SET vals = substr(vals, 1, 12) WHERE time = 1",
        "DELETE FROM load_series WHERE subject = 'Blade1'",
    ], ids=["torn-minute", "unknown-series"])
    def test_a_torn_row_is_moved_aside_and_rebuilt(self, tmp_path, damage):
        """Rows SQLite's own check passes but the archive cannot load are
        refused at open like a corrupt file, never at a later read."""
        path = tmp_path / "loads.db"
        with SqliteLoadArchive(path) as archive:
            for t in (0, 1):
                record(archive, [("Blade0", "cpu", t, 0.5),
                                        ("Blade1", "cpu", t, 0.5)])
        vandal = sqlite3.connect(path)
        with vandal:
            vandal.execute(damage)
        vandal.close()
        with pytest.warns(RuntimeWarning, match="minute 1|unknown series"):
            archive = SqliteLoadArchive(path)
        with archive:
            assert archive.subjects() == []
            record(archive, [("Blade1", "cpu", 2, 0.25)])
        with SqliteLoadArchive(path) as reopened:
            assert reopened.history("Blade1", "cpu") == [(2, 0.25)]
        assert (tmp_path / "loads.db.corrupt").exists()

    def test_a_parent_format_file_is_moved_aside_and_rebuilt(self, tmp_path):
        """An archive file of its own from before one row per minute is
        handled like a corrupt one: moved aside with a warning, never read
        as an archive without samples."""
        path = tmp_path / "loads.db"
        with sqlite3.connect(path) as parent:
            parent.executescript(_ROW_PER_SAMPLE)
        with pytest.warns(RuntimeWarning, match="state format 0"):
            archive = SqliteLoadArchive(path)
        with archive:
            assert archive.subjects() == []
        assert (tmp_path / "loads.db.corrupt").exists()

    def test_record_reports_is_transactional(self, tmp_path):
        path = tmp_path / "tx.db"
        with SqliteLoadArchive(path) as archive:
            record(
                archive, [("Blade1", "cpu", t, 0.5) for t in range(10)]
            )
        # the batch is durable without an explicit commit(): the context
        # manager inside record_reports committed it
        with SqliteLoadArchive(path) as archive:
            assert len(archive.history("Blade1", "cpu")) == 10

    def test_a_refused_batch_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "twice.db"
        with SqliteLoadArchive(path) as archive:
            record(archive, [("A", "cpu", 0, 0.5)])
            with pytest.raises(ValueError):
                archive.record_reports(LoadReportBatch(
                    1, (("A", "cpu"), ("A", "cpu")), np.array([0.1, 0.2])
                ))
        with SqliteLoadArchive(path) as archive:
            assert archive.history("A", "cpu") == [(0, 0.5)]

    def test_truncate_after_drops_the_abandoned_timeline(self, tmp_path):
        with SqliteLoadArchive(tmp_path / "resume.db") as archive:
            record(
                archive, [("Blade1", "cpu", t, t / 100) for t in range(20)]
            )
            archive.truncate_after(9)
            assert [t for t, _ in archive.history("Blade1", "cpu")] == list(
                range(10)
            )

    def test_in_memory_archive_truncates_too(self):
        archive = InMemoryLoadArchive()
        for t in range(20):
            record(archive, [("Blade1", "cpu", t, t / 100)])
        archive.truncate_after(9)
        assert [t for t, _ in archive.history("Blade1", "cpu")] == list(
            range(10)
        )


# -- equivalence oracle: one row per minute against one row per sample -----------------

#: the table the archive kept before one row per minute, verbatim
_ROW_PER_SAMPLE = """
CREATE TABLE load_samples (
    subject TEXT NOT NULL,
    metric  TEXT NOT NULL,
    time    INTEGER NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (subject, metric, time)
);
"""


class _RowPerSample:
    """The reference: the previous table and every query of the previous
    ``SqliteLoadArchive`` on it, verbatim."""

    def __init__(self):
        self.connection = sqlite3.connect(":memory:", isolation_level=None)
        self.connection.executescript(_ROW_PER_SAMPLE)

    def record_reports(self, rows):
        self.connection.execute("BEGIN IMMEDIATE")
        self.connection.executemany(
            "INSERT OR REPLACE INTO load_samples "
            "(subject, metric, time, value) VALUES (?, ?, ?, ?)",
            rows,
        )
        self.connection.execute("COMMIT")

    def truncate_after(self, time):
        self.connection.execute("DELETE FROM load_samples WHERE time > ?", (time,))

    def average(self, subject, metric, start, end):
        row = self.connection.execute(
            "SELECT AVG(value) FROM load_samples "
            "WHERE subject = ? AND metric = ? AND time BETWEEN ? AND ?",
            (subject, metric, start, end),
        ).fetchone()
        return None if row is None or row[0] is None else float(row[0])

    def history(self, subject, metric, start=0, end=None):
        if end is None:
            cursor = self.connection.execute(
                "SELECT time, value FROM load_samples "
                "WHERE subject = ? AND metric = ? AND time >= ? ORDER BY time",
                (subject, metric, start),
            )
        else:
            cursor = self.connection.execute(
                "SELECT time, value FROM load_samples "
                "WHERE subject = ? AND metric = ? AND time BETWEEN ? AND ? "
                "ORDER BY time",
                (subject, metric, start, end),
            )
        return [(int(t), float(v)) for t, v in cursor.fetchall()]

    def subjects(self):
        cursor = self.connection.execute(
            "SELECT DISTINCT subject FROM load_samples ORDER BY subject"
        )
        return [row[0] for row in cursor.fetchall()]

    def aggregate(self, subject, metric, bucket_minutes):
        cursor = self.connection.execute(
            "SELECT (time / ?) * ?, AVG(value) FROM load_samples "
            "WHERE subject = ? AND metric = ? "
            "GROUP BY time / ? ORDER BY 1",
            (bucket_minutes, bucket_minutes, subject, metric, bucket_minutes),
        )
        return [(int(t), float(v)) for t, v in cursor.fetchall()]


_SERIES = [(s, m) for s in ("Blade1", "Blade2", "FI#1", "FI#2") for m in ("cpu", "mem")]
#: multiples of 2**-10: every window sum is exact, so the means do not
#: depend on the reference's SQLite (3.43 and later compensate ``AVG``);
#: the summation order has its own test above
_VALUES = st.integers(0, 4096).map(lambda k: k / 1024)
_SAMPLES = st.lists(st.tuples(st.sampled_from(_SERIES), _VALUES), max_size=8)
_STEPS = st.lists(
    st.one_of(
        # the next minute's batch, a series possibly twice in it
        st.tuples(st.just("tick"), _SAMPLES),
        # samples of earlier, stored or missing, or later minutes
        st.tuples(st.just("again"), st.lists(
            st.tuples(st.integers(0, 24), st.sampled_from(_SERIES), _VALUES),
            min_size=1, max_size=6,
        )),
        st.tuples(st.just("truncate"), st.integers(0, 24)),
        # a batch whose write group (or, inside one, savepoint) rolls back
        st.tuples(st.just("rollback"), st.sampled_from(["group", "savepoint"]),
                  _SAMPLES),
        st.tuples(st.just("reopen")),
    ),
    max_size=24,
)


class _Abort(Exception):
    pass


def _hexed(pairs):
    return [(time, value.hex()) for time, value in pairs]


@pytest.mark.parametrize("kind", ["sqlite", "memory"])
@settings(max_examples=60, deadline=None)
@given(
    steps=_STEPS,
    window=st.tuples(st.integers(-2, 26), st.integers(-2, 26)),
    bucket=st.integers(1, 9),
)
def test_archives_equal_the_row_per_sample_table(
    tmp_path_factory, kind, steps, window, bucket
):
    """Random batches, re-stored samples, out-of-order minutes,
    truncations, rollbacks and reopens: every read equals the previous
    table's, float for float."""
    path = tmp_path_factory.mktemp("archive") / "state.db"
    opened = []

    def open_archive():
        db = StateDb(path) if kind == "sqlite" else None
        opened.append(db)
        return db, InMemoryLoadArchive() if db is None else SqliteLoadArchive(db)

    try:
        _check_equivalence(open_archive, steps, window, bucket)
    finally:  # also a failing example's file: shrinking runs hundreds
        for db in opened:
            if db is not None:
                db.close()


def _check_equivalence(open_archive, steps, window, bucket):
    db, archive = open_archive()
    durable = db is not None
    reference = _RowPerSample()
    clock = 0
    for step in steps:
        if step[0] == "tick":
            rows = [(s, m, clock, value) for (s, m), value in step[1]]
            record(archive, rows)
            reference.record_reports(rows)
            clock += 1
        elif step[0] == "again":
            rows = [(s, m, time, value) for time, (s, m), value in step[1]]
            record(archive, rows)
            reference.record_reports(rows)
        elif step[0] == "truncate":
            archive.truncate_after(step[1])
            reference.truncate_after(step[1])
        elif step[0] == "rollback" and durable:
            rows = [(s, m, clock, value) for (s, m), value in step[2]]
            if step[1] == "group":
                with pytest.raises(_Abort), db.group():
                    record(archive, rows)
                    raise _Abort
            else:
                with db.group():
                    with pytest.raises(_Abort), db.transaction():
                        record(archive, rows)
                        raise _Abort
        elif step[0] == "reopen" and durable:
            archive.close()
            db, archive = open_archive()
        assert archive.subjects() == reference.subjects()
        for subject, metric in _SERIES:
            assert _hexed(archive.history(subject, metric)) == _hexed(
                reference.history(subject, metric)
            )
            assert _hexed(archive.history(subject, metric, *window)) == _hexed(
                reference.history(subject, metric, *window)
            )
            mean = archive.average(subject, metric, *window)
            expected = reference.average(subject, metric, *window)
            assert (mean and mean.hex()) == (expected and expected.hex())
            assert _hexed(archive.aggregate(subject, metric, bucket)) == _hexed(
                reference.aggregate(subject, metric, bucket)
            )
