"""The durable-state layer: one state.db, its accessors, replay.

Acceptance: the journal survives a SIGKILL as a gapless prefix, a
snapshot save and an archive batch are all-or-nothing, a lease grant is
fsynced, a damaged file is a typed error, fencing tokens are monotonic
across leadership changes, and replaying the same journal suffix twice
yields the same state (idempotency — the property that makes crash
recovery safe to re-run).
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import (
    DurableStateStore,
    JournalRecord,
    LeaseStore,
    SnapshotStore,
    StateCorruptError,
    StateDb,
    StateJournal,
    open_readonly,
    replay_journal,
)
from tests.monitoring.batches import record as record_rows

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _python(script, *args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        **kwargs,
    )


class TestStateJournal:
    def test_append_assigns_monotonic_sequence_numbers(self, tmp_path):
        journal = StateJournal(tmp_path / "state.db")
        first = journal.append("tick", now=1)
        second = journal.append("protect", subject="host:Blade1", until=31)
        assert (first.seq, second.seq) == (1, 2)
        assert journal.last_seq == 2

    def test_reload_sees_every_flushed_record(self, tmp_path):
        path = tmp_path / "state.db"
        journal = StateJournal(path)
        journal.append("tick", now=1)
        journal.append("tick", now=2)
        # no close(): a SIGKILL never closes handles, the commit must suffice
        assert [r.data["now"] for r in StateJournal(path).since(0)] == [1, 2]

    def test_a_record_may_carry_a_kind_data_key(self, tmp_path):
        # LMS observation descriptors have a "kind" field of their own;
        # it must not collide with the journal's record kind
        journal = StateJournal(tmp_path / "state.db")
        record = journal.append(
            "observation-open", subject="FI#1", kind="serverOverloaded"
        )
        assert record.kind == "observation-open"
        assert record.data["kind"] == "serverOverloaded"
        assert journal.since(0) == [record]

    def test_truncate_drops_the_abandoned_timeline(self, tmp_path):
        store = DurableStateStore(tmp_path)
        for now in range(1, 6):
            store.journal.append("tick", now=now)
        store.rewind(journal_seq=3, tick=3)
        assert store.journal.last_seq == 3
        reopened = StateJournal(tmp_path / "state.db")
        assert [r.seq for r in reopened.since(0)] == [1, 2, 3]
        # appends continue from the truncation point, on disk too
        store.journal.append("tick", now=99)
        assert [r.seq for r in reopened.since(0)] == [1, 2, 3, 4]

    def test_since_returns_strict_suffix(self):
        journal = StateJournal()
        for now in range(1, 5):
            journal.append("tick", now=now)
        assert [r.seq for r in journal.since(2)] == [3, 4]
        assert journal.since(4) == []

    def test_compaction_keeps_the_newest_row_so_numbering_goes_on(self, tmp_path):
        """Compacting through every row keeps the newest: SQLite numbers
        a row ``max(seq) + 1``, so an emptied table would restart at 1,
        below every snapshot, and recovery's ``since`` would skip it."""
        store = DurableStateStore(tmp_path)
        for now in range(1, 6):
            store.journal.append("tick", now=now)
        store.snapshots.save("controller", 5, 5, {})
        store.compact(5)
        assert [r.seq for r in store.journal.since(0)] == [5]
        store.close()
        reopened = DurableStateStore(tmp_path)
        record = reopened.journal.append("tick", now=6)
        assert record.seq == 6
        assert reopened.journal.since(5) == [record]
        reopened.close()

    def test_compaction_keeps_what_a_recovery_or_a_resume_replays(self):
        """Rows past the controller snapshot's sequence stay (a recovering
        replica replays them), and so do rows past the run snapshot's (a
        resume rewinds to it)."""
        store = DurableStateStore()
        for now in range(1, 9):
            store.journal.append("tick", now=now)
        store.snapshots.save("controller", 3, 3, {})
        store.compact(8)
        assert [r.seq for r in store.journal.since(0)] == [4, 5, 6, 7, 8]
        store.snapshots.save("controller", 8, 8, {})
        store.compact(5)
        assert [r.seq for r in store.journal.since(0)] == [6, 7, 8]


class TestSnapshotStore:
    def test_save_then_load_round_trips(self, tmp_path):
        store = SnapshotStore(tmp_path / "state.db")
        store.save("controller", 720, 17, {"tick": 720})
        snapshot = store.load("controller")
        assert snapshot["tick"] == 720
        assert snapshot["journal_seq"] == 17
        assert snapshot["payload"] == {"tick": 720}

    def test_save_replaces_atomically(self, tmp_path):
        store = SnapshotStore(tmp_path / "state.db")
        store.save("run", 1, 1, {"v": 1})
        store.save("run", 2, 2, {"v": 2})
        assert store.load("run")["payload"] == {"v": 2}
        assert SnapshotStore(tmp_path / "state.db").load("run")["tick"] == 2

    def test_missing_snapshot_reads_as_none(self, tmp_path):
        assert SnapshotStore(tmp_path / "state.db").load("controller") is None
        assert SnapshotStore().load("controller") is None


class TestLeaseStore:
    def test_fresh_acquire_grants_token_one(self):
        lease = LeaseStore()
        assert lease.acquire("controller-1", now=0, ttl=5) == 1
        assert lease.current() == ("controller-1", 1, 5)

    def test_renewal_keeps_the_token(self):
        lease = LeaseStore()
        lease.acquire("controller-1", now=0, ttl=5)
        assert lease.acquire("controller-1", now=3, ttl=5) == 1
        assert lease.current() == ("controller-1", 1, 8)

    def test_unexpired_lease_blocks_other_holders(self):
        lease = LeaseStore()
        lease.acquire("controller-1", now=0, ttl=5)
        assert lease.acquire("controller-2", now=4, ttl=5) is None
        assert lease.current()[0] == "controller-1"

    def test_takeover_after_expiry_bumps_the_token(self):
        lease = LeaseStore()
        lease.acquire("controller-1", now=0, ttl=5)
        assert lease.acquire("controller-2", now=5, ttl=5) == 2
        # the old holder coming back is itself a new leadership epoch
        assert lease.acquire("controller-1", now=10, ttl=5) == 3

    def test_tokens_survive_process_restarts(self, tmp_path):
        path = tmp_path / "state.db"
        first = LeaseStore(path)
        first.acquire("controller-1", now=0, ttl=5)
        first.close()
        second = LeaseStore(path)
        assert second.acquire("controller-2", now=9, ttl=5) == 2

    def test_renew_refuses_a_non_holder(self):
        lease = LeaseStore()
        lease.acquire("controller-1", now=0, ttl=5)
        assert lease.renew("controller-2", now=1, ttl=5) is None

    def test_release_lets_the_next_holder_in_immediately(self):
        lease = LeaseStore()
        lease.acquire("controller-1", now=0, ttl=5)
        lease.release("controller-1")
        assert lease.acquire("controller-2", now=1, ttl=5) == 2

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError):
            LeaseStore().acquire("x", now=0, ttl=0)

    def test_renew_never_grants_a_fresh_token(self, tmp_path, monkeypatch):
        """A takeover and release landing between renew's holder check
        and its write must not turn the renewal into a grant: the check
        runs under the write lock, and a renewal keeps holder and token."""
        a, b = LeaseStore(tmp_path / "state.db"), LeaseStore(tmp_path / "state.db")
        assert a.acquire("A", now=0, ttl=5) == 1
        read = LeaseStore.current
        raced = []

        def current(self):
            row = read(self)
            if self is a and not raced and not a._db.connection.in_transaction:
                # A read the row without the write lock: B slips in, takes
                # the expired lease over and gives it back
                raced.append(row)
                assert b.acquire("B", now=10, ttl=5) == 2
                b.release("B")
            return row

        monkeypatch.setattr(LeaseStore, "current", current)
        token = a.renew("A", now=11, ttl=5)
        monkeypatch.undo()
        assert (token, a.current()) in [(1, ("A", 1, 16)), (None, ("B", 2, 0))]
        a.close()
        b.close()


class TestDurableStateStore:
    def test_directory_layout(self, tmp_path):
        store = DurableStateStore(tmp_path / "state")
        store.journal.append("tick", now=1)
        store.snapshots.save("controller", 1, 1, {})
        store.lease.acquire("controller-1", now=1, ttl=5)
        record_rows(store.archive, [("Blade1", "cpu", 1, 0.5)])
        names = {p.name for p in (tmp_path / "state").iterdir()}
        assert names == {"state.db", "state.db-wal", "state.db-shm"}
        store.close()
        # SQLite removes -wal/-shm when the last connection closes
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["state.db"]
        store.close()  # idempotent

    def test_memory_store_works_without_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = DurableStateStore(None)
        store.journal.append("tick", now=1)
        store.snapshots.save("controller", 1, 1, {"tick": 1})
        record_rows(store.archive, [("Blade1", "cpu", 1, 0.5)])
        assert store.snapshots.load("controller")["payload"] == {"tick": 1}
        store.close()
        assert list(tmp_path.iterdir()) == []


def _records(*entries):
    return [
        JournalRecord(seq=i + 1, kind=kind, data=data)
        for i, (kind, data) in enumerate(entries)
    ]


class TestReplayJournal:
    def test_replay_folds_every_record_kind(self):
        records = _records(
            ("tick", {"now": 720}),
            ("protect", {"subject": "host:Blade1", "until": 750}),
            ("observation-open", {"subject": "FI#1", "kind": "instanceOverloaded"}),
            ("approval-request", {"request_id": "apr-000001", "time": 720}),
            ("restart-pending", {"service_name": "FI", "preferred_host": "Blade2"}),
            ("action-intent", {"intent_id": "controller-1:000001", "action": "move"}),
        )
        state = replay_journal(None, records)
        assert state["tick"] == 720
        assert state["protection"] == {"host:Blade1": 750}
        assert "FI#1|instanceOverloaded" in state["observations"]
        assert state["approvals"]["apr-000001"]["status"] == "pending"
        assert state["approval_sequence"] == 1
        assert state["pending_restarts"] == {"FI": "Blade2"}
        assert "controller-1:000001" in state["intents"]

    def test_commit_resolves_its_intent(self):
        records = _records(
            ("action-intent", {"intent_id": "c:000001", "action": "move"}),
            ("action-commit", {"intent_id": "c:000001", "status": "ok"}),
            ("action-intent", {"intent_id": "c:000002", "action": "stop"}),
        )
        state = replay_journal(None, records)
        # only the uncommitted intent survives: it was in flight at the
        # crash and is what reconciliation must resolve
        assert set(state["intents"]) == {"c:000002"}

    def test_protection_max_merges(self):
        records = _records(
            ("protect", {"subject": "host:Blade1", "until": 800}),
            ("protect", {"subject": "host:Blade1", "until": 750}),
        )
        assert replay_journal(None, records)["protection"] == {"host:Blade1": 800}

    def test_answer_and_expiry_are_first_writer_wins(self):
        records = _records(
            ("approval-request", {"request_id": "apr-000003", "time": 700}),
            ("approval-answer",
             {"request_id": "apr-000003", "approved": True, "time": 710}),
            ("approval-expired", {"request_id": "apr-000003", "time": 940}),
        )
        request = replay_journal(None, records)["approvals"]["apr-000003"]
        assert request["status"] == "approved"
        assert request["answered_at"] == 710

    def test_replay_is_idempotent(self):
        """The acceptance property: double replay == single replay."""
        records = _records(
            ("tick", {"now": 720}),
            ("protect", {"subject": "host:Blade1", "until": 750}),
            ("observation-open", {"subject": "FI#1", "kind": "instanceOverloaded"}),
            ("observation-close", {"subject": "FI#1", "kind": "instanceOverloaded"}),
            ("approval-request", {"request_id": "apr-000001", "time": 720}),
            ("approval-expired", {"request_id": "apr-000001", "time": 960}),
            ("restart-pending", {"service_name": "FI", "preferred_host": ""}),
            ("action-intent", {"intent_id": "c:000001", "action": "move"}),
            ("action-commit", {"intent_id": "c:000001", "status": "ok"}),
        )
        once = replay_journal(None, records)
        twice = replay_journal(None, records + records)
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )

    def test_replaying_onto_an_overlapping_snapshot_is_stable(self):
        """A suffix that partially overlaps the snapshot cannot corrupt it."""
        records = _records(
            ("protect", {"subject": "host:Blade1", "until": 750}),
            ("approval-request", {"request_id": "apr-000002", "time": 720}),
        )
        base = replay_journal(None, records)
        base_payload = {
            "tick": base["tick"],
            "protection": base["protection"],
            "observations": list(base["observations"].values()),
            "approvals": list(base["approvals"].values()),
            "approval_sequence": base["approval_sequence"],
            "pending_restarts": base["pending_restarts"],
        }
        merged = replay_journal(base_payload, records)
        assert merged["protection"] == base["protection"]
        assert merged["approvals"] == base["approvals"]
        assert merged["approval_sequence"] == base["approval_sequence"]

    def test_unknown_kinds_are_skipped(self):
        records = _records(("from-the-future", {"x": 1}), ("tick", {"now": 5}))
        assert replay_journal(None, records)["tick"] == 5


_LEASE_RACER = """
import os, sys, time
from repro.core.state import LeaseStore

path, holder, go_file, rounds = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
)
store = LeaseStore(path)
while not os.path.exists(go_file):
    time.sleep(0.001)
# both processes share the go-file's mtime as their clock epoch, so
# "now" (in ms) advances identically for both and every lease (ttl 2ms)
# expires almost immediately -- a takeover race roughly every round
epoch = os.path.getmtime(go_file)
for k in range(rounds):
    now = int((time.time() - epoch) * 1000)
    token = store.acquire(holder, now=now, ttl=2)
    if token is not None:
        print(f"{holder} {token}")
        # sleep past our own ttl so the peer gets a takeover window
        time.sleep(0.004)
store.close()
"""


class TestLeaseFencingAcrossProcesses:
    def test_two_processes_never_hold_the_same_token(self, tmp_path):
        """Two real processes hammer one state.db; tokens never overlap.

        Each round's lease (ttl 1 minute) is expired by the next round,
        so both processes race for the takeover ~every round.  A change
        of holder always bumps the token and a renewal never does, so
        token <-> holder is a bijection — unless two processes both win
        the same takeover, which is exactly the expiry race the
        BEGIN IMMEDIATE transaction in LeaseStore.acquire prevents.
        """
        import subprocess
        import sys as _sys

        db = tmp_path / "state.db"
        go = tmp_path / "go"
        procs = [
            subprocess.Popen(
                [_sys.executable, "-c", _LEASE_RACER,
                 str(db), holder, str(go), "300"],
                stdout=subprocess.PIPE,
                text=True,
            )
            for holder in ("proc-a", "proc-b")
        ]
        go.touch()  # both children spin on this: near-simultaneous start
        outputs = [p.communicate(timeout=120)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        holders_by_token = {}
        for output in outputs:
            for line in output.splitlines():
                holder, token = line.split()
                holders_by_token.setdefault(int(token), set()).add(holder)
        assert holders_by_token, "neither process ever acquired the lease"
        overlapping = {
            token: sorted(holders)
            for token, holders in holders_by_token.items()
            if len(holders) > 1
        }
        assert overlapping == {}
        # both processes took leadership at least once (the race happened)
        everyone = set().union(*holders_by_token.values())
        assert everyone == {"proc-a", "proc-b"}


_KILLED_MID_TICK = """
import os, signal, sys
import numpy as np
from repro.core.state import DurableStateStore
from repro.telemetry.records import LoadReportBatch

store = DurableStateStore(sys.argv[1])
store.lease.acquire("controller-1", now=1, ttl=5)
store.journal.append("tick", now=1)
store.snapshots.save("controller", 1, store.journal.last_seq, {"tick": 1})
series = tuple((f"Blade{i}", "cpu") for i in range(65))
store.archive.record_reports(LoadReportBatch(1, series, np.full(65, 0.5)))
store.journal.append("action-intent", intent_id="controller-1:000001", action="move")


def half_a_batch():
    for i in range(65):
        if i == 32:
            os.kill(os.getpid(), signal.SIGKILL)
        yield 0.5


store.archive.record_reports(
    LoadReportBatch(2, series, np.fromiter(half_a_batch(), dtype=float))
)
"""


class TestCrashSafety:
    """Guarantees (a)-(d) of the one state file, each broken by hand once."""

    def test_sigkill_between_intent_and_commit_mid_archive_batch(self, tmp_path):
        child = _python(_KILLED_MID_TICK, tmp_path)
        assert child.wait(timeout=60) == -signal.SIGKILL, child.stderr.read()
        assert {p.name for p in tmp_path.iterdir()} <= {
            "state.db", "state.db-wal", "state.db-shm",
        }
        store = DurableStateStore(tmp_path)  # passes quick_check
        records = store.journal.since(0)
        assert [r.seq for r in records] == [1, 2]
        assert records[-1].kind == "action-intent"
        # (a) the intent was committed when append() returned, so replay
        # leaves it for reconciliation
        assert set(replay_journal(None, records)["intents"]) == {
            "controller-1:000001"
        }
        assert store.snapshots.load("controller")["payload"] == {"tick": 1}
        assert store.lease.current() == ("controller-1", 1, 6)
        # (c) the batch the kill interrupted is absent, the one before whole
        assert len(store.archive.subjects()) == 65
        assert store.archive.history("Blade0", "cpu") == [(1, 0.5)]
        store.close()

    def test_lease_transaction_commits_with_an_fsync(self, tmp_path):
        """(b) synchronous=FULL (2) inside acquire, NORMAL (1) around it."""
        store = DurableStateStore(tmp_path)
        real = store.db.connection

        class Spy:
            seen = []

            def execute(self, sql, *args):
                if sql == "COMMIT":
                    self.seen.append(
                        real.execute("PRAGMA synchronous").fetchone()[0]
                    )
                return real.execute(sql, *args)

        store.db.connection = Spy()
        assert store.lease.acquire("controller-1", now=0, ttl=5) == 1
        assert store.lease.renew("controller-1", now=1, ttl=5) == 1
        assert store.lease.acquire("controller-2", now=9, ttl=5) == 2
        assert Spy.seen == [2, 2, 2]
        assert real.execute("PRAGMA synchronous").fetchone()[0] == 1
        store.db.connection = real
        store.close()

    def test_a_flipped_page_is_a_typed_error(self, tmp_path):
        """(d) one corruption rule: StateCorruptError naming the file."""
        store = DurableStateStore(tmp_path)
        for now in range(400):
            store.journal.append("tick", now=now, padding="x" * 64)
        store.close()
        path = tmp_path / "state.db"
        page_size = 4096
        assert path.stat().st_size > 8 * page_size
        with open(path, "r+b") as handle:
            handle.seek(6 * page_size)
            handle.write(b"\xff" * page_size)
        with pytest.raises(StateCorruptError, match="move the file aside") as caught:
            DurableStateStore(tmp_path)
        assert caught.value.path == str(path)
        assert path.exists()  # nothing was moved or rebuilt

    def test_a_file_that_is_not_a_database_is_a_typed_error(self, tmp_path):
        (tmp_path / "state.db").write_bytes(b"never a SQLite database" * 100)
        with pytest.raises(StateCorruptError):
            LeaseStore(tmp_path / "state.db")

    def test_a_torn_archive_row_is_a_typed_error(self, tmp_path):
        """A minute's blob must be 8 bytes per series of its layout, and a
        layout may name only stored series; SQLite's own check cannot
        tell, so the archive's load at open does, and the store closes
        the file before it raises."""
        store = DurableStateStore(tmp_path)
        for now in (1, 2):
            record_rows(store.archive, [(f"Blade{i}", "cpu", now, 0.5) for i in range(3)])
        store.close()
        path = tmp_path / "state.db"

        def vandalize(*statements):
            vandal = sqlite3.connect(path)
            with vandal:
                for statement in statements:
                    vandal.execute(statement)
            vandal.close()

        vandalize("UPDATE load_minutes SET vals = substr(vals, 1, 12) WHERE time = 2")
        with pytest.raises(StateCorruptError, match="minute 2") as caught:
            DurableStateStore(tmp_path)  # passes quick_check
        assert caught.value.path == str(path)
        # the last connection closed: SQLite removed the WAL
        assert not (tmp_path / "state.db-wal").exists()
        vandalize(
            "UPDATE load_minutes SET vals = zeroblob(24) WHERE time = 2",
            "DELETE FROM load_series WHERE subject = 'Blade1'",
        )
        with pytest.raises(StateCorruptError, match="unknown series") as caught:
            DurableStateStore(tmp_path)
        assert caught.value.path == str(path)
        assert not (tmp_path / "state.db-wal").exists()

    @pytest.mark.parametrize("version", [0, 2, 3, 4, 5, 7])
    def test_a_state_file_of_another_format_is_refused(self, tmp_path, version):
        """Format 0 kept one archive row per sample, format 2 a copy of
        situations and actions in the archive, format 3 a flat run's
        snapshot without a plane of domains, format 4 the run's history
        outside the result collector, format 5 a copy of it in the
        collector's payload, 7 is from the future:
        refused, never resumed into an empty archive; no table is added
        to the file."""
        path = tmp_path / "state.db"

        def schema():
            with sqlite3.connect(path) as reader:
                return reader.execute(
                    "SELECT name FROM sqlite_master"
                ).fetchall(), reader.execute("PRAGMA user_version").fetchone()

        with sqlite3.connect(path) as other:
            other.execute("CREATE TABLE journal (seq INTEGER PRIMARY KEY)")
            other.execute(f"PRAGMA user_version = {version}")
        assert schema() == ([("journal",)], (version,))
        with pytest.raises(StateCorruptError, match=f"state format {version},") as caught:
            DurableStateStore(tmp_path)
        assert caught.value.path == str(path)
        assert schema() == ([("journal",)], (version,))

    def test_a_failed_transaction_rolls_back(self):
        db = StateDb()
        with pytest.raises(sqlite3.IntegrityError):
            with db.transaction() as connection:
                connection.execute(
                    "INSERT INTO journal (seq, kind, data) VALUES (1, 'tick', '{}')"
                )
                connection.execute(
                    "INSERT INTO journal (seq, kind, data) VALUES (1, 'tick', '{}')"
                )
        assert StateJournal(db).last_seq == 0


_KILLED_MID_GROUP = """
import os, signal, sys
import numpy as np
from repro.core.state import DurableStateStore
from repro.telemetry.records import LoadReportBatch

store = DurableStateStore(sys.argv[1])
store.db.grouped = True  # what StateDb.group() does around a run loop
series = tuple((f"Blade{i}", "cpu") for i in range(65))
store.journal.append("tick", now=1)
store.archive.record_reports(LoadReportBatch(1, series, np.full(65, 0.5)))
store.journal.append("action-intent", intent_id="controller-1:000001", action="move")
store.journal.append("tick", now=2)
store.archive.record_reports(LoadReportBatch(2, series, np.full(65, 0.5)))
store.snapshots.save("controller", 2, store.journal.last_seq, {"tick": 2})
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWriteGroups:
    """A run loop's writes between two commit points are one transaction."""

    def test_a_kill_mid_group_leaves_the_last_commit_point(self, tmp_path):
        child = _python(_KILLED_MID_GROUP, tmp_path)
        assert child.wait(timeout=60) == -signal.SIGKILL, child.stderr.read()
        store = DurableStateStore(tmp_path)
        # the intent committed everything the group wrote before it ...
        assert [r.kind for r in store.journal.since(0)] == ["tick", "action-intent"]
        assert store.archive.history("Blade64", "cpu") == [(1, 0.5)]
        # ... and nothing after it reached the file
        assert store.snapshots.load("controller") is None
        store.close()

    def test_another_connection_sees_only_commit_points(self, tmp_path):
        store = DurableStateStore(tmp_path)
        reader = open_readonly(tmp_path / "state.db")

        def committed():
            return reader.execute("SELECT COUNT(*) FROM journal").fetchone()[0]

        with store.db.group():
            store.journal.append("tick", now=1)
            record_rows(store.archive, [("Blade1", "cpu", 1, 0.5)])
            assert (store.journal.last_seq, committed()) == (1, 0)
            store.journal.append("action-intent", intent_id="c:1")
            assert committed() == 2
            store.journal.append("tick", now=2)
            store.snapshots.save("run", 2, 3, {})
            assert committed() == 2
            store.db.commit_group()  # the run snapshot's commit point
            assert committed() == 3
            store.journal.append("tick", now=3)
        assert committed() == 4  # the end of the group is one too
        reader.close()
        store.close()

    def test_a_grant_is_fsynced_alone_and_a_renewal_joins_unsynced(self, tmp_path):
        store = DurableStateStore(tmp_path)
        real = store.db.connection
        seen = []

        class Spy:
            def execute(self, sql, *args):
                if sql == "COMMIT":
                    seen.append(real.execute("PRAGMA synchronous").fetchone()[0])
                return real.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(real, name)

        store.db.connection = Spy()
        with store.db.group():
            store.journal.append("tick", now=0)
            # the group commits at NORMAL (1), then the grant at FULL (2)
            assert store.lease.acquire("controller-1", now=0, ttl=5) == 1
            assert seen == [1, 2]
            assert store.lease.acquire("controller-1", now=1, ttl=5) == 1
            assert store.lease.renew("controller-1", now=2, ttl=5) == 1
            assert seen == [1, 2]  # renewals joined the group
            assert store.lease.acquire("controller-2", now=9, ttl=5) == 2
            assert seen == [1, 2, 1, 2]  # a takeover is a grant
        assert seen == [1, 2, 1, 2]
        assert real.execute("PRAGMA synchronous").fetchone()[0] == 1
        store.db.connection = real
        assert store.lease.current() == ("controller-2", 2, 14)
        store.close()

    def test_an_exception_rolls_the_group_back(self, tmp_path):
        store = DurableStateStore(tmp_path)
        with pytest.raises(RuntimeError, match="torn tick"):
            with store.db.group():
                store.journal.append("action-intent", intent_id="c:1")
                store.journal.append("tick", now=1)
                record_rows(store.archive, [("Blade1", "cpu", 1, 0.5)])
                raise RuntimeError("torn tick")
        assert not store.db.grouped
        assert [r.kind for r in store.journal.since(0)] == ["action-intent"]
        assert store.archive.subjects() == []
        store.close()

    def test_a_rollback_reloads_the_archive_caches(self, tmp_path):
        """The series, layout and minute a rolled-back group wrote are gone
        from the file; the archive must not reuse them."""
        store = DurableStateStore(tmp_path)
        with pytest.raises(RuntimeError, match="torn tick"):
            with store.db.group():
                record_rows(store.archive, [("Blade1", "cpu", 1, 0.5)])
                raise RuntimeError("torn tick")
        record_rows(store.archive, [("Blade2", "cpu", 1, 0.25)])
        record_rows(store.archive, [("Blade1", "cpu", 2, 0.75)])
        for archive in (store.archive, DurableStateStore(tmp_path).archive):
            assert archive.subjects() == ["Blade1", "Blade2"]
            assert archive.history("Blade1", "cpu") == [(2, 0.75)]
            assert archive.history("Blade2", "cpu") == [(1, 0.25)]
            archive.close()

    def test_a_failed_transaction_in_a_group_is_a_savepoint(self):
        db = StateDb()
        journal = StateJournal(db)
        with db.group():
            journal.append("tick", now=1)
            with pytest.raises(sqlite3.IntegrityError):
                with db.transaction() as connection:
                    for _ in range(2):
                        connection.execute(
                            "INSERT INTO journal (seq, kind, data) "
                            "VALUES (5, 'tick', '{}')"
                        )
            assert journal.last_seq == 1
        assert [r.data for r in journal.since(0)] == [{"now": 1}]
        db.close()


_LEASE_SIDE = """
import sys
from repro.core.state import LeaseStore

# what SessionManager does to a domain's state.db: grants under changing
# holders, renewals, releases
lease = LeaseStore(sys.argv[1])
for k in range(int(sys.argv[2])):
    holder = f"domain-1/session-{k // 3}"
    token = lease.acquire(holder, now=k, ttl=60)
    if token is None:
        lease.release(lease.current()[0])
        token = lease.acquire(holder, now=k, ttl=60)
    lease.renew(holder, now=k, ttl=60)
    print(holder, token)
lease.close()
"""

_AGENT_SIDE = """
import sys
import numpy as np
from repro.core.state import DurableStateStore
from repro.telemetry.records import LoadReportBatch

# what an agent does to it: journal rows and one 65-sample archive batch a tick
store = DurableStateStore(sys.argv[1])
series = tuple((f"Blade{i}", "cpu") for i in range(65))
for now in range(int(sys.argv[2])):
    store.journal.append("action-intent", intent_id=f"c:{now}")
    store.archive.record_reports(LoadReportBatch(now, series, np.full(65, 0.5)))
    store.journal.append("action-commit", intent_id=f"c:{now}")
    store.journal.append("tick", now=now)
    store.snapshots.save("controller", now, store.journal.last_seq, {"tick": now})
store.close()
"""


_FRESH_OPENER = """
import os, sqlite3, sys
from repro.core.state import StateDb

# a two-party barrier per round, then both open the same fresh file: the
# WAL switch of one opener meets the other's lock every few rounds
directory, me, peer, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
failures = 0
for k in range(rounds):
    open(os.path.join(directory, f"ready-{k}-{me}"), "w").close()
    while not os.path.exists(os.path.join(directory, f"ready-{k}-{peer}")):
        pass
    try:
        StateDb(os.path.join(directory, f"state-{k}.db")).close()
    except sqlite3.OperationalError as error:
        failures += 1
        print(k, error, file=sys.stderr)
print(failures)
"""


class TestTwoProcessesOneFile:
    def test_two_openers_of_a_fresh_file_both_get_it(self, tmp_path):
        """Switching a fresh file to WAL waits out the other opener within
        ``BUSY_TIMEOUT_MS``; no ``database is locked`` escapes the open."""
        rounds = 200
        openers = [
            _python(_FRESH_OPENER, tmp_path, me, peer, rounds)
            for me, peer in (("a", "b"), ("b", "a"))
        ]
        for opener in openers:
            failures, errors = opener.communicate(timeout=120)
            assert opener.returncode == 0, errors
            assert failures.strip() == "0", errors
        for k in range(rounds):
            db = StateDb(tmp_path / f"state-{k}.db")
            assert db.connection.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            db.close()

    def test_server_leases_and_agent_writes_share_state_db(self, tmp_path):
        """No ``database is locked`` escapes busy_timeout, tokens never
        repeat across holders, the journal stays gapless."""
        rounds = 300
        server = _python(_LEASE_SIDE, tmp_path / "state.db", rounds)
        agent = _python(_AGENT_SIDE, tmp_path, rounds)
        grants, server_err = server.communicate(timeout=120)
        __, agent_err = agent.communicate(timeout=120)
        assert server.returncode == 0, server_err
        assert agent.returncode == 0, agent_err
        holder_of = {}
        for line in grants.splitlines():
            holder, token = line.split()
            assert holder_of.setdefault(int(token), holder) == holder
        assert sorted(holder_of) == list(range(1, rounds // 3 + 1))
        store = DurableStateStore(tmp_path)
        assert [r.seq for r in store.journal.since(0)] == list(
            range(1, 3 * rounds + 1)
        )
        assert len(store.archive.history("Blade64", "cpu")) == rounds
        store.close()
        assert [p.name for p in tmp_path.iterdir()] == ["state.db"]


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 50)),
        st.tuples(st.just("save"), st.sampled_from(["controller", "run"]),
                  st.integers(0, 50)),
        st.tuples(st.just("reports"), st.integers(0, 50),
                  st.lists(st.sampled_from(["Blade1", "Blade2", "FI#1"]),
                           unique=True, max_size=3)),
        st.tuples(st.just("rewind"), st.integers(0, 8), st.integers(0, 50)),
        st.tuples(st.just("reopen")),
        # write groups: an intent and a commit are commit points, a crash
        # (the connection dies, nothing commits) falls back to the last one
        st.tuples(st.just("intent"), st.integers(0, 50)),
        st.tuples(st.just("group")),
        st.tuples(st.just("commit")),
        st.tuples(st.just("crash")),
    ),
    max_size=30,
)


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
@settings(max_examples=40, deadline=None)
@given(operations=_OPERATIONS)
def test_store_equals_a_plain_dict_model(tmp_path_factory, on_disk, operations):
    """One code path: the file and ``:memory:`` run the same body; the
    only difference is what a reopen (or a crash) finds."""
    directory = tmp_path_factory.mktemp("state") if on_disk else None
    store = DurableStateStore(directory)
    journal, snapshots, samples = [], {}, {}
    committed = ([], {}, {})
    for operation in operations:
        if operation[0] == "append":
            record = store.journal.append("tick", now=operation[1])
            journal.append({"now": operation[1]})
            assert record.seq == len(journal)
        elif operation[0] == "intent":
            store.journal.append("action-intent", intent_id=str(operation[1]))
            journal.append({"intent_id": str(operation[1])})
        elif operation[0] == "save":
            __, kind, tick = operation
            store.snapshots.save(kind, tick, len(journal), {"tick": tick})
            snapshots[kind] = (tick, len(journal))
        elif operation[0] == "reports":
            __, time, subjects = operation
            record_rows(store.archive, [(s, "cpu", time, 0.25) for s in subjects])
            samples.update({(s, time): 0.25 for s in subjects})
        elif operation[0] == "rewind":
            __, seq, tick = operation
            store.rewind(seq, tick)
            del journal[seq:]
            samples = {key: v for key, v in samples.items() if key[1] <= tick}
        elif operation[0] == "group":
            store.db.grouped = True  # what StateDb.group() does around a run loop
        elif operation[0] == "commit":
            store.db.commit_group()
        elif operation[0] == "crash":
            store.db.connection.close()  # the process dies: nothing commits
            store = DurableStateStore(directory)
            journal, snapshots, samples = (
                (list(committed[0]), dict(committed[1]), dict(committed[2]))
                if on_disk else ([], {}, {})
            )
        else:
            store.close()  # a commit point
            store = DurableStateStore(directory)
            if not on_disk:
                journal, snapshots, samples = [], {}, {}
        if not store.db.grouped or operation[0] in ("intent", "commit"):
            committed = (list(journal), dict(snapshots), dict(samples))
        assert store.journal.last_seq == len(journal)
        assert [r.data for r in store.journal.since(0)] == journal
        for kind in ("controller", "run"):
            loaded = store.snapshots.load(kind)
            assert (loaded and (loaded["tick"], loaded["journal_seq"])) == snapshots.get(kind)
        for subject in ("Blade1", "Blade2", "FI#1"):
            assert dict(store.archive.history(subject, "cpu")) == {
                time: value for (s, time), value in samples.items() if s == subject
            }
    store.close()
