"""Durable controller state: one ``state.db`` per state directory.

The paper's controller is the one component AutoGlobe cannot heal: every
self-organizing decision (the Figure 6 loop, protection mode,
semi-automatic approvals) lives in the controller process, and losing it
collapses availability toward the no-controller floor.  This module
makes the administration layer as fault-tolerant as the landscape it
administers.  Everything durable is a table of one SQLite file, opened
once by :class:`StateDb`:

* ``journal`` (:class:`StateJournal`) — the write-ahead journal of the
  controller's soft state: protection-registry entries, LMS watch-time
  observation progress, pending semi-automatic approvals and the
  executor's two-phase action log (intent before the platform mutates,
  commit after).  An ``action-intent`` is committed before ``append``
  returns.
* ``snapshots`` (:class:`SnapshotStore`) — the latest full-state
  snapshot of each kind, saved all-or-nothing, so recovery replays only
  the journal suffix past the snapshot.
* ``lease`` (:class:`LeaseStore`) — the leader lease with monotonically
  increasing *fencing tokens*; a grant is fsynced before ``acquire``
  returns.  A new leadership grant bumps the token; the platform
  rejects actions carrying an older one
  (:class:`~repro.serviceglobe.actions.FencedActionError`), so a deposed
  or partitioned leader cannot double-apply actions.
* ``load_series`` / ``load_layouts`` / ``load_minutes`` / ``admin_events``
  — the load archive (:class:`~repro.monitoring.archive.SqliteLoadArchive`):
  one row per minute, its samples packed as float64 in the order of a
  layout of interned series ids; one all-or-nothing batch per tick.
* ``events`` / ``meta`` — the telemetry event log
  (:class:`~repro.ops.store.TelemetryStore`): a domain agent's stream in
  its own ``state.db``, a runner's or the federation server's merged
  stream in a ``store.db`` that is a state file like any other.

When a row commits: outside a write group, when the statement (or the
:meth:`StateDb.transaction`) that wrote it returns.  A run loop whose
file no other process writes groups its writes (:meth:`StateDb.group`),
and then a row commits at the next *commit point* — the next run
snapshot, ``action-intent``, lease grant or the end of the run —
together with everything the group wrote before it.  A crash loses
what the group wrote since the last commit point: rows a resume, which
rewinds to the last run snapshot, would drop anyway.  A rollback bumps
:attr:`StateDb.rollbacks`, so a cache of rows reloads.

Every file a run leaves is opened here and nowhere else — read-write by
:class:`StateDb`, read-only by :func:`open_readonly` — and one that
fails its integrity check on open raises :class:`StateCorruptError`;
nothing is skipped, dropped or rebuilt.  So does a read-write open of a
file whose ``PRAGMA user_version`` is not :data:`STATE_FORMAT` (format 0
is one from before the load archive packed one row per minute): it is
never read as an empty archive.
:func:`replay_journal` is the idempotent fold from (snapshot, journal
suffix) back to controller state: whatever action intent it leaves
unresolved was in flight when the controller died and must be
reconciled against the platform.  :class:`DurableStateStore` bundles the
accessors behind one directory (or ``":memory:"`` for hot-standby
failover without persistence).
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config.model import Action
from repro.monitoring.archive import SqliteLoadArchive
from repro.serviceglobe.actions import ActionOutcome

__all__ = [
    "STATE_FILE",
    "STATE_FORMAT",
    "StateCorruptError",
    "StateDb",
    "open_readonly",
    "JournalRecord",
    "StateJournal",
    "SnapshotStore",
    "LeaseStore",
    "DurableStateStore",
    "replay_journal",
    "outcome_to_dict",
    "outcome_from_dict",
]


# -- codecs ---------------------------------------------------------------------------


def outcome_to_dict(outcome: ActionOutcome) -> Dict[str, Any]:
    """JSON-able form of an audit record (the Action enum by value)."""
    return {
        "time": outcome.time,
        "action": outcome.action.value,
        "service_name": outcome.service_name,
        "instance_id": outcome.instance_id,
        "source_host": outcome.source_host,
        "target_host": outcome.target_host,
        "applicability": outcome.applicability,
        "note": outcome.note,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "duration": outcome.duration,
    }


def outcome_from_dict(payload: Dict[str, Any]) -> ActionOutcome:
    return ActionOutcome(
        time=int(payload["time"]),
        action=Action(payload["action"]),
        service_name=payload["service_name"],
        instance_id=payload.get("instance_id"),
        source_host=payload.get("source_host"),
        target_host=payload.get("target_host"),
        applicability=payload.get("applicability"),
        note=payload.get("note", ""),
        status=payload.get("status", "ok"),
        attempts=int(payload.get("attempts", 1)),
        duration=float(payload.get("duration", 0.0)),
    )


# -- the one state file ---------------------------------------------------------------

#: name of the state file inside a state directory
STATE_FILE = "state.db"


class StateCorruptError(Exception):
    """A state file failed its integrity check, is of a format this
    version does not read, or holds a row its table cannot hold; nothing
    in it (journal, snapshots, lease, load archive, events) is trusted,
    repaired or skipped."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(
            f"state database {path!r} cannot be used ({detail}); move the "
            "file aside to start over from empty state"
        )
        self.path = path
        self.detail = detail


#: ``PRAGMA user_version`` of the state files this version writes and
#: reads.  A file of format 0 was written before the load archive packed
#: one row per minute; nothing here reads its per-sample table, so it is
#: refused rather than resumed into an empty archive.
STATE_FORMAT = 2

#: How long a connection waits for a competing process's transaction
#: before giving up; transactions here are tiny, so contention clears in
#: microseconds and this is pure safety margin.
BUSY_TIMEOUT_MS = 5_000


def _checked(
    connection: sqlite3.Connection, path: str, setup: str = ""
) -> sqlite3.Connection:
    """Finish an open: the setup script, then the integrity check.  A
    damaged file closes the connection and is a :class:`StateCorruptError`."""
    try:
        deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000
        while True:
            try:
                connection.executescript(
                    f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS};" + setup
                )
                break
            except sqlite3.OperationalError as error:
                # switching a fresh file to WAL does not wait on the busy
                # handler while another opener holds it: retry the switch
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.001)
        # surface torn pages now, not on some later query
        try:
            status = connection.execute("PRAGMA quick_check").fetchone()
        except UnicodeDecodeError as error:  # a complaint quoting torn bytes
            status = (str(error),)
        if status is None or status[0] != "ok":
            raise sqlite3.DatabaseError(f"integrity check failed: {status}")
    except sqlite3.DatabaseError as error:
        connection.close()
        if isinstance(error, sqlite3.OperationalError):
            raise  # locked or unwritable, not damaged
        raise StateCorruptError(path, str(error)) from error
    return connection


def open_readonly(path: Union[str, Path]) -> sqlite3.Connection:
    """A checked read-only connection to a state file, one a run may
    still be writing (``autoglobe verify`` / ``tail``, the federation
    merge)."""
    return _checked(
        sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True), str(path)
    )


class StateDb:
    """The one read-write SQLite connection to a state file (or
    ``":memory:"``).

    WAL mode lets the federation server renew a domain's lease while the
    domain's agent journals into the same file.  The connection is in
    autocommit mode: a single statement is committed (handed to the OS at
    ``synchronous=NORMAL``, which survives ``kill -9``) when ``execute``
    returns; anything spanning statements runs in :meth:`transaction`.

    Inside :meth:`group` the writes of every accessor join one open
    transaction instead, begun by the first of them and committed only at
    a *commit point* (:meth:`commit_group`): a run snapshot, an
    ``action-intent``, a lease grant, the end of the group.  Only a run
    loop whose file no other process writes opens one.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS journal (
        seq  INTEGER PRIMARY KEY,
        kind TEXT NOT NULL,
        data TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS snapshots (
        kind        TEXT PRIMARY KEY,
        tick        INTEGER NOT NULL,
        journal_seq INTEGER NOT NULL,
        payload     TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS lease (
        id         INTEGER PRIMARY KEY CHECK (id = 1),
        holder     TEXT NOT NULL,
        token      INTEGER NOT NULL,
        expires_at INTEGER NOT NULL
    );
    CREATE TABLE IF NOT EXISTS load_series (
        id      INTEGER PRIMARY KEY,
        subject TEXT NOT NULL,
        metric  TEXT NOT NULL,
        UNIQUE (subject, metric)
    );
    CREATE TABLE IF NOT EXISTS load_layouts (
        id     INTEGER PRIMARY KEY,
        series BLOB NOT NULL UNIQUE
    );
    CREATE TABLE IF NOT EXISTS load_minutes (
        time   INTEGER PRIMARY KEY,
        layout INTEGER NOT NULL,
        vals   BLOB NOT NULL
    );
    CREATE TABLE IF NOT EXISTS admin_events (
        id       INTEGER PRIMARY KEY AUTOINCREMENT,
        time     INTEGER NOT NULL,
        category TEXT NOT NULL,
        subject  TEXT NOT NULL,
        details  TEXT NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_events_time ON admin_events (time);
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

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        self.connection = _checked(
            sqlite3.connect(self.path, isolation_level=None),
            self.path,
            "PRAGMA journal_mode = WAL; PRAGMA synchronous = NORMAL;",
        )
        self._adopt()
        self._closed = False
        #: inside :meth:`group`: writes join one open transaction
        self.grouped = False
        #: transactions rolled back so far: a cache of rows (the load
        #: archive's series and layouts) reloads when this moves
        self.rollbacks = 0

    def _adopt(self) -> None:
        """Create the schema in a fresh file; refuse a file of another
        format (:data:`STATE_FORMAT`) with a :class:`StateCorruptError`."""
        connection = self.connection
        if connection.execute("PRAGMA user_version").fetchone()[0] == STATE_FORMAT:
            return
        try:
            # under the write lock: of two openers of a fresh file, one
            # creates the schema and the other finds it
            connection.execute("BEGIN IMMEDIATE")
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            fresh = connection.execute("SELECT COUNT(*) FROM sqlite_master").fetchone()
            if version == 0 and fresh[0] == 0:
                for statement in self._SCHEMA.split(";"):
                    connection.execute(statement)
                connection.execute(f"PRAGMA user_version = {STATE_FORMAT}")
                version = STATE_FORMAT
            connection.execute("COMMIT" if version == STATE_FORMAT else "ROLLBACK")
        except BaseException:
            if connection.in_transaction:
                connection.execute("ROLLBACK")
            connection.close()
            raise
        if version != STATE_FORMAT:
            connection.close()
            raise StateCorruptError(
                self.path,
                f"state format {version}, this version reads format "
                f"{STATE_FORMAT} only; format 0 is a file from before the "
                "load archive packed one row per minute",
            )

    def execute(
        self, sql: str, parameters: Sequence[Any] = ()
    ) -> sqlite3.Cursor:
        """One write statement: it joins the open group, or outside one
        commits on its own."""
        self._join()
        return self.connection.execute(sql, parameters)

    def _join(self) -> None:
        if self.grouped and not self.connection.in_transaction:
            self.connection.execute("BEGIN IMMEDIATE")

    @contextmanager
    def transaction(self, fsync: bool = False) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` … ``COMMIT``; any exception rolls back.

        Inside a group it is a ``SAVEPOINT`` of the group's transaction
        instead: all-or-nothing within it, committed with it.

        ``fsync`` commits at ``synchronous=FULL`` (the WAL is synced
        before ``COMMIT`` returns: power loss, not just a killed
        process); the pragma only takes effect between transactions, so
        an fsynced transaction never joins a group: the group commits
        first, and the transaction runs on its own.
        """
        connection = self.connection
        if self.grouped and not fsync:
            self._join()
            connection.execute("SAVEPOINT grouped")
            try:
                yield connection
            except BaseException:
                self.rollbacks += 1
                if connection.in_transaction:
                    connection.execute("ROLLBACK TO grouped")
                    connection.execute("RELEASE grouped")
                raise
            connection.execute("RELEASE grouped")
            return
        self.commit_group()
        if fsync:
            connection.execute("PRAGMA synchronous = FULL")
        try:
            connection.execute("BEGIN IMMEDIATE")
            yield connection
            connection.execute("COMMIT")
        except BaseException:
            self.rollbacks += 1
            if connection.in_transaction:
                connection.execute("ROLLBACK")
            raise
        finally:
            if fsync:
                connection.execute("PRAGMA synchronous = NORMAL")

    @contextmanager
    def group(self) -> Iterator[None]:
        """Group every write until the block ends (a run loop's writes
        between two commit points).

        The block's end is a commit point; an exception rolls back what
        the group wrote since the last one, so a torn tick never reaches
        the file.  Nothing else may write the file meanwhile: the open
        transaction holds its write lock, and another connection sees
        only what was committed.
        """
        self.grouped = True
        try:
            yield
            self.commit_group()
        except BaseException:
            self.rollbacks += 1
            if not self._closed and self.connection.in_transaction:
                self.connection.execute("ROLLBACK")
            raise
        finally:
            self.grouped = False

    def commit_group(self) -> None:
        """A commit point: commit what the open group wrote so far (the
        group stays open; the next write begins its next transaction).
        Outside a group every write has committed already."""
        if self.grouped and not self._closed and self.connection.in_transaction:
            self.connection.execute("COMMIT")

    def close(self) -> None:
        """Commit an open group, fold the WAL into the file and close
        (idempotent); SQLite deletes ``-wal``/``-shm`` when the file's
        last connection closes."""
        if self._closed:
            return
        self.commit_group()
        self._closed = True
        try:
            self.connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            self.connection.close()


class _Table:
    """An accessor over a :class:`StateDb`: shares an open one, or opens
    its own on a path (closing the accessor closes the database)."""

    def __init__(self, db: Union[StateDb, str, Path] = ":memory:") -> None:
        self._db = db if isinstance(db, StateDb) else StateDb(db)

    def close(self) -> None:
        self._db.close()


# -- journal --------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry: a monotonically increasing sequence number, a
    record kind and a JSON-able payload."""

    seq: int
    kind: str
    data: Dict[str, Any]


class StateJournal(_Table):
    """Append-only write-ahead journal: the ``journal`` table.

    Every ``append`` is one row, so a reopened journal is a gapless
    prefix of what was appended.  Outside a write group the row commits
    on its own; inside one it commits with the group, except that an
    ``action-intent`` is a commit point: the intent (and whatever the
    group wrote before it) is committed before ``append`` returns, so an
    action never mutates the platform ahead of its durable intent.
    """

    @property
    def last_seq(self) -> int:
        row = self._db.connection.execute("SELECT MAX(seq) FROM journal").fetchone()
        return int(row[0] or 0)

    def append(self, kind: str, /, **data: Any) -> JournalRecord:
        # seq is the rowid: SQLite assigns max + 1, gapless across rewinds
        cursor = self._db.execute(
            "INSERT INTO journal (kind, data) VALUES (?, ?)",
            (kind, json.dumps(data)),
        )
        if kind == "action-intent":
            self._db.commit_group()
        return JournalRecord(seq=int(cursor.lastrowid or 0), kind=kind, data=data)

    def since(self, seq: int) -> List[JournalRecord]:
        """Records with a sequence number strictly greater than ``seq``."""
        cursor = self._db.connection.execute(
            "SELECT seq, kind, data FROM journal WHERE seq > ? ORDER BY seq", (seq,)
        )
        return [
            JournalRecord(seq=int(s), kind=str(k), data=json.loads(d))
            for s, k, d in cursor.fetchall()
        ]


# -- snapshots ------------------------------------------------------------------------


class SnapshotStore(_Table):
    """The latest snapshot of each kind: one row of the ``snapshots``
    table, replaced in a single statement, so a crash mid-write leaves
    the previous snapshot intact (inside a write group: the snapshot the
    group's last commit point left)."""

    def save(
        self, kind: str, tick: int, journal_seq: int, payload: Dict[str, Any]
    ) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO snapshots (kind, tick, journal_seq, payload) "
            "VALUES (?, ?, ?, ?)",
            (kind, tick, journal_seq, json.dumps(payload)),
        )

    def load(self, kind: str) -> Optional[Dict[str, Any]]:
        """The latest snapshot of a kind, or ``None``."""
        row = self._db.connection.execute(
            "SELECT tick, journal_seq, payload FROM snapshots WHERE kind = ?",
            (kind,),
        ).fetchone()
        if row is None:
            return None
        tick, journal_seq, payload = row
        return {"kind": kind, "tick": int(tick), "journal_seq": int(journal_seq),
                "payload": json.loads(payload)}


# -- leases ---------------------------------------------------------------------------


class LeaseStore(_Table):
    """A single leader lease with monotonic fencing tokens.

    The ``lease`` table of a state file (``:memory:`` by default), so
    that, with a state directory, leadership survives process restarts:
    a resumed controller re-acquires the lease with a *new, higher*
    token and the platform's fencing guard rejects anything still
    carrying the old one.

    ``acquire`` returns the fencing token when the caller holds the
    lease afterwards (granted fresh, taken over after expiry, or
    renewed), else ``None`` — somebody else holds an unexpired lease.
    A change of holder always increments the token; a renewal never
    does, and never changes the holder.

    Every mutation runs inside a ``BEGIN IMMEDIATE`` transaction that
    re-reads the lease row *after* taking SQLite's write lock.  Without
    that, two processes racing for an expired lease could both read the
    old row, both "take over", and both leave believing they hold the
    same bumped token — overlapping leadership, exactly what fencing
    exists to prevent.  With the write lock held from the first read,
    the loser of the race observes the winner's fresh lease and backs
    off with ``None``.

    A grant or takeover is fsynced (``synchronous=FULL``) before
    ``acquire`` returns, also inside a write group, which commits first:
    a grant the caller acts on must not be lost where the actions it
    fenced survive.  A renewal is fsynced outside a group and joins the
    group unsynced inside one: it never changes the token, so losing it
    to power failure can only make the lease expire earlier, and a
    takeover after that early expiry is fenced by its higher token.
    """

    def current(self) -> Optional[Tuple[str, int, int]]:
        """(holder, token, expires_at) of the lease row, or ``None``."""
        row = self._db.connection.execute(
            "SELECT holder, token, expires_at FROM lease WHERE id = 1"
        ).fetchone()
        if row is None:
            return None
        return str(row[0]), int(row[1]), int(row[2])

    def acquire(self, holder: str, now: int, ttl: int) -> Optional[int]:
        if ttl < 1:
            raise ValueError("lease ttl must be at least one minute")
        if self._db.grouped:
            token = self.renew(holder, now, ttl)
            if token is not None:
                return token
        with self._db.transaction(fsync=True) as connection:
            row = self.current()
            if row is None:
                connection.execute(
                    "INSERT INTO lease (id, holder, token, expires_at) "
                    "VALUES (1, ?, 1, ?)",
                    (holder, now + ttl),
                )
                return 1
            current_holder, token, expires_at = row
            if current_holder == holder:
                # renewal: same leadership, same token
                connection.execute(
                    "UPDATE lease SET expires_at = ? WHERE id = 1",
                    (now + ttl,),
                )
                return token
            if expires_at <= now:
                token += 1
                connection.execute(
                    "UPDATE lease SET holder = ?, token = ?, expires_at = ? "
                    "WHERE id = 1",
                    (holder, token, now + ttl),
                )
                return token
            return None

    def renew(self, holder: str, now: int, ttl: int) -> Optional[int]:
        """Extend the lease if (and only if) ``holder`` still owns it;
        the holder is checked under the write lock, and the token
        returned is the one it already held."""
        if ttl < 1:
            raise ValueError("lease ttl must be at least one minute")
        with self._db.transaction(fsync=not self._db.grouped) as connection:
            row = self.current()
            if row is None or row[0] != holder:
                return None
            connection.execute(
                "UPDATE lease SET expires_at = ? WHERE id = 1", (now + ttl,)
            )
            return row[1]

    def rewind(self, row: Optional[Sequence[Any]]) -> None:
        """Put back the row a run snapshot saw (``current()``): a grant
        after the snapshot belongs to the abandoned timeline."""
        with self._db.transaction() as connection:
            connection.execute("DELETE FROM lease WHERE id = 1")
            if row is not None:
                connection.execute(
                    "INSERT INTO lease (id, holder, token, expires_at) "
                    "VALUES (1, ?, ?, ?)",
                    tuple(row),
                )

    def release(self, holder: str) -> None:
        """Voluntarily give up the lease (the token stays monotonic)."""
        # the WHERE clause makes check-then-release a single atomic
        # statement: releasing a lease someone else took over is a no-op
        self._db.execute(
            "UPDATE lease SET expires_at = 0 WHERE id = 1 AND holder = ?",
            (holder,),
        )


# -- the facade -----------------------------------------------------------------------


class DurableStateStore:
    """Journal, snapshots, lease and load archive of one state directory:
    tables of ``<directory>/state.db`` behind one connection.

    Without a directory the same tables live in a ``":memory:"``
    database: hot-standby failover inside one process still journals and
    replays, it just does not survive the process.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        if directory is None:
            self.db = StateDb()
        else:
            Path(directory).mkdir(parents=True, exist_ok=True)
            self.db = StateDb(Path(directory) / STATE_FILE)
        self.journal = StateJournal(self.db)
        self.snapshots = SnapshotStore(self.db)
        self.lease = LeaseStore(self.db)
        self.archive = SqliteLoadArchive(self.db)

    def require_unused(self) -> None:
        """Refuse to start a *new* run on an earlier run's state: it
        would replay the old journal and wait on the dead leader's lease.

        A successor taking over wants exactly that replay, so only the
        runner calls this (an agent's run is a runner's), for a run that
        is not a resume.
        """
        snapshot = self.snapshots.load("run")
        if snapshot is not None or self.journal.last_seq:
            minute = snapshot["tick"] if snapshot is not None else "none yet"
            raise ValueError(
                f"state directory {Path(self.db.path).parent} holds an earlier "
                f"run ({self.journal.last_seq} journal records, last run snapshot "
                f"at minute {minute}); pass resume=True or an empty directory"
            )

    def rewind(self, journal_seq: int, tick: int) -> None:
        """Back to a snapshot: drop what the abandoned timeline wrote.

        A run resumes from a snapshot older than the kill; journal
        records past the snapshot's sequence number and load samples and
        administration events newer than its minute belong to the
        timeline between the two and must not leak into the resumed one.
        """
        with self.db.transaction() as connection:
            connection.execute("DELETE FROM journal WHERE seq > ?", (journal_seq,))
            self.archive.truncate_after(tick)

    def close(self) -> None:
        self.db.close()


# -- replay ---------------------------------------------------------------------------


def _blank_state() -> Dict[str, Any]:
    return {
        "tick": None,
        "protection": {},
        "observations": {},
        "approvals": {},
        "approval_sequence": 0,
        "pending_restarts": {},
        "intents": {},
    }


def replay_journal(
    base: Optional[Dict[str, Any]],
    records: List[JournalRecord],
) -> Dict[str, Any]:
    """Fold a journal suffix onto a snapshot payload, idempotently.

    ``base`` is a controller snapshot payload (or ``None`` for recovery
    without any snapshot).  The fold is a join, not a log of side
    effects: protection entries merge by maximum expiry, observations
    and approvals upsert by key, ticks merge by maximum, and action
    intents are added on ``action-intent`` and removed on
    ``action-commit``.  Replaying the same records twice — including a
    suffix that partially overlaps the snapshot — cannot change the
    result, which is what makes crash recovery safe to re-run.

    Whatever remains in ``state["intents"]`` was started but never
    committed or aborted: the in-flight actions reconciliation must
    complete or compensate exactly once.
    """
    state = _blank_state()
    if base is not None:
        state["tick"] = base.get("tick")
        state["protection"] = dict(base.get("protection", {}))
        state["observations"] = {
            f"{d['subject']}|{d['kind']}": dict(d)
            for d in base.get("observations", [])
        }
        state["approvals"] = {
            a["request_id"]: dict(a) for a in base.get("approvals", [])
        }
        state["approval_sequence"] = int(base.get("approval_sequence", 0))
        state["pending_restarts"] = dict(base.get("pending_restarts", {}))
    for record in records:
        data = record.data
        if record.kind == "tick":
            now = int(data["now"])
            if state["tick"] is None or now > state["tick"]:
                state["tick"] = now
        elif record.kind == "protect":
            subject = data["subject"]
            until = int(data["until"])
            current = state["protection"].get(subject, -1)
            state["protection"][subject] = max(current, until)
        elif record.kind == "observation-open":
            key = f"{data['subject']}|{data['kind']}"
            state["observations"][key] = dict(data)
        elif record.kind == "observation-close":
            key = f"{data['subject']}|{data['kind']}"
            state["observations"].pop(key, None)
        elif record.kind == "approval-request":
            request_id = data["request_id"]
            existing = state["approvals"].get(request_id)
            if existing is None:
                state["approvals"][request_id] = {
                    "request_id": request_id,
                    "time": int(data["time"]),
                    "description": data.get("description", ""),
                    "status": "pending",
                    "answered_at": None,
                    "service_name": data.get("service_name", ""),
                    "action": data.get("action"),
                    "executed": False,
                }
            sequence = int(request_id.rsplit("-", 1)[-1])
            if sequence > state["approval_sequence"]:
                state["approval_sequence"] = sequence
        elif record.kind == "approval-answer":
            request = state["approvals"].get(data["request_id"])
            if request is not None and request["status"] == "pending":
                request["status"] = (
                    "approved" if data.get("approved") else "declined"
                )
                request["answered_at"] = int(data["time"])
        elif record.kind == "approval-expired":
            request = state["approvals"].get(data["request_id"])
            if request is not None and request["status"] == "pending":
                request["status"] = "expired"
                request["answered_at"] = int(data["time"])
        elif record.kind == "restart-pending":
            state["pending_restarts"].setdefault(
                data["service_name"], data.get("preferred_host", "")
            )
        elif record.kind == "restart-done":
            state["pending_restarts"].pop(data["service_name"], None)
        elif record.kind == "action-intent":
            state["intents"][data["intent_id"]] = dict(data)
            # an intent raised on behalf of an approved request is the
            # durable proof that its deferred action was applied: a
            # recovered controller must never execute the approval again
            approval_id = data.get("approval_id")
            if approval_id:
                request = state["approvals"].get(approval_id)
                if request is not None:
                    request["executed"] = True
        elif record.kind == "action-commit":
            state["intents"].pop(data["intent_id"], None)
        # unknown kinds are skipped: journals are forward-compatible
    return state
