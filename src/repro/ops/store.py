"""Persistent telemetry: a batched, crash-tolerant SQLite event store.

The store subscribes wildcard on the run's :class:`~repro.telemetry.bus.
EventBus` and persists every envelope with its global sequence number.
Durability follows the discipline of the state directory's ``state.db``
(:mod:`repro.core.state`), with batches where that commits row by row:

* **Group commit by wall-clock age.**  Envelopes buffer in memory and
  commit in one transaction at a tick boundary: the runner calls
  :meth:`TelemetryStore.end_tick` after every tick, served or not, and
  the batch commits once it is ``MAX_AGE_S`` (0.25 s) of wall time old
  or ``MAX_BATCH`` rows long — every tick of a paced run, about four
  times a second of an unpaced one, and never in the middle of a tick.
  :meth:`flush` is "commit now" (before every run snapshot, at close).
  A SIGKILL loses at most the uncommitted tail batch — SQLite's WAL
  guarantees every committed batch survives intact, never torn.
* **Torn-batch-tolerant reopen.**  Reopening a killed store needs no
  repair step: whatever committed is there, gapless and in order;
  :func:`read_store` verifies gaplessness before calling a stream
  complete.
* **Resumable cursors.**  ``last_seq``/``truncate_after`` let a resumed
  run (snapshot + journal replay) drop the abandoned timeline past the
  snapshot and append seamlessly, exactly like the trace writer's
  resume path.

One store file can hold several *sources* (multi-process federation:
the server forwards every agent's clocked events into the same store);
:func:`read_store` merges multi-source stores with the same Lamport
ordering as :func:`repro.telemetry.trace.merge_traces`.
"""

from __future__ import annotations

import io
import json
import pickle
import sqlite3
import threading
import time as _time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.telemetry.bus import Envelope, EventBus, WILDCARD
from repro.telemetry.records import record_payload
from repro.telemetry.trace import TraceEvent, TraceHeader, merge_traces

__all__ = [
    "STORE_MAGIC",
    "STORE_SCHEMA_VERSION",
    "TelemetryStore",
    "read_store",
    "is_store_file",
    "tail_store",
]

PathLike = Union[str, Path]
#: one ``events`` row: (source, seq, topic, time, clock, record blob)
_Row = Tuple[str, int, str, Optional[int], Optional[int], bytes]

#: Every SQLite database file starts with these 16 bytes; the verifier
#: sniffs them to route a path to :func:`read_store` instead of the
#: JSONL trace reader.
STORE_MAGIC = b"SQLite format 3\x00"

#: Bump on any incompatible change to the tables below.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
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


def is_store_file(path: PathLike) -> bool:
    """True when the file starts with SQLite's magic header."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def _encode_record(payload: Dict[str, Any]) -> bytes:
    """Serialize one record payload for the ``record`` column.

    Pickle protocol 5 instead of JSON text: the stream is dominated by
    full-precision load-report floats, whose decimal rendering is ~4x
    the ingest cost and ~16x the replay cost of the binary form.  The
    payloads are plain data (dicts, sequences, scalars), which pickle
    round-trips exactly and :class:`_DataUnpickler` reads back without
    ever resolving a class.
    """
    return pickle.dumps(payload, 5)


class _DataUnpickler(pickle.Unpickler):
    """Unpickler for data-only payloads: any class lookup is refused.

    Plain containers and scalars deserialize without ``find_class``, so
    a well-formed store never trips this; a crafted record blob cannot
    smuggle in a constructor.
    """

    def find_class(self, module: str, name: str) -> Any:  # pragma: no cover
        raise pickle.UnpicklingError(
            f"store record blobs hold plain data only "
            f"(refusing {module}.{name})"
        )


def _json_shape(value: Any) -> Any:
    """Rebuild the JSON value shape (tuples become lists, recursively).

    Replayed store events must compare equal to the JSONL trace reader's
    output, where every sequence comes back as a list.
    """
    if isinstance(value, (list, tuple)):
        return [_json_shape(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_shape(item) for key, item in value.items()}
    return value


def _decode_record(blob: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = (
        _json_shape(_DataUnpickler(io.BytesIO(blob)).load())
        if isinstance(blob, bytes)
        else json.loads(blob)
    )
    return record


class TelemetryStore:
    """Wildcard bus subscriber persisting every envelope to SQLite.

    Single-process runs attach the store to the platform bus (exactly
    like :class:`~repro.telemetry.trace.TraceWriter`); the federation
    server instead calls :meth:`insert_events` with each agent's
    forwarded, Lamport-stamped rows (first write per ``(source, seq)``
    wins, mirroring the wire dedup).

    ``cross_thread`` relaxes SQLite's same-thread check for callers that
    serialize access themselves; all mutating paths here additionally
    hold one lock, so the federation server's reader threads can share a
    store.
    """

    #: rows after which a tick boundary commits whatever the batch's age
    MAX_BATCH = 1024
    #: wall seconds after which a tick boundary commits the batch; half
    #: of ``tail_store``'s poll, so a follower of a running store never
    #: polls twice without fresh rows
    MAX_AGE_S = 0.25
    BUSY_TIMEOUT_MS = 5_000

    def __init__(self, path: PathLike, cross_thread: bool = False) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            str(self.path), check_same_thread=not cross_thread
        )
        self._connection.execute(f"PRAGMA busy_timeout = {self.BUSY_TIMEOUT_MS}")
        self._connection.execute("PRAGMA journal_mode = WAL")
        self._connection.execute("PRAGMA synchronous = NORMAL")
        # no mid-run checkpoints: they stall a flush to copy the WAL
        # back into the main file while readers may hold it open; the
        # WAL stays valid for read-only consumers and close() truncates
        self._connection.execute("PRAGMA wal_autocheckpoint = 0")
        # autocommit mode; batch transactions are opened explicitly
        self._connection.isolation_level = None
        self._connection.executescript(_SCHEMA)
        self._set_meta("schema_version", str(STORE_SCHEMA_VERSION))
        self._bus: Optional[EventBus] = None
        self._buffer: List[_Row] = []  # awaiting commit
        self._committed_at = _time.monotonic()
        self.inserted = 0
        self._closed = False

    # -- meta -------------------------------------------------------------------------

    def _set_meta(self, key: str, value: str) -> None:
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _get_meta(self, key: str) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    # -- bus attachment ---------------------------------------------------------------

    def attach(self, bus: EventBus) -> None:
        """Subscribe wildcard; record whether the stream is complete.

        Completeness mirrors the trace writer: attached before the first
        publish means the store will hold *every* envelope the bus ever
        publishes.
        """
        if self._bus is not None:
            raise RuntimeError("telemetry store is already attached")
        with self._lock:
            self._set_meta("complete", "1" if bus.last_seq == 0 else "0")
        bus.subscribe(WILDCARD, self._on_envelope)
        self._bus = bus

    def attach_resumed(self, bus: EventBus) -> None:
        """Re-attach after a crash-resume without touching completeness.

        The resume path truncates the store past the snapshot's sequence
        and fast-forwards the bus to it first, so appended rows continue
        the sequence gaplessly.
        """
        if self._bus is not None:
            raise RuntimeError("telemetry store is already attached")
        bus.subscribe(WILDCARD, self._on_envelope)
        self._bus = bus

    def _on_envelope(self, envelope: Envelope) -> None:
        record = record_payload(envelope.record)
        tick = record.get("time")
        self._buffer.append(
            (
                "",
                envelope.seq,
                envelope.topic,
                int(tick) if isinstance(tick, int) else None,
                None,
                _encode_record(record),
            )
        )

    # -- writes -----------------------------------------------------------------------

    def end_tick(self) -> int:
        """A tick is over: commit the batch if it is old or long enough.

        The one commit policy, whoever reads the store: batches end on
        tick boundaries only, so a committed prefix never holds part of
        a tick, and a live reader is at most ``MAX_AGE_S`` plus one tick
        behind the run.
        """
        if (
            len(self._buffer) >= self.MAX_BATCH
            or _time.monotonic() - self._committed_at >= self.MAX_AGE_S
        ):
            return self.flush()  # 0 rows from an empty buffer
        return 0

    def flush(self) -> int:
        """Commit the buffered batch now, in one transaction; rows committed."""
        if not self._buffer:
            return 0
        rows, self._buffer = self._buffer, []
        inserted = self._commit_rows(rows)
        self._committed_at = _time.monotonic()
        return inserted

    def _commit_rows(self, rows: List[_Row]) -> int:
        with self._lock:
            connection = self._connection
            connection.execute("BEGIN IMMEDIATE")
            try:
                before = connection.total_changes
                connection.executemany(
                    "INSERT OR IGNORE INTO events "
                    "(source, seq, topic, time, clock, record) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    rows,
                )
                inserted = connection.total_changes - before
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
        self.inserted += inserted
        return inserted

    def insert_events(
        self,
        source: str,
        rows: List[Tuple[int, str, Dict[str, Any], Optional[int]]],
    ) -> int:
        """Persist forwarded ``(seq, topic, record, clock)`` rows.

        First write per ``(source, seq)`` wins — retransmitted wire
        batches deduplicate exactly as the federation server's in-memory
        collector does.
        """
        encoded: List[_Row] = []
        for seq, topic, record, clock in rows:
            tick = record.get("time")
            encoded.append(
                (
                    source,
                    int(seq),
                    str(topic),
                    int(tick) if isinstance(tick, int) else None,
                    int(clock) if clock is not None else None,
                    _encode_record(record),
                )
            )
        if not encoded:
            return 0
        return self._commit_rows(encoded)

    # -- cursors ----------------------------------------------------------------------

    def last_seq(self, source: str = "") -> int:
        with self._lock:
            row = self._connection.execute(
                "SELECT MAX(seq) FROM events WHERE source = ?", (source,)
            ).fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def truncate_after(self, seq: int, source: str = "") -> int:
        """Drop rows past ``seq`` (a resumed run abandons that timeline)."""
        with self._lock:
            connection = self._connection
            connection.execute("BEGIN IMMEDIATE")
            try:
                cursor = connection.execute(
                    "DELETE FROM events WHERE source = ? AND seq > ?",
                    (source, seq),
                )
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
        return cursor.rowcount

    def mark_complete(self, complete: bool) -> None:
        with self._lock:
            self._set_meta("complete", "1" if complete else "0")

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Flush the tail batch, detach from the bus and close the file."""
        if self._closed:
            return
        if self._bus is not None:
            self._bus.unsubscribe(WILDCARD, self._on_envelope)
            self._bus = None
        self.flush()
        with self._lock:
            self._closed = True
            try:
                # fold the run's whole WAL back into the main file so a
                # closed store is one self-contained .db; best-effort —
                # a concurrent reader just leaves the WAL for later
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            self._connection.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- reading ------------------------------------------------------------------------


def _open_readonly(path: PathLike) -> sqlite3.Connection:
    connection = sqlite3.connect(
        f"file:{Path(path)}?mode=ro", uri=True
    )
    connection.execute(f"PRAGMA busy_timeout = {TelemetryStore.BUSY_TIMEOUT_MS}")
    return connection


def _gapless(seqs: List[int]) -> bool:
    return not seqs or (seqs[0] == 1 and seqs[-1] == len(seqs))


def read_store(path: PathLike) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Replay a store as (header, events) — the trace reader's contract.

    Single-source stores come back in global sequence order; multi-source
    stores are merged by ``(clock, source, seq)`` and renumbered, exactly
    like :func:`~repro.telemetry.trace.merge_traces` does for per-domain
    trace files.  The header's ``complete`` flag requires both the
    writer's attach-time claim and per-source gapless sequences — a
    truncated or torn store can pass for partial, never for complete.
    """
    connection = _open_readonly(path)
    try:
        meta = {
            str(key): str(value)
            for key, value in connection.execute("SELECT key, value FROM meta")
        }
        version = int(meta.get("schema_version", "0"))
        if version > STORE_SCHEMA_VERSION:
            raise ValueError(
                f"store schema version {version} is newer than the "
                f"supported version {STORE_SCHEMA_VERSION}"
            )
        by_source: Dict[str, List[TraceEvent]] = {}
        for source, seq, topic, clock, record in connection.execute(
            "SELECT source, seq, topic, clock, record FROM events "
            "ORDER BY source, seq"
        ):
            by_source.setdefault(str(source), []).append(
                TraceEvent(
                    seq=int(seq),
                    topic=str(topic),
                    record=_decode_record(record),
                    clock=int(clock) if clock is not None else None,
                )
            )
    finally:
        connection.close()
    complete = meta.get("complete") == "1" and all(
        _gapless([event.seq for event in events])
        for events in by_source.values()
    )
    header = TraceHeader(schema_version=1, complete=complete)
    if not by_source:
        return header, []
    if len(by_source) == 1:
        (events,) = by_source.values()
        return header, events
    merged = merge_traces(sorted(by_source.items()))
    return header, merged


def tail_store(
    path: PathLike,
    topic: Optional[str] = None,
    since_seq: int = 0,
    follow: bool = False,
    poll_interval: float = 0.5,
    stop: Optional[threading.Event] = None,
) -> Iterator[Tuple[str, TraceEvent]]:
    """Yield ``(source, event)`` pairs past a cursor, optionally live.

    The offline mode yields whatever the store holds and returns; with
    ``follow`` the cursor polls for freshly committed batches until
    ``stop`` is set (or forever — the CLI wires SIGINT to it).  The
    cursor is per source, so interleaved multi-source stores tail in
    commit order per source without missing rows.
    """
    cursors: Dict[str, int] = {}
    query = (
        "SELECT source, seq, topic, clock, record FROM events "
        "WHERE source = ? AND seq > ? "
    )
    args_extra: Tuple[Any, ...] = ()
    if topic is not None:
        query += "AND topic = ? "
        args_extra = (topic,)
    query += "ORDER BY seq"
    while True:
        connection = _open_readonly(path)
        try:
            sources = [
                str(row[0])
                for row in connection.execute(
                    "SELECT DISTINCT source FROM events ORDER BY source"
                )
            ]
            for source in sources:
                cursor = cursors.get(source, since_seq)
                for row in connection.execute(
                    query, (source, cursor) + args_extra
                ):
                    event = TraceEvent(
                        seq=int(row[1]),
                        topic=str(row[2]),
                        record=_decode_record(row[4]),
                        clock=int(row[3]) if row[3] is not None else None,
                    )
                    yield str(row[0]), event
                # advance past everything seen for this source, filtered
                # or not, so a topic filter does not re-scan old rows
                tail_row = connection.execute(
                    "SELECT MAX(seq) FROM events WHERE source = ?", (source,)
                ).fetchone()
                if tail_row and tail_row[0] is not None:
                    cursors[source] = max(cursor, int(tail_row[0]))
        finally:
            connection.close()
        if not follow or (stop is not None and stop.is_set()):
            return
        _time.sleep(poll_interval)
