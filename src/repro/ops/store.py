"""Persistent telemetry: the ``events`` table of a state file.

:class:`TelemetryStore` is a table accessor over a
:class:`~repro.core.state.StateDb`, the way the journal, the snapshots
and the load archive are: a domain agent's events are rows of its own
``state.db``; a runner's ``store_path`` and the federation server's
merged store are state files of their own.  Opening, WAL, the integrity
check, transactions and :class:`~repro.core.state.StateCorruptError`
are the database's; what this module adds is the stream's:

* **Group commit by wall-clock age.**  Envelopes buffer in memory and
  commit in one transaction at a tick boundary: the runner calls
  :meth:`TelemetryStore.end_tick` after every tick, served or not, and
  the batch commits once it is ``MAX_AGE_S`` (0.25 s) of wall time old
  or ``MAX_BATCH`` rows long — every tick of a paced run, about four
  times a second of an unpaced one, and never in the middle of a tick.
  :meth:`flush` is "commit now" (before every run snapshot, at close).
  A SIGKILL loses at most the uncommitted tail batch — SQLite's WAL
  guarantees every committed batch survives intact, never torn — and a
  reopened store needs no repair.
* **One attach.**  :meth:`TelemetryStore.attach` lines the rows up with
  the bus they continue: a resumed run drops the abandoned timeline
  past its snapshot and appends gaplessly; any other run replaces what
  an earlier one left (a store is an output).
* **Typed errors for readers.**  :func:`read_store` and
  :func:`tail_store` raise :class:`~repro.core.state.StateCorruptError`
  for a damaged file and :class:`~repro.telemetry.trace.TraceSchemaError`
  (a ``ValueError`` naming the file) for one that holds no event log
  they can read; :func:`read_store` verifies gaplessness before calling
  a stream complete.

One file can hold several *sources* (the merged store of a
multi-process federation, written by ``FederationServer.finalize``);
:func:`read_store` merges multi-source stores with the same Lamport
ordering as :func:`repro.telemetry.trace.merge_traces`.  JSONL is a
rendering of these rows (:func:`repro.sim.export.export_store_jsonl`),
never written alongside them.
"""

from __future__ import annotations

import io
import json
import pickle
import sqlite3
import threading
import time as _time
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.state import StateCorruptError, StateDb, open_readonly
from repro.telemetry.bus import Envelope, EventBus, WILDCARD
from repro.telemetry.records import record_payload
from repro.telemetry.trace import (
    TraceEvent,
    TraceHeader,
    TraceSchemaError,
    merge_traces,
)

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

#: Bump on any incompatible change to the ``events`` / ``meta`` tables
#: (defined with the rest of the schema in :class:`~repro.core.state.StateDb`).
STORE_SCHEMA_VERSION = 1


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

    def find_class(self, module: str, name: str) -> Any:
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


def _event(
    path: str, source: Any, seq: Any, topic: Any, clock: Any, blob: Any
) -> TraceEvent:
    """One ``events`` row as the trace reader's event; a row that does
    not decode (a damaged or crafted ``record`` blob, a column of the
    wrong type) is a :class:`TraceSchemaError` naming file, source, seq."""
    try:
        record = (
            _json_shape(_DataUnpickler(io.BytesIO(blob)).load())
            if isinstance(blob, bytes)
            else json.loads(blob)
        )
        if not isinstance(record, dict):
            raise TypeError(f"a {type(record).__name__}, not a record object")
        return TraceEvent(
            seq=int(seq),
            topic=str(topic),
            record=record,
            clock=int(clock) if clock is not None else None,
        )
    # unpickling damaged bytes raises whatever the bytes happen to spell
    # (UnpicklingError, EOFError, IndexError, MemoryError, ...)
    except Exception as error:
        raise TraceSchemaError(
            f"{path}: event {seq!r} of source {source!r} does not decode: {error}"
        ) from error


class TelemetryStore:
    """The ``events`` table of a state file.

    ``db`` is an open :class:`~repro.core.state.StateDb` shared with the
    file's other accessors (a domain agent's ``state.db``; the owner
    closes it) or a path the store opens one on and closes (a runner's
    ``store_path``, the server's merged store).  ``source`` labels the
    store's own stream: ``""`` for a single-process run, whose bus the
    store subscribes to (:meth:`attach`); the domain name for an agent,
    which stamps each envelope itself and hands it to :meth:`add`.
    :meth:`insert_events` takes any source's finished rows.
    """

    #: rows after which a tick boundary commits whatever the batch's age
    MAX_BATCH = 1024
    #: wall seconds after which a tick boundary commits the batch; half
    #: of ``tail_store``'s poll, so a follower of a running store never
    #: polls twice without fresh rows
    MAX_AGE_S = 0.25

    def __init__(self, db: Union[StateDb, PathLike], source: str = "") -> None:
        self._db = db if isinstance(db, StateDb) else StateDb(db)
        self._owns_db = self._db is not db
        self.source = source
        # once per file, not an upsert: opening must not write, so that
        # a refused run leaves an earlier run's bytes alone
        self._db.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(STORE_SCHEMA_VERSION),),
        )
        self._bus: Optional[EventBus] = None
        self._buffer: List[_Row] = []  # awaiting commit
        self._committed_at = _time.monotonic()
        self.inserted = 0
        self._closed = False

    # -- bus attachment ---------------------------------------------------------------

    def attach(self, bus: EventBus) -> None:
        """Subscribe wildcard, continuing the bus's stream where it is.

        Rows past ``bus.last_seq`` cannot belong to this bus's stream
        and are dropped: whatever an earlier run left (a store is an
        output), or, on a bus fast-forwarded to a snapshot, the tail of
        the abandoned timeline.  The stream is claimed complete when the
        bus has published nothing yet and incomplete when the bus is
        ahead of the rows; otherwise the first attach's claim stands.
        """
        if self._bus is not None:
            raise RuntimeError("telemetry store is already attached")
        self.truncate_after(bus.last_seq)
        if bus.last_seq == 0:
            self.mark_complete(True)
        elif bus.last_seq > self.last_seq():
            self.mark_complete(False)
        bus.subscribe(WILDCARD, self._on_envelope)
        self._bus = bus

    def _on_envelope(self, envelope: Envelope) -> None:
        self.add(envelope.seq, envelope.topic, record_payload(envelope.record))

    # -- writes -----------------------------------------------------------------------

    def add(
        self,
        seq: int,
        topic: str,
        record: Dict[str, Any],
        clock: Optional[int] = None,
    ) -> None:
        """Buffer one event of this store's own stream for the next commit."""
        self._buffer.append(self._row(self.source, seq, topic, record, clock))

    @staticmethod
    def _row(
        source: str, seq: int, topic: str, record: Dict[str, Any], clock: Optional[int]
    ) -> _Row:
        tick = record.get("time")
        return (
            source,
            int(seq),
            str(topic),
            int(tick) if isinstance(tick, int) else None,
            int(clock) if clock is not None else None,
            _encode_record(record),
        )

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
        with self._db.transaction() as connection:
            before = connection.total_changes
            connection.executemany(
                "INSERT OR IGNORE INTO events "
                "(source, seq, topic, time, clock, record) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )
            inserted = connection.total_changes - before
        self.inserted += inserted
        return inserted

    def insert_events(
        self,
        source: str,
        rows: List[Tuple[int, str, Dict[str, Any], Optional[int]]],
    ) -> int:
        """Commit another stream's ``(seq, topic, record, clock)`` rows now.

        First write per ``(source, seq)`` wins (the table's primary
        key): inserting a stream twice changes nothing.
        """
        if not rows:
            return 0
        return self._commit_rows([self._row(source, *row) for row in rows])

    # -- cursors ----------------------------------------------------------------------

    def last_seq(self) -> int:
        """The highest committed sequence number of this store's stream."""
        row = self._db.connection.execute(
            "SELECT MAX(seq) FROM events WHERE source = ?", (self.source,)
        ).fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def truncate_after(self, seq: int) -> int:
        """Drop this stream's rows past ``seq`` (a resumed run abandons
        that timeline); rows dropped."""
        cursor = self._db.execute(
            "DELETE FROM events WHERE source = ? AND seq > ?", (self.source, seq)
        )
        return cursor.rowcount

    def clear(self) -> None:
        """Drop every source's rows: the writer of a whole file (the
        federation merge) replaces what an earlier run left there."""
        self._db.execute("DELETE FROM events")

    def mark_complete(self, complete: bool) -> None:
        """Claim that the file holds (or does not hold) every envelope
        its buses published; :func:`read_store` also wants it gapless."""
        self._db.execute(
            "INSERT INTO meta (key, value) VALUES ('complete', ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            ("1" if complete else "0",),
        )

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the bus, commit the tail batch and, where the
        store opened the database itself, close it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._bus is not None:
            self._bus.unsubscribe(WILDCARD, self._on_envelope)
            self._bus = None
        try:
            self.flush()
        finally:
            if self._owns_db:
                self._db.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- reading ------------------------------------------------------------------------


@contextmanager
def _reading(path: PathLike) -> Iterator[Tuple[sqlite3.Connection, bool]]:
    """A checked read-only connection to a store, and its writer's
    completeness claim; closed on the way out.  A file SQLite calls
    damaged, on open or at any later read, is a ``StateCorruptError``;
    one that holds no event log this version reads, a
    ``TraceSchemaError``."""
    try:
        with closing(open_readonly(path)) as connection:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
            version = str(meta.get("schema_version", ""))
            if not version.isdecimal():
                raise TraceSchemaError(
                    f"{path}: no event log in this file (its meta table "
                    "carries no schema_version)"
                )
            if int(version) > STORE_SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"{path}: store schema version {version} is newer than "
                    f"the supported version {STORE_SCHEMA_VERSION}"
                )
            yield connection, meta.get("complete") == "1"
    except (sqlite3.OperationalError, UnicodeDecodeError) as error:
        # no such table or column, text that is not UTF-8, a file format
        # this SQLite does not open
        raise TraceSchemaError(f"{path}: no readable event log ({error})") from error
    except sqlite3.DatabaseError as error:
        raise StateCorruptError(str(path), str(error)) from error


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
    Raises the two typed errors of :func:`_reading`.
    """
    by_source: Dict[str, List[TraceEvent]] = {}
    with _reading(path) as (connection, claimed):
        for source, *row in connection.execute(
            "SELECT source, seq, topic, clock, record FROM events "
            "ORDER BY source, seq"
        ):
            by_source.setdefault(str(source), []).append(
                _event(str(path), source, *row)
            )
    complete = claimed and all(
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
    commit order per source without missing rows.  Raises the two typed
    errors of :func:`read_store`.
    """
    cursors: Dict[str, int] = {}
    query = (
        "SELECT seq, topic, clock, record FROM events "
        "WHERE source = ? AND seq > ? "
    )
    args_extra: Tuple[Any, ...] = ()
    if topic is not None:
        query += "AND topic = ? "
        args_extra = (topic,)
    query += "ORDER BY seq"
    # one connection, checked once, for as long as the caller follows
    with _reading(path) as (connection, _):
        while True:
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
                    yield source, _event(str(path), source, *row)
                # advance past everything seen for this source, filtered
                # or not, so a topic filter does not re-scan old rows
                tail_row = connection.execute(
                    "SELECT MAX(seq) FROM events WHERE source = ?", (source,)
                ).fetchone()
                if tail_row and tail_row[0] is not None:
                    cursors[source] = max(cursor, int(tail_row[0]))
            if not follow or (stop is not None and stop.is_set()):
                return
            _time.sleep(poll_interval)
