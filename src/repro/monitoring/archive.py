"""The load archive.

"A load archive stores aggregated historic load data.  This data is used
to calculate the average load of services during their watchTime and to
initialize all resource variables of the fuzzy controller."  (Section 2)

Two implementations share one interface:

* :class:`InMemoryLoadArchive` — fast dict-backed store, the archive of
  every run without a state directory;
* :class:`SqliteLoadArchive` — the same API plus coarse aggregation over
  two tables of a :class:`~repro.core.state.StateDb`: a state
  directory's ``state.db`` (rewound with its journal on resume) or a
  file of its own, for long-running deployments and load forecasting.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.telemetry.bus import Envelope, EventBus
from repro.telemetry.records import TOPIC_REPORTS, LoadReportBatch
from repro.telemetry.windows import sum_forward, window_bounds

if TYPE_CHECKING:
    from repro.core.state import StateDb

__all__ = [
    "LoadArchive",
    "InMemoryLoadArchive",
    "SqliteLoadArchive",
    "ArchiveFlusher",
]


class LoadArchive:
    """Interface of a load archive.

    Besides numeric load samples, the archive records *administration
    events* (confirmed situations, executed actions): the historic
    record the paper's future-work forecasting and auditing mine.
    """

    def store(self, subject: str, metric: str, time: int, value: float) -> None:
        raise NotImplementedError

    def record_reports(self, rows: List[Tuple[str, str, int, float]]) -> None:
        """Store one tick's load reports (one bus flush)."""
        raise NotImplementedError

    def store_event(
        self, time: int, category: str, subject: str, details: str
    ) -> None:
        raise NotImplementedError

    def events(
        self,
        category: Optional[str] = None,
        start: int = 0,
        end: Optional[int] = None,
    ) -> List[Tuple[int, str, str, str]]:
        """(time, category, subject, details) rows, ordered by time."""
        raise NotImplementedError

    def average(
        self, subject: str, metric: str, start: int, end: int
    ) -> Optional[float]:
        """Mean of values with ``start <= time <= end``, or ``None``."""
        raise NotImplementedError

    def history(
        self, subject: str, metric: str, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """(time, value) pairs in the window, ordered by time."""
        raise NotImplementedError

    def subjects(self) -> List[str]:
        raise NotImplementedError


class InMemoryLoadArchive(LoadArchive):
    """Dict-backed archive; O(1) appends, bisected window queries.

    Samples are kept as parallel sorted time/value lists per
    ``(subject, metric)``, so window queries bisect for the bounds and
    sum the slice oldest-first — the exact summation order of the
    historic linear scan, keeping ``average`` bit-identical.
    """

    def __init__(self) -> None:
        self._times: Dict[Tuple[str, str], List[int]] = {}
        self._values: Dict[Tuple[str, str], List[float]] = {}
        self._events: List[Tuple[int, str, str, str]] = []

    def store_event(
        self, time: int, category: str, subject: str, details: str
    ) -> None:
        self._events.append((time, category, subject, details))

    def events(
        self,
        category: Optional[str] = None,
        start: int = 0,
        end: Optional[int] = None,
    ) -> List[Tuple[int, str, str, str]]:
        return [
            row
            for row in self._events
            if row[0] >= start
            and (end is None or row[0] <= end)
            and (category is None or row[1] == category)
        ]

    def store(self, subject: str, metric: str, time: int, value: float) -> None:
        key = (subject, metric)
        times = self._times.get(key)
        if times is None:
            times = self._times[key] = []
            self._values[key] = []
        values = self._values[key]
        if times and time < times[-1]:
            # out-of-order backfill (rare): keep the lists sorted
            index = bisect_right(times, time)
            times.insert(index, time)
            values.insert(index, float(value))
            return
        times.append(time)
        values.append(float(value))

    def record_reports(
        self, rows: List[Tuple[str, str, int, float]]
    ) -> None:
        """Store one tick's load reports (one bus flush)."""
        for subject, metric, time, value in rows:
            self.store(subject, metric, time, value)

    def average(
        self, subject: str, metric: str, start: int, end: int
    ) -> Optional[float]:
        key = (subject, metric)
        times = self._times.get(key)
        if times is None:
            return None
        lo, hi = window_bounds(times, start, end)
        if lo >= hi:
            return None
        return sum_forward(self._values[key], lo, hi) / (hi - lo)

    def history(
        self, subject: str, metric: str, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        key = (subject, metric)
        times = self._times.get(key)
        if times is None:
            return []
        lo, hi = window_bounds(times, start, end)
        return list(zip(times[lo:hi], self._values[key][lo:hi]))

    def subjects(self) -> List[str]:
        return sorted({subject for subject, __ in self._times})

    def truncate_after(self, time: int) -> None:
        """Drop samples and events newer than ``time`` (resume support)."""
        for key, times in self._times.items():
            lo, hi = window_bounds(times, 0, time)
            del times[hi:]
            del self._values[key][hi:]
        self._events = [row for row in self._events if row[0] <= time]


class SqliteLoadArchive(LoadArchive):
    """Persistent archive: the ``load_samples`` and ``admin_events`` tables
    of a :class:`~repro.core.state.StateDb` — a state directory's
    ``state.db`` (``DurableStateStore.archive``), a database file of its
    own, or ``":memory:"`` (the default).

    A file of its own holds nothing but load data, so a corrupt one — a
    crash tore it, a disk flipped bits — does not abort the controller:
    the damaged file is moved aside to ``<path>.corrupt`` with a warning
    and an empty archive is rebuilt in its place (historic load data
    degrades forecasting, losing it must not take down administration).
    """

    def __init__(self, db: Union["StateDb", str, Path] = ":memory:") -> None:
        # imported here: importing repro.core runs its package __init__,
        # which imports the controller, which imports this module
        from repro.core.state import StateCorruptError, StateDb

        if not isinstance(db, StateDb):
            path = str(db)
            try:
                db = StateDb(path)
            except StateCorruptError as error:
                corrupt = path + ".corrupt"
                os.replace(path, corrupt)
                warnings.warn(
                    f"load archive {path!r} is corrupt ({error.detail}); moved "
                    f"it to {corrupt!r} and rebuilt an empty archive — historic "
                    "load data before this point is lost",
                    RuntimeWarning,
                    stacklevel=2,
                )
                db = StateDb(path)
        self._db = db
        self._connection = db.connection

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SqliteLoadArchive":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def store(self, subject: str, metric: str, time: int, value: float) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO load_samples (subject, metric, time, value) "
            "VALUES (?, ?, ?, ?)",
            (subject, metric, time, float(value)),
        )

    def record_reports(
        self, rows: List[Tuple[str, str, int, float]]
    ) -> None:
        """Store one tick's load reports in a single transaction.

        All-or-nothing: a crash mid-batch leaves the archive at the
        previous tick's state instead of a half-written minute.
        """
        with self._db.transaction() as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO load_samples "
                "(subject, metric, time, value) VALUES (?, ?, ?, ?)",
                rows,
            )

    def store_many(
        self, rows: List[Tuple[str, str, int, float]]
    ) -> None:
        """Bulk insert of (subject, metric, time, value) rows."""
        self.record_reports(rows)

    def truncate_after(self, time: int) -> None:
        """Drop samples and events newer than ``time``: what a timeline
        abandoned at a resume recorded past the snapshot (atomic inside
        :meth:`DurableStateStore.rewind <repro.core.state.DurableStateStore.rewind>`)."""
        self._connection.execute("DELETE FROM load_samples WHERE time > ?", (time,))
        self._connection.execute("DELETE FROM admin_events WHERE time > ?", (time,))

    def commit(self) -> None:
        """Nothing is pending: every write above commits on its own."""
        self._connection.commit()

    def average(
        self, subject: str, metric: str, start: int, end: int
    ) -> Optional[float]:
        row = self._connection.execute(
            "SELECT AVG(value) FROM load_samples "
            "WHERE subject = ? AND metric = ? AND time BETWEEN ? AND ?",
            (subject, metric, start, end),
        ).fetchone()
        return None if row is None or row[0] is None else float(row[0])

    def history(
        self, subject: str, metric: str, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        if end is None:
            cursor = self._connection.execute(
                "SELECT time, value FROM load_samples "
                "WHERE subject = ? AND metric = ? AND time >= ? ORDER BY time",
                (subject, metric, start),
            )
        else:
            cursor = self._connection.execute(
                "SELECT time, value FROM load_samples "
                "WHERE subject = ? AND metric = ? AND time BETWEEN ? AND ? "
                "ORDER BY time",
                (subject, metric, start, end),
            )
        return [(int(t), float(v)) for t, v in cursor.fetchall()]

    def subjects(self) -> List[str]:
        cursor = self._connection.execute(
            "SELECT DISTINCT subject FROM load_samples ORDER BY subject"
        )
        return [row[0] for row in cursor.fetchall()]

    def store_event(
        self, time: int, category: str, subject: str, details: str
    ) -> None:
        self._connection.execute(
            "INSERT INTO admin_events (time, category, subject, details) "
            "VALUES (?, ?, ?, ?)",
            (time, category, subject, details),
        )

    def events(
        self,
        category: Optional[str] = None,
        start: int = 0,
        end: Optional[int] = None,
    ) -> List[Tuple[int, str, str, str]]:
        query = (
            "SELECT time, category, subject, details FROM admin_events "
            "WHERE time >= ?"
        )
        parameters: List[object] = [start]
        if end is not None:
            query += " AND time <= ?"
            parameters.append(end)
        if category is not None:
            query += " AND category = ?"
            parameters.append(category)
        query += " ORDER BY time, id"
        cursor = self._connection.execute(query, parameters)
        return [
            (int(t), str(c), str(s), str(d)) for t, c, s, d in cursor.fetchall()
        ]

    def aggregate(
        self, subject: str, metric: str, bucket_minutes: int
    ) -> List[Tuple[int, float]]:
        """Aggregated view: (bucket start, mean value) per bucket.

        This is the "persistent aggregated view of historic load data"
        the forecasting extension mines for periodic patterns.
        """
        if bucket_minutes < 1:
            raise ValueError("bucket size must be at least one minute")
        cursor = self._connection.execute(
            "SELECT (time / ?) * ?, AVG(value) FROM load_samples "
            "WHERE subject = ? AND metric = ? "
            "GROUP BY time / ? ORDER BY 1",
            (bucket_minutes, bucket_minutes, subject, metric, bucket_minutes),
        )
        return [(int(t), float(v)) for t, v in cursor.fetchall()]


class ArchiveFlusher:
    """Bridges the telemetry bus's ``reports`` topic into an archive.

    Monitors no longer write to the archive sample by sample; the
    controller flushes each tick's reports as one
    :class:`~repro.telemetry.records.LoadReportBatch`, and this consumer
    stores the whole batch at once (a single transaction on the SQLite
    archive).
    """

    def __init__(self, archive: LoadArchive, bus: EventBus, domain: str = "") -> None:
        self.archive = archive
        self.bus = bus
        #: control domain whose batches this flusher stores; with per-domain
        #: archives on one shared bus, each flusher must ignore the other
        #: domains' batches so archive writes never cross shards
        self.domain = domain
        self.batches_flushed = 0
        self.rows_flushed = 0
        bus.subscribe(TOPIC_REPORTS, self._on_batch)

    def _on_batch(self, envelope: Envelope) -> None:
        batch: LoadReportBatch = envelope.record
        if not batch.rows or batch.domain != self.domain:
            return
        self.archive.record_reports(list(batch.rows))
        self.batches_flushed += 1
        self.rows_flushed += len(batch.rows)

    def detach(self) -> None:
        self.bus.unsubscribe(TOPIC_REPORTS, self._on_batch)
