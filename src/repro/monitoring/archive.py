"""The load archive.

"A load archive stores aggregated historic load data.  This data is used
to calculate the average load of services during their watchTime and to
initialize all resource variables of the fuzzy controller."  (Section 2)

Two implementations, one :data:`LoadArchive`:

* :class:`InMemoryLoadArchive` — fast dict-backed store, the archive of
  every run without a state directory;
* :class:`SqliteLoadArchive` — the same API plus coarse aggregation over
  tables of a :class:`~repro.core.state.StateDb`, one row per minute: a
  state directory's ``state.db`` (rewound with its journal on resume) or
  a file of its own, for long-running deployments and load forecasting.

Samples enter through ``record_reports`` only: the controller stores each
tick's batch itself, right before it publishes it.  Both keep the last
write of a ``(subject, metric, time)`` and both mean a window with
:func:`~repro.telemetry.windows.sum_forward`, so they return the same
numbers bit for bit.  Situations and actions are not load data: the
telemetry event log is their record.
"""

from __future__ import annotations

import os
import sqlite3
import struct
import warnings
from bisect import bisect_left
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.telemetry.windows import sum_forward, window_bounds

if TYPE_CHECKING:
    from repro.core.state import StateDb

__all__ = [
    "LoadArchive",
    "InMemoryLoadArchive",
    "SqliteLoadArchive",
]

#: the widest window of minutes a read can ask for (SQLite's integer range)
_EARLIEST, _LATEST = -(2**63), 2**63 - 1
#: series ids the layout caches of one archive hold before they start
#: over (a few MB: ~1,000 layouts of 65 series, ~6 of 10,000)
_CACHED_ENTRIES = 1 << 16


class InMemoryLoadArchive:
    """Dict-backed archive; O(1) appends, bisected window queries.

    Samples are kept as parallel sorted time/value lists per
    ``(subject, metric)``, so window queries bisect for the bounds and
    sum the slice oldest-first, left to right — the summation of the
    historic linear scan and of :class:`SqliteLoadArchive`.
    """

    def __init__(self) -> None:
        self._times: Dict[Tuple[str, str], List[int]] = {}
        self._values: Dict[Tuple[str, str], List[float]] = {}

    def record_reports(self, rows: Iterable[Tuple[str, str, int, float]]) -> None:
        """Store one tick's load reports; a sample stored again for the
        same ``(subject, metric, time)`` replaces the earlier."""
        for subject, metric, time, value in rows:
            key = (subject, metric)
            times = self._times.get(key)
            if times is None:
                times = self._times[key] = []
                self._values[key] = []
            values = self._values[key]
            if not times or time > times[-1]:
                times.append(time)
                values.append(float(value))
                continue
            # a stored minute again, or an out-of-order backfill (rare):
            # the last write wins and the lists stay sorted
            index = bisect_left(times, time)
            if times[index] == time:
                values[index] = float(value)
            else:
                times.insert(index, time)
                values.insert(index, float(value))

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
        """Subjects with at least one stored sample."""
        return sorted({subject for (subject, __), times in self._times.items() if times})

    def truncate_after(self, time: int) -> None:
        """Drop samples newer than ``time`` (resume support)."""
        for key, times in self._times.items():
            lo, hi = window_bounds(times, 0, time)
            del times[hi:]
            del self._values[key][hi:]


class SqliteLoadArchive:
    """Persistent archive: the load tables of a
    :class:`~repro.core.state.StateDb` — a state directory's
    ``state.db`` (``DurableStateStore.archive``), a database file of its
    own, or ``":memory:"`` (the default).

    One row per minute: ``load_minutes`` holds a minute's samples as one
    blob of little-endian float64 values, ordered as a ``load_layouts``
    row lists ``load_series`` ids (one per ``(subject, metric)``, interned
    once).  A batch is one ``INSERT``; a read fetches 8 bytes per sample
    it returns, one query per run of minutes that hold the series at one
    position, and means them left to right like the in-memory archive.  The
    series ids, layouts and the newest minute are cached, and reloaded
    after any rollback of the file (:attr:`StateDb.rollbacks
    <repro.core.state.StateDb.rollbacks>`), which may have dropped rows
    they mirror.  A blob that is not 8 bytes per entry of its layout, or a
    layout naming an unknown series, is a
    :class:`~repro.core.state.StateCorruptError`.

    A file of its own holds nothing but load data, so one that fails its
    integrity check on open — a crash tore it, a disk flipped bits — or
    is of another format does not abort the controller: the damaged file is moved aside to
    ``<path>.corrupt`` with a warning and an empty archive is rebuilt in
    its place (historic load data degrades forecasting, losing it must
    not take down administration).
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
                    f"load archive {path!r} cannot be used ({error.detail}); moved "
                    f"it to {corrupt!r} and rebuilt an empty archive — historic "
                    "load data before this point is lost",
                    RuntimeWarning,
                    stacklevel=2,
                )
                db = StateDb(path)
        self._db = db
        self._connection = db.connection
        self._reload()

    def _reload(self) -> None:
        """(Re)read what the caches mirror: at open, and after a rollback."""
        self._rollbacks = self._db.rollbacks
        #: (subject, metric) -> series id, and series id -> subject
        self._series: Dict[Tuple[str, str], int] = {}
        self._subject_of: Dict[int, str] = {}
        for series, subject, metric in self._connection.execute(
            "SELECT id, subject, metric FROM load_series"
        ):
            self._series[(subject, metric)] = series
            self._subject_of[series] = subject
        #: series ids in layout order -> layout id (writes)
        self._layout_ids: Dict[Tuple[int, ...], int] = {}
        #: layout id -> {series id: position} (reads)
        self._positions: Dict[int, Dict[int, int]] = {}
        #: series ids the two layout caches hold, at most _CACHED_ENTRIES
        self._cached = 0
        newest = self._connection.execute(
            "SELECT MAX(time) FROM load_minutes"
        ).fetchone()[0]
        #: no stored minute is newer: a batch past it only inserts
        self._newest: float = float("-inf") if newest is None else newest

    def _current(self) -> None:
        if self._rollbacks != self._db.rollbacks:
            self._reload()

    def _damaged(self, detail: str) -> Exception:
        from repro.core.state import StateCorruptError

        return StateCorruptError(self._db.path, f"load archive: {detail}")

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SqliteLoadArchive":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def record_reports(self, rows: Iterable[Tuple[str, str, int, float]]) -> None:
        """Store a batch of samples (one tick's reports) in a single
        transaction, one row per minute.

        All-or-nothing: a crash mid-batch leaves the archive at the
        previous tick's state instead of a half-written minute.  The last
        write of a ``(subject, metric, minute)`` wins, within and across
        batches: only a minute stored before is read back and merged.
        """
        minutes: Dict[int, Dict[Tuple[str, str], float]] = {}
        minute = None
        samples: Dict[Tuple[str, str], float] = {}
        for subject, metric, time, value in rows:
            if time != minute:  # one minute a tick; a backfill may mix them
                minute = time
                samples = minutes.setdefault(time, {})
            samples[subject, metric] = value
        if not minutes:
            return
        self._current()
        with self._db.transaction() as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO load_minutes (time, layout, vals) "
                "VALUES (?, ?, ?)",
                [self._row(connection, time, samples)
                 for time, samples in minutes.items()],
            )
            newest = max(minutes)
            if newest > self._newest:
                self._newest = newest

    def _row(
        self,
        connection: sqlite3.Connection,
        time: int,
        samples: Dict[Tuple[str, str], float],
    ) -> Tuple[int, int, bytes]:
        """The ``load_minutes`` row of one minute of a batch."""
        known = self._series
        try:
            ids = [known[key] for key in samples]
        except KeyError:
            ids = [
                known[key] if key in known else self._intern(connection, key)
                for key in samples
            ]
        values = list(samples.values())
        if time <= self._newest:
            stored = self._stored(time)
            if stored is not None:
                stored.update(zip(ids, values))
                ids, values = list(stored), list(stored.values())
        return (
            time,
            self._layout_id(connection, tuple(ids)),
            struct.pack(f"<{len(values)}d", *values),
        )

    def _intern(self, connection: sqlite3.Connection, key: Tuple[str, str]) -> int:
        series = int(connection.execute(
            "INSERT INTO load_series (subject, metric) VALUES (?, ?)", key
        ).lastrowid or 0)
        self._series[key] = series
        self._subject_of[series] = key[0]
        return series

    def _layout_id(
        self, connection: sqlite3.Connection, ids: Tuple[int, ...]
    ) -> int:
        layout = self._layout_ids.get(ids)
        if layout is None:
            blob = struct.pack(f"<{len(ids)}q", *ids)
            row = connection.execute(
                "SELECT id FROM load_layouts WHERE series = ?", (blob,)
            ).fetchone()
            if row is not None:
                layout = int(row[0])
            else:
                layout = int(connection.execute(
                    "INSERT INTO load_layouts (series) VALUES (?)", (blob,)
                ).lastrowid or 0)
            self._budget(len(ids))
            self._layout_ids[ids] = layout
        return layout

    def _layout(self, layout: int) -> Dict[int, int]:
        """{series id: position} of a layout, checked against the series."""
        positions = self._positions.get(layout)
        if positions is None:
            row = self._connection.execute(
                "SELECT series FROM load_layouts WHERE id = ?", (layout,)
            ).fetchone()
            blob = None if row is None else row[0]
            if not isinstance(blob, bytes) or len(blob) % 8:
                raise self._damaged(f"layout {layout} is missing or torn")
            ids = struct.unpack(f"<{len(blob) // 8}q", blob)
            positions = {series: index for index, series in enumerate(ids)}
            if len(positions) != len(ids) or not all(
                series in self._subject_of for series in ids
            ):
                raise self._damaged(f"layout {layout} names an unknown series")
            self._budget(len(ids))
            self._positions[layout] = positions
        return positions

    def _budget(self, entries: int) -> None:
        """Make room for a layout of ``entries`` series in the caches."""
        self._cached += entries
        if self._cached > _CACHED_ENTRIES:
            self._layout_ids.clear()
            self._positions.clear()
            self._cached = entries

    def _stored(self, time: int) -> Optional[Dict[int, float]]:
        """{series id: value} of a stored minute (the merge path), or None."""
        row = self._connection.execute(
            "SELECT layout, vals FROM load_minutes WHERE time = ?", (time,)
        ).fetchone()
        if row is None:
            return None
        layout, vals = row
        positions = self._layout(layout)
        if not isinstance(vals, bytes) or len(vals) != 8 * len(positions):
            raise self._damaged(
                f"minute {time} is torn: its layout {layout} has "
                f"{len(positions)} samples"
            )
        return dict(zip(positions, struct.unpack(f"<{len(positions)}d", vals)))

    def _window(
        self, subject: str, metric: str, start: int, end: int
    ) -> Tuple[List[int], List[float]]:
        """Times and values of one series in ``[start, end]``, by time.

        The minutes' layouts first, then 8 bytes of each minute that
        holds the series: one query per run of consecutive minutes that
        hold it at the same position.
        """
        self._current()
        series = self._series.get((subject, metric))
        if series is None:
            return [], []
        connection = self._connection
        runs: List[List[int]] = []  # [blob offset, first minute, last minute]
        run: Optional[List[int]] = None
        for time, layout, size in connection.execute(
            "SELECT time, layout, length(vals) FROM load_minutes "
            "WHERE time BETWEEN ? AND ? ORDER BY time",
            (start, end),
        ):
            positions = self._layout(layout)
            if size != 8 * len(positions):
                raise self._damaged(
                    f"minute {time} holds {size} bytes for the "
                    f"{len(positions)} samples of layout {layout}"
                )
            position = positions.get(series)
            if position is None:
                run = None
            elif run is not None and run[0] == 8 * position + 1:
                run[2] = time
            else:
                run = [8 * position + 1, time, time]
                runs.append(run)
        times: List[int] = []
        chunks: List[bytes] = []
        for offset, first, last in runs:
            for time, chunk in connection.execute(
                "SELECT time, substr(vals, ?, 8) FROM load_minutes "
                "WHERE time BETWEEN ? AND ? ORDER BY time",
                (offset, first, last),
            ):
                times.append(time)
                chunks.append(chunk)
        return times, list(struct.unpack(f"<{len(times)}d", b"".join(chunks)))

    def truncate_after(self, time: int) -> None:
        """Drop samples newer than ``time``: what a timeline
        abandoned at a resume recorded past the snapshot (atomic inside
        :meth:`DurableStateStore.rewind <repro.core.state.DurableStateStore.rewind>`)."""
        self._current()
        self._db.execute("DELETE FROM load_minutes WHERE time > ?", (time,))
        if time < self._newest:
            self._newest = time

    def commit(self) -> None:
        """A commit point of the file's open write group
        (:meth:`StateDb.commit_group <repro.core.state.StateDb.commit_group>`);
        outside a group every write above has committed on its own."""
        self._db.commit_group()

    def average(
        self, subject: str, metric: str, start: int, end: int
    ) -> Optional[float]:
        __, values = self._window(subject, metric, start, end)
        if not values:
            return None
        return sum_forward(values, 0, len(values)) / len(values)

    def history(
        self, subject: str, metric: str, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        times, values = self._window(
            subject, metric, start, _LATEST if end is None else end
        )
        return list(zip(times, values))

    def subjects(self) -> List[str]:
        """Subjects with at least one stored sample."""
        self._current()
        subjects = set()
        for (layout,) in self._connection.execute(
            "SELECT DISTINCT layout FROM load_minutes"
        ).fetchall():
            subjects.update(self._subject_of[series] for series in self._layout(layout))
        return sorted(subjects)

    def aggregate(
        self, subject: str, metric: str, bucket_minutes: int
    ) -> List[Tuple[int, float]]:
        """Aggregated view: (bucket start, mean value) per bucket of
        ``time // bucket_minutes``.

        This is the "persistent aggregated view of historic load data"
        the forecasting extension mines for periodic patterns.
        """
        if bucket_minutes < 1:
            raise ValueError("bucket size must be at least one minute")
        times, values = self._window(subject, metric, _EARLIEST, _LATEST)
        buckets: List[Tuple[int, float]] = []
        lo = 0
        for hi in range(1, len(times) + 1):
            bucket = times[lo] // bucket_minutes
            if hi == len(times) or times[hi] // bucket_minutes != bucket:
                buckets.append(
                    (bucket * bucket_minutes, sum_forward(values, lo, hi) / (hi - lo))
                )
                lo = hi
        return buckets


#: either archive: what the controller, the LMS and the forecasters accept
LoadArchive = Union[InMemoryLoadArchive, SqliteLoadArchive]
