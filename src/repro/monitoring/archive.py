"""The load archive.

"A load archive stores aggregated historic load data.  This data is used
to calculate the average load of services during their watchTime and to
initialize all resource variables of the fuzzy controller."  (Section 2)

One archive, :class:`LoadArchive` (:class:`InMemoryLoadArchive`): sorted
per-series columns in memory — an ``array('q')`` of minutes and an
``array('d')`` of values, 16 bytes a sample — the LMS's watch windows
and the fuzzy controller's ``cpuLoad`` means.  :class:`SqliteLoadArchive`
is the same archive with a state file written behind it — a state
directory's ``state.db`` (rewound with its journal on resume) or a file
of its own — one row per minute: a batch's float64 column is the
minute's blob as it stands.  It reads the file only to load it into
memory.

Samples enter through ``record_reports`` only, one
:class:`~repro.telemetry.records.LoadReportBatch` (one minute) at a time:
the controller stores each tick's batch itself, right before it
publishes it.  The last write of a ``(subject, metric, time)`` wins, and
a window is meaned with :func:`~repro.telemetry.windows.sum_forward`.
Situations and actions are not load data: the telemetry event log is
their record.
"""

from __future__ import annotations

import os
import sqlite3
import struct
import warnings
from array import array
from bisect import bisect_left
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.telemetry.records import LoadReportBatch
from repro.telemetry.windows import sum_forward, window_bounds

if TYPE_CHECKING:
    from repro.core.state import StateDb

__all__ = [
    "LoadArchive",
    "InMemoryLoadArchive",
    "SqliteLoadArchive",
]

#: series ids the layout cache of one archive holds before it starts
#: over (a few MB: ~1,000 layouts of 65 series, ~6 of 10,000)
_CACHED_ENTRIES = 1 << 16


#: one series' minutes and values, both sorted by minute
_Columns = Tuple["array[int]", "array[float]"]
_Series = Tuple[Tuple[str, str], ...]


class InMemoryLoadArchive:
    """Column-backed archive; O(1) appends, bisected window queries.

    Samples are kept as parallel sorted ``array('q')`` minutes and
    ``array('d')`` values per ``(subject, metric)``, so window queries
    bisect for the bounds and sum the slice oldest-first, left to right —
    the summation of the historic linear scan and of the archive's SQL
    reads before it.
    """

    def __init__(self) -> None:
        self._times: Dict[Tuple[str, str], "array[int]"] = {}
        self._values: Dict[Tuple[str, str], "array[float]"] = {}
        #: the newest batch layout and its series' columns in its order
        self._cached_columns: Tuple[_Series, List[_Columns]] = ((), [])
        #: no stored minute is newer (the SQLite archive writes a batch
        #: at or before it as a merged minute)
        self._newest: float = float("-inf")

    def _columns(self, series: _Series) -> List[_Columns]:
        """The columns of a batch layout, in its order (new series get
        empty ones); the batches of one monitor set share a layout.  A
        layout naming a series twice is a :class:`ValueError`: one minute
        holds one sample of a series."""
        if series is not self._cached_columns[0]:
            if len(set(series)) != len(series):
                raise ValueError("a load report batch names a series twice")
            columns = []
            for key in series:
                times = self._times.get(key)
                if times is None:
                    times = self._times[key] = array("q")
                    self._values[key] = array("d")
                columns.append((times, self._values[key]))
            self._cached_columns = (series, columns)
        return self._cached_columns[1]

    def record_reports(self, batch: LoadReportBatch) -> None:
        """Store one tick's load reports; a sample stored again for the
        same ``(subject, metric, time)`` replaces the earlier."""
        time = batch.time
        for (times, values), value in zip(
            self._columns(batch.series), memoryview(batch.values)
        ):
            if not times or time > times[-1]:
                times.append(time)
                values.append(value)
                continue
            # a stored minute again, or an out-of-order backfill (rare):
            # the last write wins and the columns stay sorted
            index = bisect_left(times, time)
            if times[index] == time:
                values[index] = value
            else:
                times.insert(index, time)
                values.insert(index, value)
        self._newest = max(self._newest, time)

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
        buckets: List[Tuple[int, float]] = []
        for bucket, samples in groupby(
            self.history(subject, metric), lambda sample: sample[0] // bucket_minutes
        ):
            values = [value for __, value in samples]
            buckets.append(
                (bucket * bucket_minutes, sum_forward(values, 0, len(values)) / len(values))
            )
        return buckets

    def truncate_after(self, time: int) -> None:
        """Drop samples newer than ``time`` (resume support)."""
        for key, times in self._times.items():
            lo, hi = window_bounds(times, 0, time)
            del times[hi:]
            del self._values[key][hi:]
        self._newest = min(self._newest, time)


class SqliteLoadArchive(InMemoryLoadArchive):
    """The in-memory archive plus the load tables of a
    :class:`~repro.core.state.StateDb` written behind it — a state
    directory's ``state.db`` (``DurableStateStore.archive``), a database
    file of its own, or ``":memory:"`` (the default).

    One row per minute: ``load_minutes`` holds a minute's samples as one
    blob of little-endian float64 values, ordered as a ``load_layouts``
    row lists ``load_series`` ids (one per ``(subject, metric)``, interned
    once).  A batch is one ``INSERT`` — its values column is the blob, its
    series layout's id is looked up once per layout — then the same
    samples go into the inherited columns; a minute stored before is
    written again whole, its row built from the columns.  Every read is
    the inherited one: the file is read only to fill the columns, in one
    ordered pass over ``load_minutes`` at open and again after any
    rollback of the file
    (:attr:`StateDb.rollbacks <repro.core.state.StateDb.rollbacks>`),
    which may have dropped rows the columns mirror.  A blob that is not
    8 bytes per entry of its layout, or a layout naming an unknown series,
    is a :class:`~repro.core.state.StateCorruptError` at that load.

    A file of its own holds nothing but load data, so one that fails its
    integrity check or that load on open — a crash tore it, a disk flipped
    bits — or is of another format does not abort the controller: the
    damaged file is moved aside to ``<path>.corrupt`` with a warning and an
    empty archive is rebuilt in its place (historic load data degrades
    forecasting, losing it must not take down administration).
    """

    def __init__(self, db: Union["StateDb", str, Path] = ":memory:") -> None:
        super().__init__()
        # imported here: importing repro.core runs its package __init__,
        # which imports the controller, which imports this module
        from repro.core.state import StateCorruptError, StateDb

        if isinstance(db, StateDb):
            self._open(db)
            return
        path = str(db)
        opened: Optional[StateDb] = None
        try:
            opened = StateDb(path)
            self._open(opened)
        except StateCorruptError as error:
            if opened is not None:
                opened.close()
            corrupt = path + ".corrupt"
            os.replace(path, corrupt)
            warnings.warn(
                f"load archive {path!r} cannot be used ({error.detail}); moved "
                f"it to {corrupt!r} and rebuilt an empty archive — historic "
                "load data before this point is lost",
                RuntimeWarning,
                stacklevel=2,
            )
            self._open(StateDb(path))

    def _open(self, db: "StateDb") -> None:
        self._db = db
        self._connection = db.connection
        self._reload()

    def _reload(self) -> None:
        """(Re)load the columns and the caches from the file: at open,
        and after a rollback."""
        self._rollbacks = self._db.rollbacks
        self._times.clear()
        self._values.clear()
        self._cached_columns = ((), [])
        #: (subject, metric) -> series id (writes)
        self._series: Dict[Tuple[str, str], int] = {}
        #: series id -> its columns
        columns: Dict[int, _Columns] = {}
        for series, subject, metric in self._connection.execute(
            "SELECT id, subject, metric FROM load_series"
        ):
            key = (subject, metric)
            self._series[key] = series
            columns[series] = (
                self._times.setdefault(key, array("q")),
                self._values.setdefault(key, array("d")),
            )
        #: series ids in layout order -> layout id (writes)
        self._layout_ids: Dict[Tuple[int, ...], int] = {}
        #: series ids the layout cache holds, at most _CACHED_ENTRIES
        self._cached = 0
        #: the newest batch layout written and its layout id
        self._written: Tuple[_Series, int] = ((), 0)
        self._newest = float("-inf")
        layouts: Dict[int, List[_Columns]] = {}
        for time, layout, vals in self._connection.execute(
            "SELECT time, layout, vals FROM load_minutes ORDER BY time"
        ):
            order = layouts.get(layout)
            if order is None:
                order = layouts[layout] = self._layout_columns(layout, columns)
            if not isinstance(vals, bytes) or len(vals) != 8 * len(order):
                raise self._damaged(
                    f"minute {time} is torn: its layout {layout} has "
                    f"{len(order)} samples"
                )
            for (times, values), value in zip(
                order, struct.unpack(f"<{len(order)}d", vals)
            ):
                times.append(time)
                values.append(value)
            self._newest = time

    def _layout_columns(
        self, layout: int, columns: Dict[int, _Columns]
    ) -> List[_Columns]:
        """The columns of a layout's series, in its order."""
        row = self._connection.execute(
            "SELECT series FROM load_layouts WHERE id = ?", (layout,)
        ).fetchone()
        blob = None if row is None else row[0]
        if not isinstance(blob, bytes) or len(blob) % 8:
            raise self._damaged(f"layout {layout} is missing or torn")
        ids = struct.unpack(f"<{len(blob) // 8}q", blob)
        if len(set(ids)) != len(ids) or not all(series in columns for series in ids):
            raise self._damaged(f"layout {layout} names an unknown series")
        return [columns[series] for series in ids]

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

    def record_reports(self, batch: LoadReportBatch) -> None:
        """Store one tick's batch as its minute's row in a single
        transaction, then in the columns.

        All-or-nothing: a crash mid-batch leaves the archive at the
        previous tick's state instead of a half-written minute.  The last
        write of a ``(subject, metric, minute)`` wins across batches: a
        minute stored before is rewritten merged with the samples the
        columns hold for it.
        """
        self._current()
        time = batch.time
        if not batch.series:
            return
        self._columns(batch.series)  # a repeated series fails before the file
        with self._db.transaction() as connection:
            if time <= self._newest:
                samples = self._minute(time)
                samples.update(zip(batch.series, batch.values.tolist()))
                row = (
                    time,
                    self._layout_id(connection, self._series_ids(connection, samples)),
                    struct.pack(f"<{len(samples)}d", *samples.values()),
                )
            else:
                row = (
                    time,
                    self._batch_layout(connection, batch.series),
                    batch.values.astype("<f8", copy=False).tobytes(),
                )
            connection.execute(
                "INSERT OR REPLACE INTO load_minutes (time, layout, vals) "
                "VALUES (?, ?, ?)",
                row,
            )
        super().record_reports(batch)

    def _minute(self, time: int) -> Dict[Tuple[str, str], float]:
        """{(subject, metric): value} of a minute the columns hold."""
        samples: Dict[Tuple[str, str], float] = {}
        for key, times in self._times.items():
            index = bisect_left(times, time)
            if index < len(times) and times[index] == time:
                samples[key] = self._values[key][index]
        return samples

    def _batch_layout(self, connection: sqlite3.Connection, series: _Series) -> int:
        """The layout id of a batch's series, looked up once per layout."""
        written, layout = self._written
        if series is not written:
            layout = self._layout_id(connection, self._series_ids(connection, series))
            self._written = (series, layout)
        return layout

    def _series_ids(
        self, connection: sqlite3.Connection, keys: Iterable[Tuple[str, str]]
    ) -> Tuple[int, ...]:
        known = self._series
        return tuple([
            known[key] if key in known else self._intern(connection, key)
            for key in keys
        ])

    def _intern(self, connection: sqlite3.Connection, key: Tuple[str, str]) -> int:
        series = int(connection.execute(
            "INSERT INTO load_series (subject, metric) VALUES (?, ?)", key
        ).lastrowid or 0)
        self._series[key] = series
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
            self._cached += len(ids)
            if self._cached > _CACHED_ENTRIES:
                self._layout_ids.clear()
                self._cached = len(ids)
            self._layout_ids[ids] = layout
        return layout

    def truncate_after(self, time: int) -> None:
        """Drop samples newer than ``time``: what a timeline
        abandoned at a resume recorded past the snapshot (atomic inside
        :meth:`DurableStateStore.rewind <repro.core.state.DurableStateStore.rewind>`)."""
        self._current()
        self._db.execute("DELETE FROM load_minutes WHERE time > ?", (time,))
        super().truncate_after(time)

    def commit(self) -> None:
        """A commit point of the file's open write group
        (:meth:`StateDb.commit_group <repro.core.state.StateDb.commit_group>`);
        outside a group every write above has committed on its own."""
        self._db.commit_group()

    # the reads are the inherited ones (``aggregate`` reads ``history``),
    # on columns reloaded after a rollback

    def average(
        self, subject: str, metric: str, start: int, end: int
    ) -> Optional[float]:
        self._current()
        return super().average(subject, metric, start, end)

    def history(
        self, subject: str, metric: str, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        self._current()
        return super().history(subject, metric, start, end)

    def subjects(self) -> List[str]:
        self._current()
        return super().subjects()


#: the archive the controller, the LMS and the forecasters accept
LoadArchive = InMemoryLoadArchive
