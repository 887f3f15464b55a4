"""Load monitors.

"Every server and every service is monitored by a load monitor service,
which is a specialized service for resource monitoring of service hosts
and of resource usage of services, respectively."  (Section 2)

A :class:`LoadMonitor` is push-only: the controller reads one tick's
values for all monitored subjects off the landscape state's columns and
hands each monitor its measurement.  The monitor keeps the local time
series and forwards the measurement to its subscribers (the advisors)
and to the controller's per-tick report buffer, which is flushed to the
load archive in one batch.  A monitor without a report sink stores each
sample in its archive directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.monitoring.archive import LoadArchive
from repro.monitoring.timeseries import LoadSeries

__all__ = ["LoadMonitor"]

#: An observer receives each new sample as ``(time, value)``.
ReportObserver = Callable[[int, float], None]


class LoadMonitor:
    """The per-minute measurements of one metric of one subject.

    Parameters
    ----------
    subject:
        Identifier of the monitored entity, e.g. ``"Blade3"`` for a host
        or ``"FI#2"`` for a service instance.
    metric:
        Measurement name, e.g. ``"cpu"`` or ``"mem"``.
    archive:
        Optional load archive receiving every aggregated sample.
    """

    def __init__(
        self,
        subject: str,
        metric: str,
        archive: Optional[LoadArchive] = None,
    ) -> None:
        self.subject = subject
        self.metric = metric
        self._archive = archive
        self.series = LoadSeries(name=f"{subject}/{metric}")
        #: minutes whose report never arrived (monitoring degradation)
        self.dropped_reports = 0
        #: when set, samples are appended here as
        #: ``(subject, metric, time, value)`` instead of being stored in
        #: the archive one by one; the controller flushes the buffer to
        #: the archive in one batch per tick.
        self.report_sink: Optional[List[Tuple[str, str, int, float]]] = None
        self._observers: List[ReportObserver] = []

    def subscribe(self, observer: ReportObserver) -> None:
        """Push each new sample to ``observer(time, value)``."""
        self._observers.append(observer)

    def unsubscribe(self, observer: ReportObserver) -> bool:
        if observer in self._observers:
            self._observers.remove(observer)
            return True
        return False

    def push(self, time: int, value: float) -> float:
        """Record this minute's measurement and report it."""
        self.series.record(time, value)
        if self.report_sink is not None:
            self.report_sink.append((self.subject, self.metric, time, value))
        elif self._archive is not None:
            self._archive.store(self.subject, self.metric, time, value)
        observers = self._observers
        if observers:
            for observer in tuple(observers):
                observer(time, value)
        return value

    def mark_dropped(self, time: int) -> None:
        """This minute's load report was lost in transit.

        Nothing is recorded — a gap is a gap, not zero load.  The series
        keeps its last real sample, so :meth:`staleness` grows until
        reports resume.
        """
        self.dropped_reports += 1

    def staleness(self, now: int) -> Optional[int]:
        """Minutes since the last real sample; ``None`` before the first."""
        last = self.series.latest_time
        if last is None:
            return None
        return now - last

    @property
    def latest(self) -> Optional[float]:
        return self.series.latest

    def mean_over_last(self, duration: int) -> Optional[float]:
        return self.series.mean_over_last(duration)

    def __repr__(self) -> str:
        return f"LoadMonitor({self.subject!r}, {self.metric!r}, latest={self.latest})"
