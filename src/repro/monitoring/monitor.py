"""Load monitors.

"Every server and every service is monitored by a load monitor service,
which is a specialized service for resource monitoring of service hosts
and of resource usage of services, respectively."  (Section 2)

A :class:`LoadMonitor` is push-only: the controller reads one tick's
values for all monitored subjects off the landscape state's columns and
hands each monitor its measurement.  The monitor keeps only its newest
real sample, which its advisor inspects.  The tick's samples travel as
one column, not per monitor: the controller builds a
:class:`~repro.telemetry.records.LoadReportBatch` from the same column
reads, stores it in the load archive — the only store of samples — and
publishes it.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["LoadMonitor"]


class LoadMonitor:
    """The per-minute measurements of one metric of one subject.

    Parameters
    ----------
    subject:
        Identifier of the monitored entity, e.g. ``"Blade3"`` for a host
        or ``"FI#2"`` for a service instance.
    metric:
        Measurement name, e.g. ``"cpu"`` or ``"mem"``.
    """

    def __init__(self, subject: str, metric: str) -> None:
        self.subject = subject
        self.metric = metric
        #: the ``(subject, metric)`` series this monitor reports to: one
        #: tuple, shared by every report batch layout that lists it
        self.key = (subject, metric)
        #: minute and value of the newest real sample; ``None`` before the first
        self.latest_time: Optional[int] = None
        self.latest: Optional[float] = None
        #: minutes whose report never arrived (monitoring degradation)
        self.dropped_reports = 0

    def push(self, time: int, value: float) -> None:
        """Record this minute's measurement; minutes must strictly
        increase."""
        last = self.latest_time
        if last is not None and time <= last:
            raise ValueError(
                f"monitor {self.subject}/{self.metric}: time {time} not after {last}"
            )
        self.latest_time = time
        self.latest = float(value)

    def mark_dropped(self, time: int) -> None:
        """This minute's load report was lost in transit.

        Nothing is recorded — a gap is a gap, not zero load.  The monitor
        keeps its last real sample, which grows stale until reports
        resume.
        """
        self.dropped_reports += 1

    def __repr__(self) -> str:
        return f"LoadMonitor({self.subject!r}, {self.metric!r}, latest={self.latest})"
