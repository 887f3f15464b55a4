"""Advisors.

Advisors read the newest sample of their load monitors, maintain the
local view of the load situation, and pass suspected overload or idle
situations to the load monitoring system for watch-time observation.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.monitoring.lms import LoadMonitoringSystem, SituationKind
from repro.monitoring.monitor import LoadMonitor

__all__ = ["SubjectKind", "Advisor"]


class SubjectKind(enum.Enum):
    """What an advisor is responsible for."""

    SERVER = "server"
    SERVICE_INSTANCE = "service-instance"


class Advisor:
    """Watches one load monitor and escalates suspected situations.

    Parameters
    ----------
    monitor:
        The load monitor to watch (CPU load of a server, or load of a
        service instance's host).
    subject_kind:
        Whether the subject is a server or a service instance; determines
        which trigger kinds the advisor raises.
    overload_threshold / idle_threshold:
        Crossing these opens an observation at the load monitoring
        system.  ``idle_threshold`` is typically 12.5% divided by the
        server's performance index (Section 5.1).
    overload_watch_time / idle_watch_time:
        Watch durations in minutes (paper defaults: 10 and 20).
    service_name:
        For service-instance advisors, the owning service.
    max_staleness:
        Escalate only on *fresh* measurements: if the latest sample is
        older than this many minutes (load reports were dropped or the
        host is unreachable), the advisor stays quiet instead of acting
        on stale data — a report gap is not zero load.
    """

    def __init__(
        self,
        monitor: LoadMonitor,
        subject_kind: SubjectKind,
        lms: LoadMonitoringSystem,
        overload_threshold: float,
        idle_threshold: float,
        overload_watch_time: int,
        idle_watch_time: int,
        service_name: Optional[str] = None,
        max_staleness: int = 2,
    ) -> None:
        if idle_threshold >= overload_threshold:
            raise ValueError(
                f"idle threshold {idle_threshold} must be below overload "
                f"threshold {overload_threshold}"
            )
        self.monitor = monitor
        self.subject_kind = subject_kind
        self._lms = lms
        self.overload_threshold = overload_threshold
        self.idle_threshold = idle_threshold
        self.overload_watch_time = overload_watch_time
        self.idle_watch_time = idle_watch_time
        self.service_name = service_name
        if max_staleness < 0:
            raise ValueError("max staleness must be non-negative")
        self.max_staleness = max_staleness
        if subject_kind is SubjectKind.SERVICE_INSTANCE and service_name is None:
            raise ValueError("service-instance advisors need a service name")

    @property
    def _overload_kind(self) -> SituationKind:
        if self.subject_kind is SubjectKind.SERVER:
            return SituationKind.SERVER_OVERLOADED
        return SituationKind.SERVICE_OVERLOADED

    @property
    def _idle_kind(self) -> SituationKind:
        if self.subject_kind is SubjectKind.SERVER:
            return SituationKind.SERVER_IDLE
        return SituationKind.SERVICE_IDLE

    def inspect(self, now: int) -> None:
        """Check the latest measurement and escalate threshold crossings.

        Stale measurements (older than ``max_staleness`` minutes) are
        ignored: when load reports stop arriving the advisor cannot tell
        overload from idle, so it escalates nothing rather than treating
        the gap as zero load.
        """
        time = self.monitor.latest_time
        if time is None or now - time > self.max_staleness:
            return
        value = self.monitor.latest
        if value > self.overload_threshold:
            self._lms.open_observation(
                kind=self._overload_kind,
                monitor=self.monitor,
                threshold=self.overload_threshold,
                now=now,
                watch_time=self.overload_watch_time,
                service_name=self.service_name,
            )
        elif value < self.idle_threshold:
            self._lms.open_observation(
                kind=self._idle_kind,
                monitor=self.monitor,
                threshold=self.idle_threshold,
                now=now,
                watch_time=self.idle_watch_time,
                service_name=self.service_name,
            )
