"""The per-object load monitors and advisors, kept as the threshold
pass's oracle.

The controller used to push every sampled value into a
:class:`LoadMonitor` per host metric and per instance, and to ask an
:class:`Advisor` per host and per instance to compare the newest sample
with its thresholds.  It now reads the same values as columns and
compares them in one vectorized pass
(:meth:`~repro.core.autoglobe.AutoGlobeController._inspect`).  This
module is the removed code: :class:`AdvisorShadow` rebuilds one
controller's monitors and advisors with the old sync rules, feeds them
the tick's values with scalar reads of the landscape state, and records
every observation its advisors ask the LMS to open.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.monitoring.lms import SituationKind

__all__ = ["SubjectKind", "LoadMonitor", "Advisor", "AdvisorShadow", "Opening"]

#: one ``open_observation`` call: ``(controller's LMS id, minute, kind,
#: subject, metric, threshold, watch time, service)``
Opening = Tuple[int, int, SituationKind, str, str, float, int, Optional[str]]


class SubjectKind(enum.Enum):
    """What an advisor is responsible for."""

    SERVER = "server"
    SERVICE_INSTANCE = "service-instance"


class LoadMonitor:
    """The newest real sample of one metric of one subject."""

    def __init__(self, subject: str, metric: str) -> None:
        self.subject = subject
        self.metric = metric
        #: the ``(subject, metric)`` series this monitor reports to
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
        """This minute's report was lost: nothing is recorded, the last
        real sample grows stale."""
        self.dropped_reports += 1


class Advisor:
    """Watches one load monitor and escalates suspected situations.

    ``lms`` is anything with the LMS's ``open_observation``.  A sample
    older than ``max_staleness`` minutes escalates nothing: a report gap
    is not zero load.
    """

    def __init__(
        self,
        monitor: LoadMonitor,
        subject_kind: SubjectKind,
        lms,
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
        if max_staleness < 0:
            raise ValueError("max staleness must be non-negative")
        if subject_kind is SubjectKind.SERVICE_INSTANCE and service_name is None:
            raise ValueError("service-instance advisors need a service name")
        self.monitor = monitor
        self.subject_kind = subject_kind
        self._lms = lms
        self.overload_threshold = overload_threshold
        self.idle_threshold = idle_threshold
        self.overload_watch_time = overload_watch_time
        self.idle_watch_time = idle_watch_time
        self.service_name = service_name
        self.max_staleness = max_staleness

    def inspect(self, now: int) -> None:
        """Check the latest measurement and escalate threshold crossings."""
        time = self.monitor.latest_time
        if time is None or now - time > self.max_staleness:
            return
        server = self.subject_kind is SubjectKind.SERVER
        value = self.monitor.latest
        if value > self.overload_threshold:
            kind = (
                SituationKind.SERVER_OVERLOADED if server
                else SituationKind.SERVICE_OVERLOADED
            )
            threshold, watch_time = self.overload_threshold, self.overload_watch_time
        elif value < self.idle_threshold:
            kind = SituationKind.SERVER_IDLE if server else SituationKind.SERVICE_IDLE
            threshold, watch_time = self.idle_threshold, self.idle_watch_time
        else:
            return
        self._lms.open_observation(
            kind=kind,
            subject=self.monitor.subject,
            metric=self.monitor.metric,
            threshold=threshold,
            now=now,
            watch_time=watch_time,
            service_name=self.service_name,
        )


class AdvisorShadow:
    """One controller's monitors and advisors, as the controller kept
    them: six dicts, re-synchronized when a landscape version moved."""

    def __init__(self, controller, openings: List[Opening]) -> None:
        self.controller = controller
        self.openings = openings
        self.host_cpu_monitors: Dict[str, LoadMonitor] = {}
        self.host_mem_monitors: Dict[str, LoadMonitor] = {}
        self.host_advisors: Dict[str, Advisor] = {}
        self.service_monitors: Dict[str, LoadMonitor] = {}
        self.instance_advisors: Dict[Tuple[str, str], Advisor] = {}
        self.instance_monitors: Dict[str, LoadMonitor] = {}
        self.restored_advisor_keys: List[Tuple[str, str]] = []
        self.registry_cursor = -1
        self.topology_cursor = -1

    def open_observation(self, kind, subject, metric, threshold, now, watch_time,
                         service_name=None) -> None:
        self.openings.append((
            id(self.controller.lms), now, kind, subject, metric, threshold,
            watch_time, service_name,
        ))

    def _advisor(self, monitor, subject_kind, host, service_name=None) -> Advisor:
        settings = self.controller.settings
        return Advisor(
            monitor,
            subject_kind,
            self,
            overload_threshold=settings.overload_threshold,
            idle_threshold=settings.idle_threshold(host.performance_index),
            overload_watch_time=settings.overload_watch_time,
            idle_watch_time=settings.idle_watch_time,
            service_name=service_name,
        )

    def sync(self) -> None:
        platform = self.controller.platform
        state = platform.landscape_state
        if self.registry_cursor != state.registry_version:
            for host in platform.hosts.values():
                if host.name in self.host_cpu_monitors:
                    continue
                cpu_monitor = LoadMonitor(host.name, "cpu")
                self.host_cpu_monitors[host.name] = cpu_monitor
                self.host_mem_monitors[host.name] = LoadMonitor(host.name, "mem")
                self.host_advisors[host.name] = self._advisor(
                    cpu_monitor, SubjectKind.SERVER, host
                )
            for service_name in platform.services:
                if service_name not in self.service_monitors:
                    self.service_monitors[service_name] = LoadMonitor(
                        f"service:{service_name}", "demand"
                    )
            self.registry_cursor = state.registry_version
        if self.topology_cursor == state.topology_version:
            return
        self.topology_cursor = state.topology_version
        running = {
            instance.instance_id: instance for instance in platform.all_instances()
        }
        for key in list(self.instance_advisors):
            instance_id, host_name = key
            instance = running.get(instance_id)
            if instance is None or instance.host_name != host_name:
                del self.instance_advisors[key]
                if instance is None:
                    self.instance_monitors.pop(instance_id, None)
        keys = self.restored_advisor_keys + [
            (instance.instance_id, instance.host_name) for instance in running.values()
        ]
        self.restored_advisor_keys = []
        for key in keys:
            if key in self.instance_advisors:
                continue
            instance = running.get(key[0])
            if instance is None or instance.host_name != key[1]:
                continue  # gone or moved since the snapshot
            monitor = self.instance_monitors.get(instance.instance_id)
            if monitor is None:
                monitor = LoadMonitor(instance.instance_id, "cpu")
                self.instance_monitors[instance.instance_id] = monitor
            self.instance_advisors[key] = self._advisor(
                monitor, SubjectKind.SERVICE_INSTANCE,
                platform.host(instance.host_name), instance.service_name,
            )

    def watched(self, descriptor) -> bool:
        """Whether a recovered observation's monitor still exists."""
        subject = str(descriptor["subject"])
        if SituationKind(str(descriptor["kind"])).is_server:
            return subject in self.host_cpu_monitors
        return subject in self.instance_monitors

    def tick(self, now: int, blind) -> Tuple[Tuple[str, str, int, float], ...]:
        """Push this minute's values (scalar reads), inspect every seen
        advisor, and return the reported rows in sweep order."""
        self.sync()
        state = self.controller.platform.landscape_state
        host_ids = state.host_index.ids
        service_ids = state.service_index.ids
        rows = []
        for monitors, read in (
            (self.host_cpu_monitors, state.host_cpu_load),
            (self.host_mem_monitors, state.host_mem_load),
        ):
            for name, monitor in monitors.items():
                if name in blind:
                    monitor.mark_dropped(now)
                else:
                    value = read(host_ids[name])
                    monitor.push(now, value)
                    rows.append((monitor.subject, monitor.metric, now, value))
        for name, monitor in self.service_monitors.items():
            value = state.service_demand(service_ids[name])
            monitor.push(now, value)
            rows.append((monitor.subject, monitor.metric, now, value))
        for (__, host_name), advisor in self.instance_advisors.items():
            monitor = advisor.monitor
            if host_name in blind:
                monitor.mark_dropped(now)
            else:
                value = state.host_cpu_load(host_ids[host_name])
                monitor.push(now, value)
                rows.append((monitor.subject, monitor.metric, now, value))
        for name, advisor in self.host_advisors.items():
            if name not in blind:
                advisor.inspect(now)
        for (__, host_name), advisor in self.instance_advisors.items():
            if host_name not in blind:
                advisor.inspect(now)
        return tuple(rows)
