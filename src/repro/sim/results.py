"""Simulation results, overload accounting, availability and the SLA check.

The paper calls a system state "overloaded" when servers "have a CPU
load of more than 80% for a long time, at regular intervals"; then
"batch jobs are not processed in time and the response time of
interactive requests increases [...] users cannot perform all their
requests in a given period".  :class:`SlaPolicy` operationalizes this:
a run fails when the per-day volume of degraded host-minutes (load above
80% on hosts that are actually serving instances) exceeds a budget, or
when any single overload episode lasts too long.

Robustness is measured, not assumed: the collector additionally tracks
per-service *availability* (fraction of minutes with at least one
running instance), downtime episodes and their mean duration (MTTR),
plus host down-minutes — the quantities the chaos scenario compares
between a controller-enabled and a controller-disabled run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.config.model import Action
from repro.core.alerts import AlertSeverity
from repro.serviceglobe.actions import ActionOutcome
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY
from repro.telemetry.records import (
    TOPIC_ACTIONS,
    TOPIC_ALERTS,
    TOPIC_FAULTS,
    TOPIC_SUPERVISION,
    FaultRecord,
    SupervisionEventKind,
    record_payload,
)
from repro.telemetry.windows import sum_forward

__all__ = [
    "SlaPolicy",
    "OverloadEpisode",
    "DowntimeEpisode",
    "ServiceAvailability",
    "SimulationResult",
    "ResultCollector",
    "accounting_summary",
    "expired_approvals_by_service",
]


def expired_approvals_by_service(expired) -> Dict[str, int]:
    """Group expired approval requests by the requesting service;
    requests predating the service attribution land under ``""``."""
    counts: Dict[str, int] = {}
    for request in expired:
        name = request.service_name or ""
        counts[name] = counts.get(name, 0) + 1
    return counts


def accounting_summary(result: "SimulationResult") -> Dict[str, Any]:
    """The reconciliation subset of the exported summary.

    Exactly the keys the AG305 accounting checker cross-checks against
    the event stream; a ``summary.json`` written by the exporter is a
    superset of this.
    """
    return {
        "action_count": len(result.actions),
        "escalation_count": result.escalation_count,
        "injected_fault_count": len(result.fault_records),
        "retried_action_count": result.retried_action_count,
        "compensated_action_count": result.compensated_action_count,
        "failed_action_count": result.failed_action_count,
        "fenced_action_count": result.fenced_action_count,
        "total_down_minutes": result.total_down_minutes,
        "availability_by_service": {
            name: {"down_minutes": record.down_minutes}
            for name, record in result.availability.items()
        },
    }


@dataclass(frozen=True)
class SlaPolicy:
    """Operational definition of "the system is overloaded"."""

    #: CPU load above this counts as degraded service (the paper's 80%).
    overload_level: float = 0.80
    #: Budget of degraded host-minutes per simulated day.  Calibrated so
    #: that the Table 7 sweep lands on the paper's numbers (static 100%,
    #: constrained mobility 115%, full mobility 135%) under the default
    #: seed; see EXPERIMENTS.md for the measured margins.
    max_overload_minutes_per_day: float = 110.0
    #: Longest tolerable single overload episode on one host, in minutes.
    max_episode_minutes: int = 180


@dataclass(frozen=True)
class OverloadEpisode:
    """A maximal run of consecutive overloaded minutes on one host."""

    host_name: str
    start: int
    end: int  # inclusive

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class DowntimeEpisode:
    """A maximal run of consecutive minutes a service had no running instance."""

    service_name: str
    start: int
    end: int  # inclusive

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class ServiceAvailability:
    """Availability accounting of one service over a run."""

    service_name: str
    observed_minutes: int
    down_minutes: int
    episode_count: int

    @property
    def availability(self) -> float:
        """Fraction of observed minutes with at least one running instance."""
        if self.observed_minutes == 0:
            return 1.0
        return 1.0 - self.down_minutes / self.observed_minutes

    @property
    def mttr_minutes(self) -> float:
        """Mean time to repair: average downtime-episode duration."""
        if self.episode_count == 0:
            return 0.0
        return self.down_minutes / self.episode_count

    def __str__(self) -> str:
        return (
            f"{self.service_name}: {self.availability:.2%} available "
            f"({self.down_minutes} down-minutes over {self.episode_count} "
            f"episodes, MTTR {self.mttr_minutes:.1f} min)"
        )


@dataclass
class SimulationResult:
    """Everything a benchmark needs to reproduce a paper figure/table."""

    scenario_name: str
    user_factor: float
    horizon: int
    host_names: List[str]
    #: absolute minute of the first sample (the paper's plots start at noon)
    start_minute: int = 0
    #: host name -> per-minute CPU load (only when series collection is on)
    host_series: Dict[str, np.ndarray] = field(default_factory=dict)
    #: service name -> [(minute, instance id, host name, host load)]
    service_samples: Dict[str, List[Tuple[int, str, str, float]]] = field(
        default_factory=dict
    )
    overload_minutes_by_host: Dict[str, int] = field(default_factory=dict)
    episodes: List[OverloadEpisode] = field(default_factory=list)
    actions: List[ActionOutcome] = field(default_factory=list)
    escalation_count: int = 0
    final_instance_counts: Dict[str, int] = field(default_factory=dict)
    #: service name -> availability accounting (always collected)
    availability: Dict[str, ServiceAvailability] = field(default_factory=dict)
    downtime_episodes: List[DowntimeEpisode] = field(default_factory=list)
    #: host name -> minutes the host was out of the landscape (crashed)
    host_down_minutes: Dict[str, int] = field(default_factory=dict)
    #: injected fault records when the run used a fault injector
    fault_records: List = field(default_factory=list)
    #: minutes the run spent with no live controller (crash recovery)
    controller_down_minutes: int = 0
    #: semi-automatic approvals that expired unanswered / are still open
    expired_approval_count: int = 0
    pending_approval_count: int = 0
    #: service name -> approvals that expired unanswered for that service
    #: (requests without a service attribution count under ``""``)
    expired_approvals_by_service: Dict[str, int] = field(default_factory=dict)

    # -- aggregates ------------------------------------------------------------------

    @property
    def days(self) -> float:
        return self.horizon / MINUTES_PER_DAY

    @property
    def total_overload_minutes(self) -> int:
        return sum(self.overload_minutes_by_host.values())

    @property
    def overload_minutes_per_day(self) -> float:
        return self.total_overload_minutes / self.days if self.days else 0.0

    @property
    def longest_episode(self) -> int:
        return max((e.duration for e in self.episodes), default=0)

    def average_load_series(self) -> np.ndarray:
        """The thick 'average load of the whole system' line of Figs. 12-14."""
        if not self.host_series:
            raise ValueError("host series were not collected for this run")
        stacked = np.vstack([self.host_series[name] for name in self.host_names])
        return stacked.mean(axis=0)

    def actions_of_service(self, service_name: str) -> List[ActionOutcome]:
        return [a for a in self.actions if a.service_name == service_name]

    def action_counts(self) -> Dict[Action, int]:
        counts: Dict[Action, int] = {}
        for action in self.actions:
            counts[action.action] = counts.get(action.action, 0) + 1
        return counts

    # -- availability aggregates -------------------------------------------------------

    @property
    def mean_availability(self) -> float:
        """Unweighted mean availability across services (1.0 when none)."""
        if not self.availability:
            return 1.0
        values = [a.availability for a in self.availability.values()]
        return sum_forward(values, 0, len(values)) / len(values)

    @property
    def total_down_minutes(self) -> int:
        return sum(a.down_minutes for a in self.availability.values())

    @property
    def mttr_minutes(self) -> float:
        """Mean downtime-episode duration across all services."""
        episodes = sum(a.episode_count for a in self.availability.values())
        if episodes == 0:
            return 0.0
        return self.total_down_minutes / episodes

    @property
    def failed_action_count(self) -> int:
        return sum(1 for a in self.actions if a.status == "failed")

    @property
    def compensated_action_count(self) -> int:
        return sum(1 for a in self.actions if a.status == "compensated")

    @property
    def retried_action_count(self) -> int:
        """Actions that eventually succeeded but needed more than one attempt."""
        return sum(1 for a in self.actions if a.succeeded and a.retried)

    @property
    def fenced_action_count(self) -> int:
        """Actions a deposed leader issued that the platform rejected."""
        return sum(1 for a in self.actions if a.status == "fenced")

    def controller_fault_count(self, kind: str) -> int:
        """Fault records of one controller-fault kind (e.g. ``"controller-crash"``)."""
        return sum(1 for f in self.fault_records if f.kind == kind)

    # -- the SLA verdict ---------------------------------------------------------------

    def violates(self, sla: Optional[SlaPolicy] = None) -> bool:
        sla = sla if sla is not None else SlaPolicy()
        if self.overload_minutes_per_day > sla.max_overload_minutes_per_day:
            return True
        return self.longest_episode > sla.max_episode_minutes

    def summary(self) -> str:
        lines = [
            f"scenario={self.scenario_name} users={self.user_factor:.0%} "
            f"horizon={self.horizon}min",
            f"  overload minutes/day: {self.overload_minutes_per_day:.1f} "
            f"(longest episode {self.longest_episode} min)",
            f"  controller actions: {len(self.actions)} "
            f"(escalations: {self.escalation_count})",
            f"  availability: {self.mean_availability:.2%} mean "
            f"({self.total_down_minutes} service down-minutes, "
            f"MTTR {self.mttr_minutes:.1f} min)",
        ]
        if self.failed_action_count or self.compensated_action_count or (
            self.retried_action_count
        ):
            lines.append(
                f"  action faults: {self.retried_action_count} retried, "
                f"{self.compensated_action_count} compensated, "
                f"{self.failed_action_count} failed"
            )
        if self.controller_down_minutes or self.fenced_action_count:
            lines.append(
                f"  controller faults: {self.controller_down_minutes} "
                f"down-minutes, {self.fenced_action_count} fenced actions"
            )
        if self.pending_approval_count or self.expired_approval_count:
            lines.append(
                f"  approvals: {self.pending_approval_count} pending, "
                f"{self.expired_approval_count} expired unanswered"
            )
            if self.expired_approvals_by_service:
                rendered = ", ".join(
                    f"{name or '(unattributed)'}: {count}"
                    for name, count in sorted(
                        self.expired_approvals_by_service.items()
                    )
                )
                lines.append(f"  expired by service: {rendered}")
        return "\n".join(lines)


class ResultCollector:
    """Observes the platform each minute and builds a SimulationResult.

    It is the one holder of the run's history: subscribed to the
    platform bus before anything publishes, it folds the executed
    actions, the injected faults, the supervision events that count as
    faults and the escalations from the stream.  The producers only
    publish; what they published survives a resume in the run's event
    log, which :meth:`restore_state` folds again, through the same
    :meth:`_fold` — the snapshot holds none of it.
    """

    #: the topics the run's history is folded from
    HISTORY_TOPICS = (TOPIC_ACTIONS, TOPIC_FAULTS, TOPIC_SUPERVISION, TOPIC_ALERTS)

    def __init__(
        self,
        platform: Platform,
        scenario_name: str,
        user_factor: float,
        sla: Optional[SlaPolicy] = None,
        collect_host_series: bool = True,
        collect_services: Optional[Set[str]] = None,
        start_minute: int = 0,
    ) -> None:
        self._platform = platform
        self._scenario_name = scenario_name
        self._user_factor = user_factor
        self._sla = sla if sla is not None else SlaPolicy()
        self._collect_host_series = collect_host_series
        self._collect_services = collect_services or set()
        self._start_minute = start_minute
        self._host_names = sorted(platform.hosts)
        #: the hosts' rows in the landscape state's columns, in name order
        self._host_ids = np.fromiter(
            (platform.landscape_state.host_index.ids[name] for name in self._host_names),
            dtype=np.int64,
            count=len(self._host_names),
        )
        #: host name -> its cpu load per minute, 8 bytes a sample
        self._series: Dict[str, array] = {
            name: array("d") for name in self._host_names
        } if collect_host_series else {}
        self._service_samples: Dict[str, List[Tuple[int, str, str, float]]] = {
            name: [] for name in self._collect_services
        }
        self._overload_minutes: Dict[str, int] = {n: 0 for n in self._host_names}
        self._episodes: List[OverloadEpisode] = []
        self._open_episode_start: Dict[str, Optional[int]] = {
            n: None for n in self._host_names
        }
        self._service_names = sorted(platform.services)
        self._down_minutes: Dict[str, int] = {n: 0 for n in self._service_names}
        self._downtime_episodes: List[DowntimeEpisode] = []
        self._open_down_since: Dict[str, Optional[int]] = {
            n: None for n in self._service_names
        }
        self._host_down_minutes: Dict[str, int] = {n: 0 for n in self._host_names}
        self._ticks = 0
        #: executed actions, injected faults, the fault records of
        #: supervision events and the escalation count, folded live
        self._actions: List[ActionOutcome] = []
        self._faults: List[FaultRecord] = []
        self._supervision_faults: List[FaultRecord] = []
        self._escalation_count = 0
        for topic in self.HISTORY_TOPICS:
            platform.bus.subscribe(topic, self._on_envelope)

    def _on_envelope(self, envelope) -> None:
        self._fold(envelope.topic, record_payload(envelope.record))

    def _fold(self, topic: str, record: Dict[str, Any]) -> None:
        """One event of the run's history, as the log's payload: live
        from the bus, or read back from the log on resume."""
        if topic == TOPIC_ACTIONS:
            self._actions.append(ActionOutcome.from_dict(record))
        elif topic == TOPIC_FAULTS:
            self._faults.append(
                FaultRecord(**{k: v for k, v in record.items() if k != "type"})
            )
        elif topic == TOPIC_SUPERVISION:
            # crashes and partitions arrive as the injector's own fault
            # records; the kind decides what a supervision event adds
            if SupervisionEventKind(record["kind"]).creates_fault_record:
                self._supervision_faults.append(
                    FaultRecord(
                        record["time"], "", "", "", record["kind"], record["domain"]
                    )
                )
        elif record["severity"] == AlertSeverity.ESCALATION.value:
            self._escalation_count += 1

    @property
    def action_count(self) -> int:
        """Actions executed so far, those before a resumed snapshot too."""
        return len(self._actions)

    def track_service(self, name: str) -> None:
        """Start availability accounting for a service adopted mid-run.

        Multi-process federation: a cross-domain escrow can hand this
        domain an instance of a service the platform was not built with;
        without registration its down-minutes would silently go
        unaccounted.  Minutes before adoption count as up — the service
        was running (in its home domain) the whole time.
        """
        if name not in self._down_minutes:
            self._service_names = sorted(self._service_names + [name])
            self._down_minutes[name] = 0
            self._open_down_since[name] = None

    def observe(self, now: int) -> None:
        """One minute's SLA accounting, read off the landscape state's
        columns (current: every write re-summed them) — a host's ``up``,
        ``cpu_load`` and running-instance count, a service's running
        count."""
        self._ticks += 1
        state = self._platform.landscape_state
        ids = self._host_ids
        overload_level = self._sla.overload_level
        for name, up, load, running in zip(
            self._host_names,
            state.host_up[ids].tolist(),
            state.host_cpu_values(ids).tolist(),
            state.host_running_instances[ids].tolist(),
        ):
            if not up:
                self._host_down_minutes[name] += 1
            if self._collect_host_series:
                self._series[name].append(load)
            degraded = load > overload_level and running > 0
            if degraded:
                self._overload_minutes[name] += 1
                if self._open_episode_start[name] is None:
                    self._open_episode_start[name] = now
            elif self._open_episode_start[name] is not None:
                start = self._open_episode_start[name]
                self._episodes.append(OverloadEpisode(name, start, now - 1))
                self._open_episode_start[name] = None
        service_ids = state.service_index.ids
        service_running = state.service_running.tolist()
        for name in self._service_names:
            down = not service_running[service_ids[name]]
            if down:
                self._down_minutes[name] += 1
                if self._open_down_since[name] is None:
                    self._open_down_since[name] = now
            elif self._open_down_since[name] is not None:
                start = self._open_down_since[name]
                self._downtime_episodes.append(DowntimeEpisode(name, start, now - 1))
                self._open_down_since[name] = None
        for service_name in self._collect_services:
            for instance in self._platform.service(service_name).running_instances:
                self._service_samples[service_name].append(
                    (
                        now,
                        instance.instance_id,
                        instance.host_name,
                        self._platform.hosts[instance.host_name].cpu_load,
                    )
                )

    def finalize(
        self,
        final_minute: int,
        controller_down_minutes: int = 0,
        expired_approval_count: int = 0,
        pending_approval_count: int = 0,
        expired_approvals_by_service: Optional[Dict[str, int]] = None,
    ) -> SimulationResult:
        for name, start in self._open_episode_start.items():
            if start is not None:
                self._episodes.append(OverloadEpisode(name, start, final_minute))
        for name, start in self._open_down_since.items():
            if start is not None:
                self._downtime_episodes.append(
                    DowntimeEpisode(name, start, final_minute)
                )
                self._open_down_since[name] = None
        downtime_episodes = sorted(
            self._downtime_episodes, key=lambda e: (e.start, e.service_name)
        )
        availability = {
            name: ServiceAvailability(
                service_name=name,
                observed_minutes=self._ticks,
                down_minutes=self._down_minutes[name],
                episode_count=sum(
                    1 for e in downtime_episodes if e.service_name == name
                ),
            )
            for name in self._service_names
        }
        # the injector's records first, then the supervision events,
        # ordered by minute (a stable sort keeps each minute's order)
        fault_records = sorted(
            self._faults + self._supervision_faults, key=lambda record: record.time
        )
        return SimulationResult(
            scenario_name=self._scenario_name,
            user_factor=self._user_factor,
            horizon=self._ticks,
            host_names=self._host_names,
            start_minute=self._start_minute,
            host_series={
                name: np.array(values) for name, values in self._series.items()
            },
            service_samples=self._service_samples,
            overload_minutes_by_host=dict(self._overload_minutes),
            episodes=sorted(self._episodes, key=lambda e: (e.start, e.host_name)),
            actions=list(self._actions),
            escalation_count=self._escalation_count,
            final_instance_counts={
                name: len(self._platform.service(name).running_instances)
                for name in self._platform.services
            },
            availability=availability,
            downtime_episodes=downtime_episodes,
            host_down_minutes=dict(self._host_down_minutes),
            fault_records=fault_records,
            controller_down_minutes=controller_down_minutes,
            expired_approval_count=expired_approval_count,
            pending_approval_count=pending_approval_count,
            expired_approvals_by_service=dict(expired_approvals_by_service or {}),
        )

    # -- durability (kill -9 and resume) -----------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able collector state for a full-run snapshot."""
        return {
            "series": {name: list(values) for name, values in self._series.items()},
            "service_samples": {
                name: [list(sample) for sample in samples]
                for name, samples in self._service_samples.items()
            },
            "overload_minutes": dict(self._overload_minutes),
            "episodes": [[e.host_name, e.start, e.end] for e in self._episodes],
            "open_episode_start": dict(self._open_episode_start),
            "down_minutes": dict(self._down_minutes),
            "downtime_episodes": [
                [e.service_name, e.start, e.end] for e in self._downtime_episodes
            ],
            "open_down_since": dict(self._open_down_since),
            "host_down_minutes": dict(self._host_down_minutes),
            "ticks": self._ticks,
        }

    def restore_state(
        self, payload: Dict[str, object], history: Iterable[Any]
    ) -> None:
        """Back to a snapshot: its payload, and ``history``, the run's
        logged events of :attr:`HISTORY_TOPICS` up to the snapshot."""
        series = payload.get("series", {})
        if self._collect_host_series and not series:
            raise ValueError(
                "cannot resume with host-series collection: the killed run "
                "did not collect host series (it was started without "
                "--export); rerun both with the same collection settings"
            )
        self._series = {
            name: array("d", values)
            for name, values in series.items()  # type: ignore[union-attr]
        }
        if not self._collect_host_series:
            # the killed run collected, this one does not: drop the series
            self._series = {}
        self._service_samples = {
            name: [
                (int(t), str(i), str(h), float(load))
                for t, i, h, load in samples
            ]
            for name, samples in payload.get("service_samples", {}).items()  # type: ignore[union-attr]
        }
        self._overload_minutes = {
            name: int(v)
            for name, v in payload.get("overload_minutes", {}).items()  # type: ignore[union-attr]
        }
        self._episodes = [
            OverloadEpisode(str(h), int(s), int(e))
            for h, s, e in payload.get("episodes", [])  # type: ignore[union-attr]
        ]
        self._open_episode_start = {
            name: (None if start is None else int(start))
            for name, start in payload.get("open_episode_start", {}).items()  # type: ignore[union-attr]
        }
        self._down_minutes = {
            name: int(v)
            for name, v in payload.get("down_minutes", {}).items()  # type: ignore[union-attr]
        }
        # the snapshot's keys are authoritative: they include services
        # adopted (cross-domain escrow) after this collector was built
        self._service_names = sorted(self._down_minutes)
        self._downtime_episodes = [
            DowntimeEpisode(str(n), int(s), int(e))
            for n, s, e in payload.get("downtime_episodes", [])  # type: ignore[union-attr]
        ]
        self._open_down_since = {
            name: (None if start is None else int(start))
            for name, start in payload.get("open_down_since", {}).items()  # type: ignore[union-attr]
        }
        self._host_down_minutes = {
            name: int(v)
            for name, v in payload.get("host_down_minutes", {}).items()  # type: ignore[union-attr]
        }
        self._ticks = int(payload.get("ticks", 0))  # type: ignore[arg-type]
        # the history up to the snapshot; the subscriptions go on from there
        for event in history:
            self._fold(event.topic, event.record)
