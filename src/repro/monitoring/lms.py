"""The load monitoring system (LMS).

"In real systems short load peaks are quite common.  Immediate reaction
on these peaks could lead to an unsettled and instable system.  Thus, if
load values exceed a tunable threshold, the advisor passes the load data
to the load monitoring system module for further observation.  Then, the
load data is observed for a tunable period of time (watchTime).  If the
average load during the watch time is above a given threshold, a real
overload situation is detected and the fuzzy controller module is
triggered."  (Section 2)

Idle situations are handled symmetrically (average below the idle
threshold for the idle watch time confirms the situation).

The load data of a watch window is read from the controller's load
archive ("This data is used to calculate the average load of services
during their watchTime", Section 2), the only store of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.monitoring.archive import LoadArchive

# SituationKind historically lived here; it is now defined in
# repro.telemetry.records and re-exported below as a thin alias so
# existing imports keep working.
from repro.telemetry.records import (
    SituationEvent,
    SituationKind,
    SituationPhase,
)
from repro.telemetry.windows import sum_reversed

__all__ = ["SituationKind", "Situation", "Observation", "LoadMonitoringSystem"]


@dataclass(frozen=True)
class Situation:
    """A confirmed exceptional situation handed to the fuzzy controller."""

    kind: SituationKind
    subject: str  # host name (server triggers) or instance id (service triggers)
    service_name: Optional[str]  # set for service triggers
    detected_at: int
    observed_mean: float

    def __str__(self) -> str:
        target = self.subject if self.service_name is None else (
            f"{self.service_name} ({self.subject})"
        )
        return (
            f"{self.kind.value} on {target} at t={self.detected_at} "
            f"(mean load {self.observed_mean:.0%})"
        )


@dataclass
class Observation:
    """An ongoing watch of a suspected situation.

    ``min_coverage`` guards against monitoring degradation: when load
    reports are dropped, the watch window has gaps.  A situation is only
    confirmed when at least this fraction of the window's minutes have
    real samples — a mean over two surviving points is not the paper's
    "average load during the watch time", and acting on it would treat
    missing data as evidence.
    """

    kind: SituationKind
    subject: str  # host name (server triggers) or instance id (service triggers)
    metric: str  # the archive series the watch window is read from
    service_name: Optional[str]
    threshold: float
    started_at: int
    watch_time: int
    min_coverage: float = 0.5

    def due(self, now: int) -> bool:
        return now >= self.started_at + self.watch_time - 1

    def confirmed(self, archive: LoadArchive, now: int) -> Optional[float]:
        """The observed mean if the situation is real, else ``None``.

        The window ``[started_at, now]`` is read from ``archive`` and
        summed newest first, the order the seeded digests pin; not with
        ``archive.average``, which sums oldest first.
        """
        samples = archive.history(
            self.subject, self.metric, self.started_at, now
        )
        count = len(samples)
        if count / max(now - self.started_at + 1, 1) < self.min_coverage:
            return None  # too many reports lost to judge the situation
        if not count:
            return None
        mean = sum_reversed([value for __, value in samples], 0, count) / count
        if self.kind.is_overload:
            return mean if mean > self.threshold else None
        return mean if mean < self.threshold else None


class LoadMonitoringSystem:
    """Collects observations from the controller's threshold pass (the
    paper's advisors) and confirms real situations."""

    def __init__(self) -> None:
        self._observations: Dict[Tuple[str, SituationKind], Observation] = {}
        #: subject -> kinds currently observed for it, maintained on every
        #: open/cancel/confirm so :meth:`cancel_subject` is O(kinds of that
        #: subject) instead of a scan over every open observation (the
        #: controller calls it for each down host each tick); the inner
        #: dict doubles as an ordered set, preserving insertion order
        self._by_subject: Dict[str, Dict[SituationKind, None]] = {}
        #: optional :class:`~repro.core.state.StateJournal`: watch-time
        #: progress is journalled (open/close) so a recovered controller
        #: resumes observations instead of restarting their watch windows
        self.journal = None
        #: optional :class:`~repro.telemetry.bus.EventBus`: situation
        #: open/confirm/cancel transitions publish on the ``situations``
        #: topic when set
        self.bus = None
        #: control domain this LMS belongs to, stamped into published
        #: situation events; empty in single-domain deployments
        self.domain = ""
        #: the :class:`~repro.monitoring.archive.LoadArchive` watch windows
        #: are read from: the controller's, which its report batch reaches
        #: each tick before the LMS confirms anything
        self.archive: Optional[LoadArchive] = None

    def _index_add(self, key: Tuple[str, SituationKind]) -> None:
        self._by_subject.setdefault(key[0], {})[key[1]] = None

    def _index_discard(self, key: Tuple[str, SituationKind]) -> None:
        kinds = self._by_subject.get(key[0])
        if kinds is not None:
            kinds.pop(key[1], None)
            if not kinds:
                del self._by_subject[key[0]]

    def _journal_close(self, key: Tuple[str, SituationKind]) -> None:
        if self.journal is not None:
            self.journal.append(
                "observation-close", subject=key[0], kind=key[1].value
            )

    def _publish(
        self,
        time: Optional[int],
        phase: SituationPhase,
        observation: Observation,
        observed_mean: Optional[float] = None,
    ) -> None:
        if self.bus is None:
            return
        self.bus.publish(
            SituationEvent(
                time=observation.started_at if time is None else time,
                phase=phase,
                kind=observation.kind,
                subject=observation.subject,
                service_name=observation.service_name,
                observed_mean=observed_mean,
                domain=self.domain,
            )
        )

    def open_observation(
        self,
        kind: SituationKind,
        subject: str,
        metric: str,
        threshold: float,
        now: int,
        watch_time: int,
        service_name: Optional[str] = None,
    ) -> bool:
        """Begin watching a suspected situation of ``subject``'s ``metric``
        series; no-op if already watched."""
        key = (subject, kind)
        if key in self._observations:
            return False
        observation = Observation(
            kind=kind,
            subject=subject,
            metric=metric,
            service_name=service_name,
            threshold=threshold,
            started_at=now,
            watch_time=watch_time,
        )
        self._observations[key] = observation
        self._index_add(key)
        if self.journal is not None:
            self.journal.append(
                "observation-open", **self._describe(observation)
            )
        self._publish(now, SituationPhase.OPENED, observation)
        return True

    def cancel_subject(self, subject: str, now: Optional[int] = None) -> int:
        """Drop every observation of one subject (e.g. its host crashed).

        Served from the per-subject index, so the cost scales with the
        subject's own open observations (at most one per situation kind),
        not with every observation in the system.  Returns the number of
        cancelled observations.
        """
        kinds = self._by_subject.pop(subject, None)
        if not kinds:
            return 0
        for kind in kinds:
            key = (subject, kind)
            observation = self._observations.pop(key)
            self._journal_close(key)
            self._publish(now, SituationPhase.CANCELLED, observation)
        return len(kinds)

    def tick(self, now: int) -> List[Situation]:
        """Evaluate due observations; return newly confirmed situations."""
        new_situations: List[Situation] = []
        for key in list(self._observations):
            observation = self._observations[key]
            if not observation.due(now):
                continue
            del self._observations[key]
            self._index_discard(key)
            self._journal_close(key)
            mean = observation.confirmed(self.archive, now)
            if mean is None:
                # a short peak, not a real situation
                self._publish(now, SituationPhase.CANCELLED, observation)
                continue
            self._publish(now, SituationPhase.CONFIRMED, observation, mean)
            situation = Situation(
                kind=observation.kind,
                subject=observation.subject,
                service_name=observation.service_name,
                detected_at=now,
                observed_mean=mean,
            )
            new_situations.append(situation)
        return new_situations

    # -- durability -------------------------------------------------------------

    @staticmethod
    def _describe(observation: Observation) -> Dict[str, object]:
        """JSON-able descriptor of one in-progress observation."""
        return {
            "subject": observation.subject,
            "kind": observation.kind.value,
            "service_name": observation.service_name,
            "threshold": observation.threshold,
            "started_at": observation.started_at,
            "watch_time": observation.watch_time,
            "min_coverage": observation.min_coverage,
        }

    def snapshot_state(self) -> List[Dict[str, object]]:
        """Descriptors of every in-progress observation."""
        return [self._describe(o) for o in self._observations.values()]

    def restore_observation(self, descriptor: Dict[str, object]) -> bool:
        """Revive one observation of a subject's cpu series.

        The archive still holds the watch window's samples recorded
        before the crash (a resume rewinds it with the journal), so the
        observation resumes mid-watch instead of starting over.
        Idempotent: an observation already watched (same subject and
        kind) is left untouched.
        """
        kind = SituationKind(str(descriptor["kind"]))
        subject = str(descriptor["subject"])
        key = (subject, kind)
        if key in self._observations:
            return False
        self._index_add(key)
        self._observations[key] = Observation(
            kind=kind,
            subject=subject,
            metric="cpu",
            service_name=descriptor.get("service_name"),  # type: ignore[arg-type]
            threshold=float(descriptor["threshold"]),  # type: ignore[arg-type]
            started_at=int(descriptor["started_at"]),  # type: ignore[arg-type]
            watch_time=int(descriptor["watch_time"]),  # type: ignore[arg-type]
            min_coverage=float(descriptor.get("min_coverage", 0.5)),  # type: ignore[arg-type]
        )
        return True
