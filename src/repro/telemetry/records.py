"""Typed telemetry records and their topics.

One union (:data:`TelemetryRecord`) covers everything the run's history
used to be fragmented across: action outcomes from the platform audit
log, injected :class:`FaultRecord` entries, controller supervision
events, the LMS's situation open/confirm/cancel transitions, alerts and
the per-tick load-report batches the archive consumes.

This module is the *home* of two types that used to live deeper in the
stack and are re-exported from their old locations for compatibility:

* :class:`SituationKind` (formerly :mod:`repro.monitoring.lms`),
* :class:`FaultRecord` (formerly :mod:`repro.sim.faults`).

It imports nothing from the rest of :mod:`repro` at runtime, so every
layer can depend on it without cycles; the action outcome carried by
:class:`ActionEvent` is therefore typed loosely (it is a
:class:`repro.serviceglobe.actions.ActionOutcome` in practice).

A :class:`LoadReportBatch` is a column, not a list of rows: one tick's
samples as a shared ``(subject, metric)`` layout plus a float64 array.
The codecs (:func:`record_to_dict`, :func:`record_payload`) spell it out
as the ``(subject, metric, time, value)`` rows it has always been
encoded as, so the event log's and the wire's bytes do not depend on
how a batch is held in memory.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = [
    "SituationKind",
    "FaultRecord",
    "SupervisionEventKind",
    "SupervisionEvent",
    "ActionEvent",
    "EscrowPhase",
    "EscrowEvent",
    "SituationPhase",
    "SituationEvent",
    "AlertEvent",
    "ApprovalPhase",
    "ApprovalEvent",
    "LoadReportBatch",
    "TelemetryRecord",
    "TOPIC_ACTIONS",
    "TOPIC_FAULTS",
    "TOPIC_SUPERVISION",
    "TOPIC_SITUATIONS",
    "TOPIC_ALERTS",
    "TOPIC_APPROVALS",
    "TOPIC_REPORTS",
    "TOPIC_ESCROW",
    "TOPICS",
    "topic_of",
    "record_to_dict",
    "record_payload",
]


class SituationKind(enum.Enum):
    """The controller's four trigger types (Section 4.1)."""

    SERVICE_OVERLOADED = "serviceOverloaded"
    SERVICE_IDLE = "serviceIdle"
    SERVER_OVERLOADED = "serverOverloaded"
    SERVER_IDLE = "serverIdle"
    #: A crashed service instance (self-healing path); reported directly
    #: by failure detectors, never via watch-time observations.
    SERVICE_FAILED = "serviceFailed"

    @property
    def is_overload(self) -> bool:
        return self in (self.SERVICE_OVERLOADED, self.SERVER_OVERLOADED)

    @property
    def is_server(self) -> bool:
        return self in (self.SERVER_OVERLOADED, self.SERVER_IDLE)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault (or recovery event).

    ``kind`` is one of ``"crash"``, ``"hang"`` (instance-level;
    ``instance_id``/``service_name`` identify the victim),
    ``"host-crash"``, ``"host-recovery"`` and ``"monitor-outage"``
    (host-level; ``instance_id`` and ``service_name`` are empty), or a
    controller-level fault: ``"controller-crash"`` and
    ``"leader-partition"`` (every field but ``time``/``kind`` empty).
    """

    time: int
    instance_id: str
    service_name: str
    host_name: str
    kind: str
    #: control domain the fault hit; empty in single-domain deployments
    domain: str = ""


class SupervisionEventKind(enum.Enum):
    """Every event kind the controller supervisor can emit.

    Constructing the enum from an unknown string raises ``ValueError``,
    so a new supervisor event kind can never be silently dropped by
    downstream accounting — it either gets a member here (and an
    explicit :attr:`creates_fault_record` verdict) or the run fails
    loudly.
    """

    CONTROLLER_CRASH = "controller-crash"
    LEADER_PARTITION = "leader-partition"
    CONTROLLER_RECOVERY = "controller-recovery"
    LEADER_FAILOVER = "leader-failover"
    PARTITION_HEALED = "partition-healed"
    #: a leader acquired the lease under a new fencing token; the event
    #: carries the token, so stream consumers (the AG301 checker) learn
    #: of the new epoch *before* the first action applied under it
    LEADER_EPOCH = "leader-epoch"
    #: a multi-process agent lost its federation server (wire partition
    #: or server death) and continues administering its own domain
    #: autonomously — local actions keep flowing, cross-domain escrow
    #: refuses cleanly until the link heals
    NET_DEGRADED = "net-degraded"
    #: the partitioned agent's link healed and the session resumed
    #: (possibly under a fresh fencing token, announced separately by a
    #: LEADER_EPOCH event)
    NET_RESYNCED = "net-resynced"

    @property
    def creates_fault_record(self) -> bool:
        """Whether the run's fault-record merge adds a record for this kind.

        Crashes and partitions are already recorded by the fault
        injector itself; only the supervisor-side outcomes (recovery,
        failover, heal) are new information.  Wire-level degradation is
        connectivity state, not a landscape fault: the domain keeps
        running, so no fault record is due.
        """
        return self in (
            self.CONTROLLER_RECOVERY,
            self.LEADER_FAILOVER,
            self.PARTITION_HEALED,
        )


@dataclass(frozen=True)
class SupervisionEvent:
    """One controller-supervision event (crash, partition, recovery...)."""

    time: int
    kind: SupervisionEventKind
    #: the replica involved (e.g. ``"controller-1"``), or ``"old->new"``
    #: for failovers
    detail: str
    #: control domain whose controller is supervised; empty when single-domain
    domain: str = ""
    #: the new leadership epoch's fencing token (LEADER_EPOCH only)
    fencing_token: Optional[int] = None


@dataclass(frozen=True)
class ActionEvent:
    """One management-action outcome (ok, failed, compensated or fenced)."""

    time: int
    #: a :class:`repro.serviceglobe.actions.ActionOutcome`
    outcome: Any
    #: control domain that issued the action; empty when single-domain
    domain: str = ""
    #: fencing token the issuing executor held; ``None`` for unfenced
    #: paths (manual platform calls, pre-supervision deployments)
    fencing_token: Optional[int] = None


class EscrowPhase(enum.Enum):
    """Lifecycle of one cross-domain escrowed relocation.

    ``PREPARE`` happens in the source domain (token validation plus
    capacity check at the target), ``COMMIT`` is the barrier between
    detach and attach, ``ATTACH`` is the instance landing in the target
    domain, and ``ABORT`` replaces COMMIT/ATTACH when the transfer is
    fenced or fails capacity checks.
    """

    PREPARE = "prepare"
    COMMIT = "commit"
    ATTACH = "attach"
    ABORT = "abort"


@dataclass(frozen=True)
class EscrowEvent:
    """One phase transition of a cross-domain escrowed relocation.

    ``escrow_id`` ties the phases of one transfer together; the verifier
    builds its happens-before edges from this chain, so the id must be
    unique per transfer across the whole run (the federated plane keeps
    a durable counter).
    """

    time: int
    phase: EscrowPhase
    escrow_id: str
    service_name: str
    instance_id: str
    source_domain: str
    target_domain: str
    source_host: str = ""
    target_host: str = ""
    fencing_token: Optional[int] = None
    note: str = ""


class SituationPhase(enum.Enum):
    """Lifecycle of a watch-time observation at the LMS."""

    OPENED = "opened"
    CONFIRMED = "confirmed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class SituationEvent:
    """One situation transition at the load monitoring system."""

    time: int
    phase: SituationPhase
    kind: SituationKind
    subject: str
    service_name: Optional[str]
    #: the confirming watch-time mean; only set for CONFIRMED
    observed_mean: Optional[float] = None
    #: control domain whose LMS saw the situation; empty when single-domain
    domain: str = ""


@dataclass(frozen=True)
class AlertEvent:
    """One administrative alert.

    ``severity`` is the :class:`repro.core.alerts.AlertSeverity` value
    string (``"info"``/``"warning"``/``"escalation"``) — kept as a plain
    string so this module stays import-free.
    """

    time: int
    severity: str
    message: str

    def __str__(self) -> str:
        return f"[t={self.time} {self.severity}] {self.message}"


class ApprovalPhase(enum.Enum):
    """Lifecycle of one semi-automatic confirmation request.

    ``REQUESTED`` when the controller asks the administrator,
    ``APPROVED``/``REJECTED`` when a verdict arrives (over the live ops
    API or an attached callback), ``EXPIRED`` when the TTL ran out
    unanswered.  ``EXECUTED`` marks the deferred action actually being
    applied after a late approval — the phase the AG303 audit ties to.
    """

    REQUESTED = "requested"
    APPROVED = "approved"
    REJECTED = "rejected"
    EXPIRED = "expired"
    EXECUTED = "executed"


@dataclass(frozen=True)
class ApprovalEvent:
    """One phase transition of a semi-automatic approval request.

    ``request_id`` ties the phases of one request together across the
    stream; ``service_name`` is the service the proposed action touches
    (empty for server-level proposals), so per-service expiry accounting
    does not have to re-parse descriptions.
    """

    time: int
    phase: ApprovalPhase
    request_id: str
    description: str
    service_name: str = ""
    #: control domain whose controller asked; empty when single-domain
    domain: str = ""


@dataclass(frozen=True, eq=False)
class LoadReportBatch:
    """One tick's load samples: a series layout and a float64 column.

    ``series`` lists each sampled ``(subject, metric)`` once, in sampling
    order (hosts' cpu, hosts' mem, services, instances); the batches of
    one monitor set with the same blind hosts share one tuple.  The load
    archive refuses a batch that names a series twice.
    ``values`` holds the samples in that order as a float64 array, made
    read-only here, so a sample costs 8 bytes wherever a batch is kept
    (the bus's ring, the archive's columns).  Batches compare by
    identity.  On every wire and in every file a batch is its
    :meth:`rows`.
    """

    time: int
    series: Tuple[Tuple[str, str], ...]
    values: "npt.NDArray[np.float64]"
    #: control domain the reports were sampled in; empty when single-domain
    domain: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.series),):
            raise ValueError(
                f"load report batch at {self.time}: {values.shape} values "
                f"for {len(self.series)} series"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def rows(self) -> Tuple[Tuple[str, str, int, float], ...]:
        """``(subject, metric, time, value)`` per sample, of built-in
        types: the batch's encoding in the event log, the JSONL export
        and the ops API's frames."""
        time = self.time
        return tuple([
            (subject, metric, time, value)
            for (subject, metric), value in zip(self.series, self.values.tolist())
        ])


TelemetryRecord = Union[
    ActionEvent,
    EscrowEvent,
    FaultRecord,
    SupervisionEvent,
    SituationEvent,
    AlertEvent,
    ApprovalEvent,
    LoadReportBatch,
]

TOPIC_ACTIONS = "actions"
TOPIC_FAULTS = "faults"
TOPIC_SUPERVISION = "supervision"
TOPIC_SITUATIONS = "situations"
TOPIC_ALERTS = "alerts"
TOPIC_APPROVALS = "approvals"
TOPIC_REPORTS = "reports"
TOPIC_ESCROW = "escrow"

TOPICS = (
    TOPIC_ACTIONS,
    TOPIC_FAULTS,
    TOPIC_SUPERVISION,
    TOPIC_SITUATIONS,
    TOPIC_ALERTS,
    TOPIC_APPROVALS,
    TOPIC_REPORTS,
    TOPIC_ESCROW,
)

_TOPIC_BY_TYPE = {
    ActionEvent: TOPIC_ACTIONS,
    EscrowEvent: TOPIC_ESCROW,
    FaultRecord: TOPIC_FAULTS,
    SupervisionEvent: TOPIC_SUPERVISION,
    SituationEvent: TOPIC_SITUATIONS,
    AlertEvent: TOPIC_ALERTS,
    ApprovalEvent: TOPIC_APPROVALS,
    LoadReportBatch: TOPIC_REPORTS,
}


def topic_of(record: TelemetryRecord) -> str:
    """The topic a record publishes on; ``TypeError`` for foreign types."""
    try:
        return _TOPIC_BY_TYPE[type(record)]
    except KeyError:
        raise TypeError(
            f"not a telemetry record: {type(record).__name__}"
        ) from None


def record_to_dict(record: TelemetryRecord) -> Dict[str, Any]:
    """JSON-able dict of one record (for the JSONL export).

    Enums flatten to their value strings; an action event is its
    outcome's one codec (``ActionOutcome.to_dict``, which
    ``ActionOutcome.from_dict`` reads back exactly) plus its domain and
    fencing token.
    """
    payload: Dict[str, Any] = {"type": type(record).__name__}
    if isinstance(record, ActionEvent):
        payload.update(record.outcome.to_dict())
        payload.update(domain=record.domain, fencing_token=record.fencing_token)
        return payload
    if isinstance(record, LoadReportBatch):
        payload.update(
            time=record.time,
            rows=[list(row) for row in record.rows()],
            domain=record.domain,
        )
        return payload
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        payload[field.name] = value
    return payload


#: record class -> its dataclass field names, resolved once per type
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def record_payload(record: TelemetryRecord) -> Dict[str, Any]:
    """:func:`record_to_dict` for encoders: no copies, same JSON out.

    ``json.dumps`` of the result equals that of :func:`record_to_dict`'s:
    the field list is cached per record class instead of re-resolved per
    event, and a load report batch's rows stay tuples, which the encoder
    writes as arrays anyway (and pickle as the tuples they always were).
    The dict is for the store's and the ops API's hot paths, which encode
    it and drop it; consumers that keep JSON shape in memory use
    :func:`record_to_dict`.  Action events keep that path — their
    outcome has a codec of its own, and they are rare.
    """
    if isinstance(record, ActionEvent):
        return record_to_dict(record)
    if isinstance(record, LoadReportBatch):
        return {
            "type": "LoadReportBatch",
            "time": record.time,
            "rows": record.rows(),
            "domain": record.domain,
        }
    cls = type(record)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(record))
        _FIELD_NAMES[cls] = names
    payload: Dict[str, Any] = {"type": cls.__name__}
    for name in names:
        value = getattr(record, name)
        if isinstance(value, enum.Enum):
            value = value.value
        payload[name] = value
    return payload
