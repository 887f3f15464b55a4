"""Administrator alerting and the semi-automatic confirmation channel.

"In the automatic mode, the actions are logged and then executed.  In
semi-automatic mode, the human administrator is contacted to confirm the
action before execution.  If there are no possible hosts and actions
with a sufficient applicability, the controller requests human
interaction by alerting the system administrator."  (Section 4.3)
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.telemetry.records import AlertEvent, ApprovalEvent, ApprovalPhase

__all__ = [
    "AlertSeverity",
    "ApprovalRequest",
    "ApprovalQueue",
    "ApprovalCommand",
    "CommandQueue",
    "AlertChannel",
]


class AlertSeverity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    ESCALATION = "escalation"


#: Asked in semi-automatic mode; returns True to approve the action.
ConfirmationCallback = Callable[[str], bool]


@dataclass
class ApprovalRequest:
    """One semi-automatic confirmation request and its lifecycle.

    ``status`` is ``"pending"`` (awaiting the administrator),
    ``"approved"``, ``"declined"`` or ``"expired"`` (the TTL ran out
    before anyone answered — surfaced so unattended semi-automatic
    controllers do not silently drop decisions).

    ``action`` is the deferred action's JSON-able payload (action kind,
    service, instance, target host, applicability) when the request was
    raised by the decision loop; a late approval replays it through the
    fenced executor.  ``executed`` flips once that deferred execution
    has been journalled as an action intent — a recovered controller
    must never apply the same approval twice.
    """

    request_id: str
    time: int
    description: str
    status: str = "pending"
    answered_at: Optional[int] = None
    service_name: str = ""
    action: Optional[Dict[str, Any]] = None
    executed: bool = False

    @property
    def pending(self) -> bool:
        return self.status == "pending"

    def __str__(self) -> str:
        return f"[{self.request_id} {self.status}] {self.description}"


@dataclass(frozen=True)
class ApprovalCommand:
    """One administrator verdict posted from outside the sim thread."""

    request_id: str
    approve: bool


class CommandQueue:
    """Thread-safe mailbox for operator commands into the control loop.

    The ops API's HTTP threads only ever :meth:`post`; the simulation
    thread drains the queue at tick boundaries.  This is the *only*
    write path from the operations plane into the controller, which is
    what keeps a ``--serve`` run byte-identical when nobody posts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Deque[ApprovalCommand] = deque()

    def post(self, command: ApprovalCommand) -> None:
        with self._lock:
            self._pending.append(command)

    def drain(self) -> List[ApprovalCommand]:
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
        return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


class ApprovalQueue:
    """Tracks semi-automatic approval requests with a time-to-live.

    Requests are journalled (when a journal is attached) so a recovered
    controller still knows what was asked and what was never answered;
    the TTL expires stale questions so a revived controller does not act
    on confirmations requested before a crash.
    """

    def __init__(self, ttl: int = 240) -> None:
        if ttl < 1:
            raise ValueError("approval ttl must be at least one minute")
        self.ttl = ttl
        self._requests: Dict[str, ApprovalRequest] = {}
        self._sequence = 0
        #: optional :class:`~repro.core.state.StateJournal`
        self.journal = None
        #: optional :class:`~repro.telemetry.bus.EventBus`: lifecycle
        #: transitions publish :class:`ApprovalEvent` records when set
        self.bus = None
        #: control domain of the owning controller (prefixes request ids
        #: so federated domains never collide); empty when single-domain
        self.domain = ""

    def _publish(
        self, now: int, phase: ApprovalPhase, request: ApprovalRequest
    ) -> None:
        if self.bus is not None:
            self.bus.publish(
                ApprovalEvent(
                    time=now,
                    phase=phase,
                    request_id=request.request_id,
                    description=request.description,
                    service_name=request.service_name,
                    domain=self.domain,
                )
            )

    def submit(
        self,
        now: int,
        description: str,
        service_name: str = "",
        action: Optional[Dict[str, Any]] = None,
    ) -> ApprovalRequest:
        self._sequence += 1
        prefix = f"{self.domain}-apr" if self.domain else "apr"
        request_id = f"{prefix}-{self._sequence:06d}"
        request = ApprovalRequest(
            request_id, now, description, service_name=service_name, action=action
        )
        self._requests[request_id] = request
        if self.journal is not None:
            self.journal.append(
                "approval-request",
                request_id=request_id,
                time=now,
                description=description,
                service_name=service_name,
                action=action,
            )
        self._publish(now, ApprovalPhase.REQUESTED, request)
        return request

    def get(self, request_id: str) -> Optional[ApprovalRequest]:
        return self._requests.get(request_id)

    def answer(self, request_id: str, approved: bool, now: int) -> bool:
        """Record the administrator's verdict; False if not answerable."""
        request = self._requests.get(request_id)
        if request is None or not request.pending:
            return False
        request.status = "approved" if approved else "declined"
        request.answered_at = now
        if self.journal is not None:
            self.journal.append(
                "approval-answer",
                request_id=request_id,
                approved=approved,
                time=now,
            )
        self._publish(
            now,
            ApprovalPhase.APPROVED if approved else ApprovalPhase.REJECTED,
            request,
        )
        return True

    def mark_executed(self, request_id: str, now: int) -> None:
        """Flag an approved request's deferred action as applied.

        The durable record of execution is the executor's action-intent
        entry (which carries the approval id); this flag only mirrors it
        in memory and on the telemetry stream.
        """
        request = self._requests.get(request_id)
        if request is None or request.executed:
            return
        request.executed = True
        self._publish(now, ApprovalPhase.EXECUTED, request)

    def expire(self, now: int) -> List[ApprovalRequest]:
        """Expire pending requests older than the TTL; returns them."""
        expired: List[ApprovalRequest] = []
        for request in self._requests.values():
            if request.pending and now - request.time >= self.ttl:
                request.status = "expired"
                request.answered_at = now
                expired.append(request)
                if self.journal is not None:
                    self.journal.append(
                        "approval-expired",
                        request_id=request.request_id,
                        time=now,
                    )
                self._publish(now, ApprovalPhase.EXPIRED, request)
        return expired

    @property
    def requests(self) -> List[ApprovalRequest]:
        return list(self._requests.values())

    # -- durability -------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "approvals": [
                {
                    "request_id": r.request_id,
                    "time": r.time,
                    "description": r.description,
                    "status": r.status,
                    "answered_at": r.answered_at,
                    "service_name": r.service_name,
                    "action": r.action,
                    "executed": r.executed,
                }
                for r in self._requests.values()
            ],
            "approval_sequence": self._sequence,
        }

    def restore_state(
        self, approvals: List[Dict[str, object]], sequence: int
    ) -> None:
        """Upsert recovered requests by id (idempotent, never publishes)."""
        for raw in approvals:
            request_id = str(raw["request_id"])
            existing = self._requests.get(request_id)
            if existing is not None and not existing.pending:
                # an answered verdict is never overwritten, but the
                # executed flag may only be learned from the journal
                if raw.get("executed"):
                    existing.executed = True
                continue
            self._requests[request_id] = ApprovalRequest(
                request_id=request_id,
                time=int(raw["time"]),  # type: ignore[arg-type]
                description=str(raw.get("description", "")),
                status=str(raw.get("status", "pending")),
                answered_at=raw.get("answered_at"),  # type: ignore[arg-type]
                service_name=str(raw.get("service_name", "")),
                action=raw.get("action"),  # type: ignore[arg-type]
                executed=bool(raw.get("executed", False)),
            )
        self._sequence = max(self._sequence, int(sequence))


class AlertChannel:
    """Publishes administrative messages and brokers confirmations.

    Parameters
    ----------
    bus:
        The :class:`~repro.telemetry.bus.EventBus` every alert is
        published on (the ``alerts`` topic); the channel keeps no copy —
        the run's consumers (result collector, ops bridge, event store)
        subscribe.
    confirm:
        Callback consulted in semi-automatic mode before executing an
        action.  When no callback is installed, confirmation requests are
        denied and escalated — an unattended semi-automatic controller
        must not act on its own.
    """

    def __init__(
        self,
        bus,
        confirm: Optional[ConfirmationCallback] = None,
        approval_ttl: int = 240,
    ) -> None:
        self._confirm = confirm
        self.bus = bus
        #: every confirmation request is tracked here; unanswered ones
        #: expire after ``approval_ttl`` simulated minutes
        self.approvals = ApprovalQueue(approval_ttl)
        self.approvals.bus = bus

    def _publish(self, time: int, severity: AlertSeverity, message: str) -> None:
        self.bus.publish(AlertEvent(time, severity.value, message))

    def info(self, time: int, message: str) -> None:
        self._publish(time, AlertSeverity.INFO, message)

    def warning(self, time: int, message: str) -> None:
        self._publish(time, AlertSeverity.WARNING, message)

    def escalate(self, time: int, message: str) -> None:
        """Request human interaction (no applicable action/host found)."""
        self._publish(time, AlertSeverity.ESCALATION, message)

    def request_confirmation(
        self,
        time: int,
        description: str,
        service_name: str = "",
        action: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Ask the administrator to approve an action (semi-automatic mode).

        ``action`` is the proposed action's JSON-able payload; it rides
        on the request so a *later* approval (over the live ops API) can
        still execute the deferred action.
        """
        request = self.approvals.submit(
            time, description, service_name=service_name, action=action
        )
        if self._confirm is None:
            # no administrator attached: the request stays pending until
            # its TTL expires — the controller must not act on its own
            self.escalate(
                time,
                f"confirmation required but no administrator attached: {description}",
            )
            return False
        approved = bool(self._confirm(description))
        self.approvals.answer(request.request_id, approved, time)
        if approved:
            # the caller executes the action inline on a True return; the
            # deferred-execution scanner must not run it a second time
            request.executed = True
        verdict = "approved" if approved else "declined"
        self.info(time, f"administrator {verdict}: {description}")
        return approved
