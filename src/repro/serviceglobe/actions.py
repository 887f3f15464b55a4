"""Management actions and their error taxonomy.

The nine actions of Table 2 are defined in :class:`repro.config.model.Action`;
this module adds the execution-side vocabulary: the outcomes the platform
publishes and the errors raised when an action cannot be carried out.  The
controller's Figure 6 loop catches :class:`ActionError` and falls back to
the next-best host or action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.config.model import Action

__all__ = [
    "ActionError",
    "ActionNotAllowed",
    "ConstraintViolation",
    "NoSuchTarget",
    "TransientActionFailure",
    "FencedActionError",
    "FencingGuard",
    "ActionOutcome",
]


class ActionError(RuntimeError):
    """Base class: an action could not be executed."""


class ActionNotAllowed(ActionError):
    """The service's declarative constraints do not permit this action.

    Example: "a traditional SAP database service does not support a
    scale-out.  Thus, the action scale-out is not possible for such a
    service."
    """


class ConstraintViolation(ActionError):
    """Executing the action would violate a constraint at runtime.

    Examples: exceeding max_instances, dropping below min_instances,
    hosting on a server below the minimum performance index, breaking
    exclusivity, or exhausting host memory.
    """


class NoSuchTarget(ActionError):
    """The referenced service, instance or host does not exist."""


class TransientActionFailure(ActionError):
    """An action attempt failed for a non-structural reason.

    Host agents lose packets, daemons time out, processes die while
    starting: the action *would* be legal, it just did not happen this
    time.  The executor retries these with backoff; after the retry
    budget is exhausted the failure propagates as an :class:`ActionError`
    so the Figure 6 loop falls back to the next-best host or action.

    Attributes (best effort, set by whoever raised):
    ``instance_id``, ``source_host``, ``target_host`` identify a
    half-completed relocation; ``instance_lost`` is ``True`` when the
    compensation could not restore the source instance (its host died
    while the instance was in flight).
    """

    def __init__(
        self,
        message: str,
        instance_id: Optional[str] = None,
        source_host: Optional[str] = None,
        target_host: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.instance_id = instance_id
        self.source_host = source_host
        self.target_host = target_host
        self.instance_lost = False


class FencedActionError(ActionError):
    """The action carried a stale fencing token and was rejected.

    Leadership of the controller is granted through a lease with a
    monotonically increasing *fencing token*; the platform remembers the
    highest token it has seen and refuses anything older.  A deposed or
    network-partitioned controller that keeps issuing actions is thereby
    rejected instead of double-applying remedies the current leader has
    already taken care of.
    """

    def __init__(self, message: str, token: Optional[int] = None) -> None:
        super().__init__(message)
        self.token = token


class FencingGuard:
    """The platform-side half of lease fencing.

    Tracks the highest fencing token observed; :meth:`validate` rejects
    stale tokens with :class:`FencedActionError`.  Callers without a
    token (``None`` — the administrator console, direct platform use,
    non-durable runs) are never fenced: fencing protects against *stale
    leaders*, not against operators.
    """

    def __init__(self) -> None:
        self.token = 0

    def validate(self, token: Optional[int]) -> None:
        if token is None:
            return
        if token < self.token:
            raise FencedActionError(
                f"fencing token {token} is stale (current leader holds "
                f"{self.token})",
                token=token,
            )
        self.token = token

    def advance(self, token: int) -> None:
        """Raise the watermark (a new leader announcing its token)."""
        self.token = max(self.token, token)


@dataclass(frozen=True)
class ActionOutcome:
    """Audit record of one executed action (Section 4.3: actions are logged).

    ``status`` distinguishes the record kinds the failure-hardened
    executor writes: ``"ok"`` (the action took effect), ``"failed"``
    (the retry budget was exhausted), ``"compensated"`` (a relocation
    failed mid-flight and the source instance was rolled back) and
    ``"fenced"`` (a deposed leader's action was rejected by the
    platform's fencing guard and had no effect).
    ``attempts`` counts execution attempts including the successful one;
    ``duration`` is the simulated minutes the action took end to end,
    including retry backoff.
    """

    time: int
    action: Action
    service_name: str
    instance_id: Optional[str] = None
    source_host: Optional[str] = None
    target_host: Optional[str] = None
    applicability: Optional[float] = None
    note: str = ""
    status: str = "ok"
    attempts: int = 1
    duration: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The one codec of an audit record, its ``actions`` event's
        payload too: every field, the Action enum by value."""
        return {**self.__dict__, "action": self.action.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ActionOutcome":
        """What :meth:`to_dict` wrote, exactly (other keys are ignored)."""
        fields = {name: payload[name] for name in cls.__dataclass_fields__}
        return cls(**{**fields, "action": Action(payload["action"])})

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def __str__(self) -> str:
        parts = [f"t={self.time}", self.action.value, self.service_name]
        if self.instance_id:
            parts.append(self.instance_id)
        if self.source_host and self.target_host:
            parts.append(f"{self.source_host}->{self.target_host}")
        elif self.target_host:
            parts.append(f"on {self.target_host}")
        elif self.source_host:
            parts.append(f"on {self.source_host}")
        if self.applicability is not None:
            parts.append(f"({self.applicability:.0%})")
        if self.attempts > 1:
            parts.append(f"[attempts={self.attempts}]")
        if self.status != "ok":
            parts.append(f"[{self.status.upper()}]")
        return " ".join(parts)
