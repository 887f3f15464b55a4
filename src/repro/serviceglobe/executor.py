"""Failure-hardened action execution.

In a real computing center the nine management actions of Table 2 are
remote operations against host agents: they take time, they time out,
and they fail transiently — a start script hangs, a packet is lost, a
process dies while initializing.  The original reproduction assumed
every controller-issued action succeeds instantly and atomically; this
module replaces that assumption with an executor every action flows
through.

Per execution request the executor runs a small state machine::

    ATTEMPT --ok--------------------------> DONE
       |--transient fault / timeout--> BACKOFF --> ATTEMPT ...
       |--permanent ActionError-------> FAILED  (no retry: constraints
       |                                         do not heal with time)
       after max_attempts ------------> FAILED  (TransientActionFailure
                                                 propagates; the Figure 6
                                                 loop falls back to the
                                                 next host or action)

Relocations (move / scaleUp / scaleDown) additionally pass a *commit
barrier* after the source instance is detached.  A fault injected there
models a failed target start; the platform compensates by restoring the
source instance (or, if the source host died while the instance was in
flight, by queueing the instance for self-healing).  Every retried,
failed and compensated execution leaves an :class:`ActionOutcome` audit
record, so robustness is observable rather than assumed.

All fault injection is off by default: with a pristine
:class:`ExecutionFaults` the executor consumes no randomness and behaves
byte-identically to calling :meth:`Platform.execute` directly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

import numpy as np

from repro.config.model import Action
from repro.serviceglobe.actions import (
    ActionError,
    ActionOutcome,
    FencedActionError,
    TransientActionFailure,
)
from repro.serviceglobe.platform import Platform

__all__ = ["RetryPolicy", "ExecutionFaults", "ActionExecutor"]

#: Relocations pass the two-phase commit barrier (source detach first).
_RELOCATIONS = frozenset({Action.MOVE, Action.SCALE_UP, Action.SCALE_DOWN})


@dataclass(frozen=True)
class RetryPolicy:
    """Retry, timeout and backoff budget of one action execution.

    All durations are simulated minutes.  ``backoff_delay(n)`` is the
    pause after the ``n``-th failed attempt: exponential with a cap,
    ``min(backoff_cap, backoff_base * backoff_factor ** (n - 1))``.
    """

    max_attempts: int = 3
    timeout: float = 10.0
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be at least 1")

    def backoff_delay(self, failed_attempts: int) -> float:
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
        )


@dataclass(frozen=True)
class ExecutionFaults:
    """Injectable actuation faults (all off by default).

    ``failure_probability`` fails an attempt before anything happened on
    the platform; ``commit_failure_probability`` strikes a relocation
    after the source instance is already detached, exercising the
    compensation path.  ``latency_means`` maps actions to their mean
    latency in simulated minutes; with ``latency_jitter`` the latency of
    an attempt is drawn from an exponential distribution around the
    mean, otherwise it is the mean itself.  An attempt whose latency
    exceeds the policy's timeout counts as timed out.
    """

    failure_probability: float = 0.0
    commit_failure_probability: float = 0.0
    latency_means: Mapping[Action, float] = field(default_factory=dict)
    latency_jitter: bool = False

    def __post_init__(self) -> None:
        for name in ("failure_probability", "commit_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if any(mean < 0 for mean in self.latency_means.values()):
            raise ValueError("latency means must be non-negative")

    @property
    def pristine(self) -> bool:
        """True when no fault source is active (fast path, no RNG use)."""
        return (
            self.failure_probability == 0.0
            and self.commit_failure_probability == 0.0
            and not self.latency_means
        )


class ActionExecutor:
    """Executes controller-issued actions with retries and compensation.

    Parameters
    ----------
    platform:
        The platform the actions mutate.
    policy:
        Retry/timeout/backoff budget; defaults to three attempts.
    faults:
        Injected actuation faults; the default injects nothing, making
        the executor a transparent pass-through.
    seed:
        RNG seed for fault rolls and latency draws; executions are
        deterministic given a seed.
    """

    def __init__(
        self,
        platform: Platform,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[ExecutionFaults] = None,
        seed: int = 0,
        name: str = "exec",
    ) -> None:
        self.platform = platform
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults if faults is not None else ExecutionFaults()
        self._rng = np.random.default_rng(seed)
        #: distinguishes executors sharing one journal (controller replicas)
        self.name = name
        self.retry_count = 0
        self.failure_count = 0
        self.compensation_count = 0
        self.fenced_count = 0
        #: the leadership epoch this executor acts under; threaded into
        #: every platform call so a deposed leader's actions are rejected
        #: (``None`` = unfenced: plain runs without leases)
        self.fencing_token: Optional[int] = None
        #: optional :class:`~repro.core.state.StateJournal`: when set,
        #: every execution writes an intent record before the platform
        #: mutates and a commit record after — the two-phase action log
        #: crash recovery reconciles in-flight actions from
        self.journal = None
        self._intent_sequence = 0

    # -- two-phase journal ------------------------------------------------------------

    def _journal_intent(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str],
        target_host: Optional[str],
        note: str,
        approval_id: Optional[str] = None,
    ) -> Optional[str]:
        if self.journal is None:
            return None
        self._intent_sequence += 1
        intent_id = f"{self.name}:{self._intent_sequence:06d}"
        self.journal.append(
            "action-intent",
            intent_id=intent_id,
            time=self.platform.current_time,
            action=action.value,
            service_name=service_name,
            instance_id=instance_id,
            target_host=target_host,
            note=note,
            approval_id=approval_id,
        )
        return intent_id

    def _journal_commit(self, intent_id: Optional[str], status: str) -> None:
        if self.journal is not None and intent_id is not None:
            self.journal.append(
                "action-commit", intent_id=intent_id, status=status
            )

    # -- durability (kill -9 and resume) ------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-able executor state: RNG position, intent counter, tallies.

        Restoring it makes a resumed run draw the same fault rolls and
        continue the intent-id sequence instead of reusing ids.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "intent_sequence": self._intent_sequence,
            "retry_count": self.retry_count,
            "failure_count": self.failure_count,
            "compensation_count": self.compensation_count,
            "fenced_count": self.fenced_count,
        }

    def restore_state(self, payload: dict) -> None:
        self._rng.bit_generator.state = payload["rng"]
        self._intent_sequence = int(payload.get("intent_sequence", 0))
        self.retry_count = int(payload.get("retry_count", 0))
        self.failure_count = int(payload.get("failure_count", 0))
        self.compensation_count = int(payload.get("compensation_count", 0))
        self.fenced_count = int(payload.get("fenced_count", 0))

    # -- fault sampling ---------------------------------------------------------------

    def _roll(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        return float(self._rng.random()) < probability

    def _sample_latency(self, action: Action) -> float:
        mean = self.faults.latency_means.get(action, 0.0)
        if mean <= 0.0:
            return 0.0
        if not self.faults.latency_jitter:
            return mean
        return float(self._rng.exponential(mean))

    @contextlib.contextmanager
    def _commit_barrier(self, action: Action) -> Iterator[None]:
        """Arm the platform's relocation commit barrier for one attempt."""
        if (
            action not in _RELOCATIONS
            or self.faults.commit_failure_probability <= 0.0
        ):
            yield
            return
        previous = self.platform.move_fault_hook

        def barrier(instance, target_host) -> None:
            if previous is not None:
                previous(instance, target_host)
            if self._roll(self.faults.commit_failure_probability):
                raise TransientActionFailure(
                    f"target host {target_host} failed to start "
                    f"{instance.instance_id}"
                )

        self.platform.move_fault_hook = barrier
        try:
            yield
        finally:
            self.platform.move_fault_hook = previous

    # -- audit ------------------------------------------------------------------------

    def _record(
        self,
        status: str,
        action: Action,
        service_name: str,
        instance_id: Optional[str],
        source_host: Optional[str],
        target_host: Optional[str],
        applicability: Optional[float],
        attempts: int,
        duration: float,
        note: str,
    ) -> ActionOutcome:
        outcome = ActionOutcome(
            time=self.platform.current_time,
            action=action,
            service_name=service_name,
            instance_id=instance_id,
            source_host=source_host,
            target_host=target_host,
            applicability=applicability,
            note=note,
            status=status,
            attempts=attempts,
            duration=duration,
        )
        self.platform.record_outcome(outcome, fencing_token=self.fencing_token)
        return outcome

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str] = None,
        target_host: Optional[str] = None,
        applicability: Optional[float] = None,
        enforce_allowed: bool = True,
        note: str = "",
        approval_id: Optional[str] = None,
    ) -> ActionOutcome:
        """Execute one action with the retry/timeout/backoff budget.

        Returns the successful outcome (also published on the
        ``actions`` topic).  Permanent :class:`ActionError` subclasses propagate
        unchanged; exhausting the retry budget raises
        :class:`TransientActionFailure` after writing a ``"failed"``
        audit record.  A stale fencing token is rejected by the platform
        before anything happens; the executor audits the rejection with
        a ``"fenced"`` record and re-raises.

        With a journal attached, an ``action-intent`` record precedes
        the platform mutation and an ``action-commit`` record follows
        it (status ``"ok"``, ``"aborted"`` or ``"fenced"``) — crash
        recovery completes or compensates whatever intent has no commit.
        ``approval_id`` ties the intent to the semi-automatic approval
        that authorized it — recovery uses it to guarantee a late-approved
        action is applied exactly once.
        """
        intent_id = self._journal_intent(
            action, service_name, instance_id, target_host, note,
            approval_id=approval_id,
        )
        try:
            if self.faults.pristine:
                # fast path: behave exactly like the bare platform
                outcome = self.platform.execute(
                    action,
                    service_name,
                    instance_id=instance_id,
                    target_host=target_host,
                    applicability=applicability,
                    enforce_allowed=enforce_allowed,
                    note=note,
                    fencing_token=self.fencing_token,
                )
            else:
                outcome = self._execute_with_faults(
                    action,
                    service_name,
                    instance_id,
                    target_host,
                    applicability,
                    enforce_allowed,
                    note,
                )
        except FencedActionError as fenced:
            self.fenced_count += 1
            self._record(
                "fenced",
                action,
                service_name,
                instance_id,
                None,
                target_host,
                applicability,
                1,
                0.0,
                f"rejected by fencing guard: {fenced}",
            )
            self._journal_commit(intent_id, "fenced")
            raise
        except ActionError:
            # nothing took effect (or a half-completed relocation was
            # already compensated): the intent resolves as aborted
            self._journal_commit(intent_id, "aborted")
            raise
        self._journal_commit(intent_id, "ok")
        return outcome

    def _execute_with_faults(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str],
        target_host: Optional[str],
        applicability: Optional[float],
        enforce_allowed: bool,
        note: str,
    ) -> ActionOutcome:
        policy = self.policy
        attempts = 0
        elapsed = 0.0
        last_failure = ""
        while True:
            attempts += 1
            latency = self._sample_latency(action)
            if latency > policy.timeout:
                elapsed += policy.timeout
                last_failure = (
                    f"attempt {attempts} timed out after "
                    f"{policy.timeout:.0f} min"
                )
            elif self._roll(self.faults.failure_probability):
                elapsed += latency
                last_failure = f"attempt {attempts}: transient actuation fault"
            else:
                elapsed += latency
                try:
                    with self._commit_barrier(action):
                        outcome = self.platform.execute(
                            action,
                            service_name,
                            instance_id=instance_id,
                            target_host=target_host,
                            applicability=applicability,
                            enforce_allowed=enforce_allowed,
                            note=note,
                            attempts=attempts,
                            duration=elapsed,
                            fencing_token=self.fencing_token,
                        )
                except TransientActionFailure as fault:
                    # the platform already compensated the half-completed
                    # relocation; audit it and decide whether to retry
                    self.compensation_count += 1
                    last_failure = str(fault)
                    self._record(
                        "compensated",
                        action,
                        service_name,
                        fault.instance_id or instance_id,
                        fault.source_host,
                        fault.target_host or target_host,
                        applicability,
                        attempts,
                        elapsed,
                        f"move rolled back: {fault}"
                        if not fault.instance_lost
                        else f"source lost during move: {fault}",
                    )
                    if fault.instance_lost:
                        # the instance is gone; retrying would act on a
                        # different one — recovery belongs to self-healing
                        self.failure_count += 1
                        raise
                else:
                    if attempts > 1:
                        self.retry_count += attempts - 1
                    return outcome
            if attempts >= policy.max_attempts:
                self.failure_count += 1
                self._record(
                    "failed",
                    action,
                    service_name,
                    instance_id,
                    None,
                    target_host,
                    applicability,
                    attempts,
                    elapsed,
                    f"gave up after {attempts} attempts: {last_failure}",
                )
                raise TransientActionFailure(
                    f"{action.value} {service_name}: gave up after "
                    f"{attempts} attempts ({last_failure})",
                    instance_id=instance_id,
                    target_host=target_host,
                )
            elapsed += policy.backoff_delay(attempts)
