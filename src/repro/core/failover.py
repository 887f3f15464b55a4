"""A control domain's replica set: crash recovery and hot-standby failover.

AutoGlobe heals every component of the landscape except the one doing
the healing: the controller itself.  :class:`ControllerSupervisor`
closes that gap.  It is the one replica set of a control domain (the
whole landscape in a flat run) and manages a sequence of controller
*replicas* over one platform:

* **unsupervised** (no state store): exactly one replica, named
  ``exec`` (``<domain>-exec`` in a control domain), with no lease, no
  journal, no controller snapshot and no recovery — the paper's single
  controller, at the cost of one call frame per tick;
* otherwise the **active** replica runs the ordinary Figure 2 loop;
  every tick its soft state flows into the shared write-ahead journal
  and a controller snapshot (:class:`~repro.core.state.DurableStateStore`);
* leadership is a **lease** with a monotonically increasing fencing
  token.  The active replica renews the lease each tick; a replica that
  cannot renew (crashed, partitioned) loses leadership when the lease
  expires;
* on a **crash**, a replacement replica is rebuilt from snapshot +
  journal replay, reconciles in-flight action intents against the
  platform (completed, aborted or compensated — exactly once) and
  re-acquires the lease with a higher token;
* with a **hot standby**, a network-partitioned leader is superseded as
  soon as its lease expires: the standby is promoted with a new token
  and the platform's :class:`~repro.serviceglobe.actions.FencingGuard`
  rejects everything the deposed leader keeps issuing (audited as
  ``"fenced"`` outcomes) until the partition heals and it demotes.

The runner never ticks a supervisor directly: every run is a
:class:`~repro.core.federation.FederatedControlPlane` of domains, each
one supervisor, and the plane aggregates over domains × replicas.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config.model import ControllerSettings
from repro.core.alerts import CommandQueue
from repro.core.autoglobe import AutoGlobeController
from repro.core.state import DurableStateStore, replay_journal
from repro.monitoring.archive import InMemoryLoadArchive, LoadArchive
from repro.serviceglobe.actions import ActionOutcome
from repro.serviceglobe.executor import ActionExecutor, ExecutionFaults
from repro.serviceglobe.platform import Platform
from repro.telemetry.records import SupervisionEvent, SupervisionEventKind

__all__ = ["ControllerSupervisor", "replica_executors"]

#: minutes a leadership lease stays valid without renewal
DEFAULT_LEASE_TTL = 5


def replica_executors(
    platform: Platform,
    faults: Optional[ExecutionFaults] = None,
    seed: int = 0,
) -> Callable[[str, int], ActionExecutor]:
    """The one rule for replica executors: ``(name, replica_number) ->
    ActionExecutor`` over ``platform``.

    Each replica gets its own executor — a shared one would carry the
    new leader's fencing token on behalf of a deposed leader, defeating
    fencing.  Under chaos (``faults`` given) replica ``N`` draws from
    ``seed + N``, so fault draws stay deterministic across failovers;
    without, every executor is pristine: seed 0, ``ExecutionFaults()``.
    """

    def build(name: str, replica_number: int) -> ActionExecutor:
        if faults is None:
            return ActionExecutor(platform, name=name)
        return ActionExecutor(
            platform, faults=faults, seed=seed + replica_number, name=name
        )

    return build


class ControllerSupervisor:
    """One control domain's replica set: leases, failover, recovery.

    Parameters
    ----------
    platform:
        The platform (or :class:`~repro.serviceglobe.platform.DomainView`)
        the controllers administer.
    settings / archive / enabled:
        Forwarded to every replica, exactly as
        :class:`~repro.core.autoglobe.AutoGlobeController` takes them.
    store:
        The :class:`~repro.core.state.DurableStateStore` holding the
        journal, snapshots and lease (in memory or on disk).  ``None``
        runs unsupervised: one replica, nothing journalled.
    standby:
        Keep a hot standby: on a leader crash or partition the standby
        is promoted as soon as the old lease expires, instead of
        waiting out the crashed leader's restart.
    executor_factory:
        ``(name, replica_number) -> ActionExecutor`` building each
        replica's executor (see :func:`replica_executors`, the default).
    relocation_handler:
        Forwarded to every replica's decision loop, so failover replicas
        stay wired to the federation's relocation path.
    """

    #: lease validity in simulated minutes
    lease_ttl = DEFAULT_LEASE_TTL
    #: the replica set acquires, renews and rewinds its own lease, so
    #: nothing but its own process writes its state file and the runner
    #: may group the file's writes between commit points
    holds_lease = True

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        archive: Optional[LoadArchive] = None,
        enabled: bool = True,
        store: Optional[DurableStateStore] = None,
        standby: bool = False,
        executor_factory: Optional[Callable[[str, int], ActionExecutor]] = None,
        relocation_handler=None,
    ) -> None:
        self.platform = platform
        #: control domain this supervisor's replicas administer (from a
        #: DomainView's marker); empty when supervising the whole landscape
        self.domain = getattr(platform, "domain_name", "")
        self._relocation_handler = relocation_handler
        self.settings = (
            settings if settings is not None else platform.landscape.controller
        )
        self.archive = archive if archive is not None else InMemoryLoadArchive()
        self._enabled = enabled
        self.store = store
        self.standby_enabled = standby
        self._executors = (
            executor_factory if executor_factory is not None
            else replica_executors(platform)
        )
        self._replica_sequence = 0
        #: every replica ever created, newest last
        self.replicas: List[Any] = []
        self.downtime_minutes = 0
        self._restart_at: Optional[int] = None
        self._partitioned_until: Optional[int] = None
        #: deposed-but-still-running ex-leader and the minute it heals
        self._stale: Optional[Tuple[AutoGlobeController, int]] = None
        #: monitoring outages injected at supervisor level, so replicas
        #: promoted mid-outage inherit them
        self._monitor_outages: Dict[str, int] = {}
        #: unresolved action intents awaiting reconciliation on the next tick
        self._pending_intents: Dict[str, Dict[str, Any]] = {}
        #: operator verdicts posted while the active replica may be down
        #: or changing; forwarded to whoever leads at the next tick
        self.commands = CommandQueue()
        self.active: Optional[AutoGlobeController] = (
            self._new_controller() if store is None else self._recover_from_store()
        )

    def _record_event(self, now: int, kind: str, detail: str) -> None:
        """Publish one supervision event (crash, recovery, failover,
        partition heal) on the bus; the result collector keeps those that
        count as faults.

        ``kind`` must name a :class:`SupervisionEventKind` member —
        a typo or a new unregistered kind raises ``ValueError`` here, at
        the producer, instead of being silently dropped downstream.
        """
        self.platform.bus.publish(
            SupervisionEvent(now, SupervisionEventKind(kind), detail, self.domain)
        )

    # -- replica construction -------------------------------------------------------

    def _new_controller(self) -> AutoGlobeController:
        if self.store is None:
            number = 0
            name = f"{self.domain}-exec" if self.domain else "exec"
        else:
            self._replica_sequence += 1
            number = self._replica_sequence
            name = f"controller-{number}"
        controller = AutoGlobeController(
            self.platform,
            settings=self.settings,
            archive=self.archive,
            enabled=self._enabled,
            executor=self._executors(name, number),
            relocation_handler=self._relocation_handler,
        )
        if self.store is not None:
            controller.attach_journal(self.store.journal)
        self.replicas.append(controller)
        return controller

    def _recover_from_store(self) -> AutoGlobeController:
        """Build a replica from snapshot + journal replay.

        On a fresh (empty) store this degenerates to a plain new
        controller; otherwise the replica inherits everything the
        previous leader durably recorded, and whatever action intents
        replay leaves unresolved is queued for reconciliation.
        """
        snapshot = self.store.snapshots.load("controller")
        base = snapshot["payload"] if snapshot else None
        seq = int(snapshot["journal_seq"]) if snapshot else 0
        state = replay_journal(base, self.store.journal.since(seq))
        # a fresh process recovering from a persistent store must not
        # reuse the previous leader's name: renewing under the same
        # holder would keep the old fencing token alive.  Seed the
        # replica counter past whatever name the lease row records.
        row = self.store.lease.current()
        if row is not None:
            try:
                self._replica_sequence = max(
                    self._replica_sequence, int(row[0].rsplit("-", 1)[-1])
                )
            except ValueError:
                pass
        controller = self._new_controller()
        payload: Dict[str, Any] = dict(base or {})
        # a new replica builds its own instance monitor set in landscape
        # order; only a resumed run continues the live replica's order
        payload.pop("instance_advisors", None)
        payload.update(
            {
                "protection": state["protection"],
                "observations": list(state["observations"].values()),
                "approvals": list(state["approvals"].values()),
                "approval_sequence": state["approval_sequence"],
                "pending_restarts": state["pending_restarts"],
            }
        )
        controller.restore_state(payload)
        for host_name, until in self._monitor_outages.items():
            controller.degrade_monitoring(host_name, until)
        self._pending_intents = dict(state["intents"])
        return controller

    # -- fault hooks (called by the fault injector) -----------------------------------

    def fault_in_progress(self, now: int) -> bool:
        """A controller fault is still playing out (don't stack another)."""
        if self.active is None or self._stale is not None:
            return True
        return self._partitioned_until is not None and now < self._partitioned_until

    def crash_active(self, now: int, down_minutes: int) -> None:
        """Kill the active controller process.

        Without a standby a replacement restarts after ``down_minutes``;
        with one, the standby takes over as soon as the lease expires.
        """
        if self.active is None:
            return
        self._record_event(now, "controller-crash", self.active.executor.name)
        self.active = None
        self._restart_at = now + down_minutes
        # the crashed process takes its partition state with it
        self._partitioned_until = None

    def partition_active(self, now: int, minutes: int) -> None:
        """Cut the active leader off from the lease store.

        The leader keeps running and issuing actions — it does not know
        it is partitioned — but cannot renew its lease.  With a standby
        the expiry triggers a promotion and the old leader's actions are
        fenced from then on.
        """
        if self.active is None:
            return
        self._partitioned_until = now + minutes
        self._record_event(now, "leader-partition", self.active.executor.name)

    # -- leadership -------------------------------------------------------------------

    def _maybe_recover(self, now: int) -> None:
        """Replace a crashed leader once permitted by lease and timer."""
        row = self.store.lease.current()
        lease_free = row is None or row[2] <= now
        if not lease_free:
            return
        if self.standby_enabled:
            kind = "leader-failover"
        elif self._restart_at is not None and now >= self._restart_at:
            kind = "controller-recovery"
        else:
            return
        self.active = self._recover_from_store()
        self._restart_at = None
        self._record_event(now, kind, self.active.executor.name)

    def _maybe_promote(self, now: int) -> None:
        """Promote the standby over a partitioned leader at lease expiry."""
        if (
            not self.standby_enabled
            or self.active is None
            or self._partitioned_until is None
            or now >= self._partitioned_until
        ):
            return
        row = self.store.lease.current()
        if row is not None and row[2] > now:
            return  # the partitioned leader's lease has not expired yet
        deposed = self.active
        deposed.depose()
        self._stale = (deposed, self._partitioned_until)
        self._partitioned_until = None
        self.active = self._recover_from_store()
        self._record_event(
            now,
            "leader-failover",
            f"{deposed.executor.name}->{self.active.executor.name}",
        )

    def _acquire_lease(self, now: int) -> None:
        if not self.holds_lease:
            return  # granted elsewhere; the token is adopted from there
        if self._partitioned_until is not None and now < self._partitioned_until:
            return  # partitioned: the lease store is unreachable
        assert self.active is not None
        token = self.store.lease.acquire(
            self.active.executor.name, now, self.lease_ttl
        )
        if token is not None:
            self.adopt_token(now, token)

    def adopt_token(self, now: int, token: int) -> None:
        """Lead under fencing ``token``; announce a new leadership epoch.

        The ``LEADER_EPOCH`` event is published so the verifier's fencing
        watermark advances before the first action of the new epoch — a
        stale application right after a failover is flagged even if the
        new leader has not acted yet.
        """
        if self.active is None or token == self.active.executor.fencing_token:
            return
        self.active.executor.fencing_token = token
        self.platform.fence.advance(token)
        self.platform.bus.publish(
            SupervisionEvent(
                now,
                SupervisionEventKind.LEADER_EPOCH,
                self.active.executor.name,
                self.domain,
                fencing_token=token,
            )
        )

    # -- the per-minute cycle ----------------------------------------------------------

    def _forward_commands(self) -> None:
        """Operator verdicts survive the dead window between a crash and
        the next promotion: they wait here and reach whoever leads."""
        for command in self.commands.drain():
            self.active.commands.post(command)

    def tick(self, now: int) -> List[ActionOutcome]:
        if self.store is None:  # unsupervised: the one replica's minute
            self._forward_commands()
            return self.active.tick(now)
        outcomes: List[ActionOutcome] = []
        if self.active is None:
            self.downtime_minutes += 1
            self._maybe_recover(now)
        else:
            self._maybe_promote(now)
        if self.active is not None:
            self._acquire_lease(now)
            if self._pending_intents and self._enabled:
                outcomes.extend(
                    self.active.reconcile(now, self._pending_intents)
                )
                self._pending_intents = {}
            self._forward_commands()
            outcomes.extend(self.active.tick(now))
            self.store.journal.append("tick", now=now)
            self.store.snapshots.save(
                "controller",
                now,
                self.store.journal.last_seq,
                self.active.snapshot_state(),
            )
        if self._stale is not None:
            stale, heal_at = self._stale
            if now >= heal_at:
                self._record_event(now, "partition-healed", stale.executor.name)
                self._stale = None
            else:
                # the deposed leader keeps ticking; its actions carry the
                # old fencing token and are rejected ("fenced" audit
                # records), never double-applied
                stale.tick(now)
        return outcomes

    # -- the replica set's surface to the plane ---------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled and self.active is not None

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        for controller in self.replicas:
            controller.enabled = bool(value)

    def report_failure(self, instance_id: str, now: int):
        if self.active is None:
            return None  # nobody is listening: the failure waits for recovery
        return self.active.report_failure(instance_id, now)

    def degrade_monitoring(self, host_name: str, until: int) -> None:
        current = self._monitor_outages.get(host_name, -1)
        self._monitor_outages[host_name] = max(current, until)
        if self.active is not None:
            self.active.degrade_monitoring(host_name, until)

    def close(self) -> None:
        """The end of the run: nothing to release here (whoever opened
        the state store closes it); an agent's replica set deregisters."""

    # -- run-level durability (kill -9 and resume) -------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able supervision state for a full-run snapshot.

        The newest replica is snapshotted also while it is down: the
        fault injector keeps reading its failure detector.  A down
        leader no longer refreshes the store's controller snapshot its
        successor recovers from, so that one rides along as it stands.
        A deposed replica still ticking under its partition rides along
        too, with the fencing token its actions are rejected by.  An
        unsupervised replica set keeps just its one replica's state.
        """
        if self.store is None:
            return {
                "controller": self.active.snapshot_state(),
                "executor": self.active.executor.snapshot_state(),
            }
        latest = self.replicas[-1] if self.replicas else None
        stale = None
        if self._stale is not None:
            deposed, heal_at = self._stale
            stale = {
                "name": deposed.executor.name,
                "heal_at": heal_at,
                "controller": deposed.snapshot_state(),
                "executor": deposed.executor.snapshot_state(),
                "fencing_token": deposed.executor.fencing_token,
            }
        return {
            "replica_sequence": self._replica_sequence,
            "latest_name": latest.executor.name if latest is not None else None,
            "latest_active": self.active is not None,
            "journal_seq": self.store.journal.last_seq,
            "lease": self.store.lease.current(),
            "controller": latest.snapshot_state() if latest is not None else None,
            "executor": (
                latest.executor.snapshot_state() if latest is not None else None
            ),
            "stored_controller": (
                self.store.snapshots.load("controller")
                if self.active is None
                else None
            ),
            "monitor_outages": dict(self._monitor_outages),
            "downtime_minutes": self.downtime_minutes,
            "restart_at": self._restart_at,
            "partitioned_until": self._partitioned_until,
            "stale": stale,
        }

    def restore_state(self, payload: Dict[str, Any], now: int) -> None:
        """Rebuild supervision state from a full-run snapshot.

        The store is rewound to the snapshot (journal sequence number,
        minute ``now`` and lease row) — everything after it belongs to
        the abandoned timeline between the snapshot and the kill — and the
        newest replica is rebuilt under its pre-kill identity, so the
        lease renews under the same holder and intent ids stay
        unambiguous.  A deposed replica is rebuilt the same way, before
        it as in the live run, with the journal detached.
        """
        if self.store is None:
            self.active.restore_state(payload["controller"])
            self.active.executor.restore_state(payload["executor"])
            return
        self.downtime_minutes = int(payload.get("downtime_minutes", 0))
        self._restart_at = payload.get("restart_at")
        self._partitioned_until = payload.get("partitioned_until")
        for host_name, until in payload.get("monitor_outages", {}).items():
            current = self._monitor_outages.get(host_name, -1)
            self._monitor_outages[host_name] = max(current, int(until))
        journal_seq = int(payload.get("journal_seq", 0))
        self.store.rewind(journal_seq, now)
        if self.holds_lease:
            # a lease held elsewhere only grows its tokens: left alone
            self.store.lease.rewind(payload["lease"])
        self.replicas = []
        self._pending_intents = {}
        self.active = None
        self._stale = None
        stale = payload.get("stale")
        if stale is not None:
            self._replica_sequence = int(stale["name"].rsplit("-", 1)[-1]) - 1
            deposed = self._new_controller()
            deposed.depose()
            deposed.restore_state(stale["controller"])
            deposed.executor.restore_state(stale["executor"])
            deposed.executor.fencing_token = stale["fencing_token"]
            self._stale = (deposed, int(stale["heal_at"]))
        controller_payload = payload["controller"]
        if payload["latest_name"] is None:
            self._replica_sequence = int(payload.get("replica_sequence", 0))
            return
        self._replica_sequence = int(payload["latest_name"].rsplit("-", 1)[-1]) - 1
        latest = self._new_controller()
        latest.restore_state(controller_payload)
        latest.executor.restore_state(payload["executor"])
        for host_name, until in self._monitor_outages.items():
            latest.degrade_monitoring(host_name, until)
        self._replica_sequence = max(
            self._replica_sequence, int(payload.get("replica_sequence", 0))
        )
        stored = payload["stored_controller"]
        if payload["latest_active"]:
            self.active = latest
            stored = {
                "tick": int(controller_payload.get("tick") or 0),
                "journal_seq": journal_seq,
                "payload": controller_payload,
            }
        if stored is not None:
            self.store.snapshots.save(
                "controller", stored["tick"], stored["journal_seq"], stored["payload"]
            )
