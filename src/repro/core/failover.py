"""Controller crash recovery and hot-standby failover.

AutoGlobe heals every component of the landscape except the one doing
the healing: the controller itself.  :class:`ControllerSupervisor`
closes that gap.  It manages a sequence of controller *replicas* over
one platform:

* the **active** replica runs the ordinary Figure 2 loop; every tick its
  soft state flows into the shared write-ahead journal and a controller
  snapshot (:class:`~repro.core.state.DurableStateStore`);
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

The supervisor is a drop-in replacement for
:class:`~repro.core.autoglobe.AutoGlobeController` from the simulation
runner's and fault injector's point of view: it proxies ``platform``,
``enabled``, ``report_failure``, ``failure_detector``,
``degrade_monitoring`` and exposes an aggregated ``alerts`` view over
every replica that ever led.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config.model import ControllerSettings
from repro.core.alerts import Alert, AlertSeverity, CommandQueue
from repro.core.autoglobe import AutoGlobeController
from repro.core.state import DurableStateStore, replay_journal
from repro.monitoring.archive import InMemoryLoadArchive, LoadArchive
from repro.serviceglobe.actions import ActionOutcome
from repro.serviceglobe.executor import ActionExecutor
from repro.serviceglobe.platform import Platform
from repro.telemetry.records import SupervisionEvent, SupervisionEventKind

__all__ = ["ControllerSupervisor"]

#: minutes a leadership lease stays valid without renewal
DEFAULT_LEASE_TTL = 5


class _ApprovalView:
    """Aggregated approval queue over every controller replica."""

    def __init__(self, replicas: List[AutoGlobeController]) -> None:
        self._replicas = replicas

    def pending(self):
        return [r for c in self._replicas for r in c.alerts.approvals.pending()]

    def expired(self):
        return [r for c in self._replicas for r in c.alerts.approvals.expired()]

    @property
    def requests(self):
        return [r for c in self._replicas for r in c.alerts.approvals.requests]


class _AlertsView:
    """Aggregated alert channel over every controller replica."""

    def __init__(self, supervisor: "ControllerSupervisor") -> None:
        self._supervisor = supervisor

    @property
    def alerts(self):
        return [
            alert
            for controller in self._supervisor.replicas
            for alert in controller.alerts.alerts
        ]

    def escalations(self):
        return self._supervisor._restored_escalations + [
            alert
            for controller in self._supervisor.replicas
            for alert in controller.alerts.escalations()
        ]

    @property
    def approvals(self) -> _ApprovalView:
        return _ApprovalView(self._supervisor.replicas)


class ControllerSupervisor:
    """Supervises controller replicas: leases, failover, recovery.

    Parameters
    ----------
    platform:
        The platform the controllers administer.
    settings / archive / confirm / enabled:
        Forwarded to every replica, exactly as
        :class:`~repro.core.autoglobe.AutoGlobeController` takes them.
    store:
        The :class:`~repro.core.state.DurableStateStore` holding the
        journal, snapshots and lease.  Defaults to a fully in-memory
        store (failover works, nothing survives the process).
    standby:
        Keep a hot standby: on a leader crash or partition the standby
        is promoted as soon as the old lease expires, instead of
        waiting out the crashed leader's restart.
    executor_factory:
        ``(name, replica_number) -> ActionExecutor`` building each
        replica's executor; chaos runs inject their fault profile here
        with a per-replica seed.  Defaults to a pristine executor.
    lease_ttl:
        Lease validity in simulated minutes.
    """

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        archive: Optional[LoadArchive] = None,
        confirm=None,
        enabled: bool = True,
        store: Optional[DurableStateStore] = None,
        standby: bool = False,
        executor_factory: Optional[Callable[[str, int], ActionExecutor]] = None,
        lease_ttl: int = DEFAULT_LEASE_TTL,
        relocation_handler=None,
    ) -> None:
        self.platform = platform
        #: control domain this supervisor's replicas administer (from a
        #: DomainView's marker); empty when supervising the whole landscape
        self.domain = getattr(platform, "domain_name", "")
        #: forwarded to every replica's decision loop so failover
        #: replicas stay wired to the federation's relocation path
        self._relocation_handler = relocation_handler
        self.settings = (
            settings if settings is not None else platform.landscape.controller
        )
        self.archive = archive if archive is not None else InMemoryLoadArchive()
        self._confirm = confirm
        self._enabled = enabled
        self.store = store if store is not None else DurableStateStore(None)
        self.standby_enabled = standby
        self._executor_factory = executor_factory
        self.lease_ttl = lease_ttl
        self._replica_sequence = 0
        #: every replica ever created, newest last (alert aggregation)
        self.replicas: List[AutoGlobeController] = []
        #: escalations raised before the snapshot this run resumed from;
        #: their replicas are gone, the run's escalation count is not
        self._restored_escalations: List[Alert] = []
        #: (time, kind, detail) supervision events: crashes, recoveries,
        #: failovers, partition heals — merged into the run's fault records
        self.events: List[Tuple[int, str, str]] = []
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
        self.active: Optional[AutoGlobeController] = self._recover_from_store()

    def _record_event(self, now: int, kind: str, detail: str) -> None:
        """Record one supervision event and publish it on the bus.

        ``kind`` must name a :class:`SupervisionEventKind` member —
        a typo or a new unregistered kind raises ``ValueError`` here, at
        the producer, instead of being silently dropped downstream.
        """
        event_kind = SupervisionEventKind(kind)
        self.events.append((now, kind, detail))
        self.platform.bus.publish(
            SupervisionEvent(now, event_kind, detail, self.domain)
        )

    # -- replica construction -------------------------------------------------------

    def _new_controller(self) -> AutoGlobeController:
        self._replica_sequence += 1
        name = f"controller-{self._replica_sequence}"
        if self._executor_factory is not None:
            executor = self._executor_factory(name, self._replica_sequence)
        else:
            executor = ActionExecutor(self.platform, name=name)
        controller = AutoGlobeController(
            self.platform,
            settings=self.settings,
            archive=self.archive,
            confirm=self._confirm,
            enabled=self._enabled,
            executor=executor,
            relocation_handler=self._relocation_handler,
        )
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
        # a new replica builds its own advisors in landscape order; only
        # a resumed run continues the live replica's order
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

    # -- identity -------------------------------------------------------------------

    @property
    def active_name(self) -> Optional[str]:
        return self.active.executor.name if self.active is not None else None

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
        # the partitioned side can reach neither the lease store nor the
        # journal; it keeps running blind until the partition heals
        deposed.attach_journal(None)
        self._stale = (deposed, self._partitioned_until)
        self._partitioned_until = None
        self.active = self._recover_from_store()
        self._record_event(
            now,
            "leader-failover",
            f"{deposed.executor.name}->{self.active.executor.name}",
        )

    def _rewind_lease(self, row: Optional[List[Any]]) -> None:
        self.store.lease.rewind(row)

    def _acquire_lease(self, now: int) -> None:
        if self._partitioned_until is not None and now < self._partitioned_until:
            return  # partitioned: the lease store is unreachable
        assert self.active is not None
        token = self.store.lease.acquire(
            self.active.executor.name, now, self.lease_ttl
        )
        if token is None:
            return
        if token != self.active.executor.fencing_token:
            self.active.executor.fencing_token = token
            # announce the new leadership epoch: anything older is stale
            self.platform.fence.advance(token)
            # published (not journaled in self.events) so the verifier's
            # fencing watermark advances before the first action of the
            # new epoch — a stale application right after a failover is
            # flagged even if the new leader has not acted yet
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

    def tick(self, now: int) -> List[ActionOutcome]:
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
            # operator verdicts survive the dead window between a crash
            # and the next promotion: they sit in the supervisor's queue
            # and reach whichever replica leads now
            for command in self.commands.drain():
                self.active.commands.post(command)
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

    # -- proxies (duck-typed AutoGlobeController surface) ------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled and self.active is not None

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        for controller in self.replicas:
            controller.enabled = bool(value)

    @property
    def _latest(self) -> AutoGlobeController:
        return self.active if self.active is not None else self.replicas[-1]

    @property
    def failure_detector(self):
        return self._latest.failure_detector

    @property
    def protection(self):
        return self._latest.protection

    @property
    def executor(self):
        return self._latest.executor

    @property
    def lms(self):
        return self._latest.lms

    @property
    def alerts(self) -> _AlertsView:
        return _AlertsView(self)

    @property
    def decision_records(self):
        return [
            record
            for controller in self.replicas
            for record in controller.decision_records
        ]

    @property
    def situations_handled(self):
        return [
            situation
            for controller in self.replicas
            for situation in controller.situations_handled
        ]

    def report_failure(self, instance_id: str, now: int):
        if self.active is None:
            return None  # nobody is listening: the failure waits for recovery
        return self.active.report_failure(instance_id, now)

    def degrade_monitoring(self, host_name: str, until: int) -> None:
        current = self._monitor_outages.get(host_name, -1)
        self._monitor_outages[host_name] = max(current, until)
        if self.active is not None:
            self.active.degrade_monitoring(host_name, until)

    def reconcile(
        self, now: int, intents: Dict[str, Dict[str, Any]]
    ) -> List[ActionOutcome]:
        """Resolve externally supplied intents (ControlPlane surface).

        With a live leader the intents resolve immediately; otherwise
        they queue with the store-recovered ones and resolve on the
        first tick after recovery.
        """
        if self.active is None:
            self._pending_intents.update(intents)
            return []
        return self.active.reconcile(now, intents)

    # -- run-level durability (kill -9 and resume) -------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able supervision state for a full-run snapshot.

        The newest replica is snapshotted also while it is down: the
        fault injector keeps reading its failure detector.  A down
        leader no longer refreshes the store's controller snapshot its
        successor recovers from, so that one rides along as it stands.
        """
        latest = self._latest if self.replicas else None
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
            "events": [list(event) for event in self.events],
            "escalations": [
                [alert.time, alert.message] for alert in self.alerts.escalations()
            ],
            "downtime_minutes": self.downtime_minutes,
            "restart_at": self._restart_at,
            "partitioned_until": self._partitioned_until,
        }

    def restore_state(self, payload: Dict[str, Any], now: int) -> None:
        """Rebuild supervision state from a full-run snapshot.

        The store is rewound to the snapshot (journal sequence number,
        minute ``now`` and lease row) — everything after it belongs to
        the abandoned timeline between the snapshot and the kill — and the
        newest replica is rebuilt under its pre-kill identity, so the
        lease renews under the same holder and intent ids stay
        unambiguous.
        """
        self.events = [tuple(event) for event in payload.get("events", [])]
        self._restored_escalations = [
            Alert(int(time), AlertSeverity.ESCALATION, message)
            for time, message in payload.get("escalations", [])
        ]
        self.downtime_minutes = int(payload.get("downtime_minutes", 0))
        self._restart_at = payload.get("restart_at")
        self._partitioned_until = payload.get("partitioned_until")
        for host_name, until in payload.get("monitor_outages", {}).items():
            current = self._monitor_outages.get(host_name, -1)
            self._monitor_outages[host_name] = max(current, int(until))
        journal_seq = int(payload.get("journal_seq", 0))
        self.store.rewind(journal_seq, now)
        self._rewind_lease(payload["lease"])
        self.replicas = []
        self._pending_intents = {}
        self.active = None
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
