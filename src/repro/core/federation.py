"""Control domains: per-domain controllers federated over one landscape.

A large landscape is partitioned into *control domains* — named shards
of its servers (``<controlDomains>`` in the XML language).  Each domain
gets the full Figure 2 stack of its own: a controller (optionally
supervised for crash recovery), an LMS with its advisors, and a load
archive, all scoped through a
:class:`~repro.serviceglobe.platform.DomainView` so situation detection,
placement and archive writes never cross shards.  The substrate —
landscape state, dispatcher, audit log, telemetry bus — stays shared:
there is still exactly one ServiceGlobe federation underneath.

The federation layer itself does exactly one thing beyond ticking the
shards round-robin: it arbitrates **cross-domain relocation**.  A domain
whose decision loop cannot resolve a confirmed ``serverOverloaded``
situation locally publishes a relocation request instead of escalating
straight to the administrator; the federation scores candidate hosts in
*other* domains with the existing server-selection controller and, if
one fits, moves an instance there through a two-phase escrow:

1. **prepare** — the requesting domain's fencing token is validated
   against its own guard (a deposed leader cannot export instances) and
   the target host re-checked for feasibility;
2. **commit** — the move runs through the requesting shard's executor,
   with an escrow barrier spliced into the platform's existing
   relocation commit barrier that re-validates the fencing token at the
   commit point (after the source instance detached, before the target
   takes over).  A leadership change mid-escrow aborts the move there;
   the platform's ordinary compensation restores the source instance —
   or queues it for self-healing if the source host died in flight.

Ownership follows the *home domain* rule: a service belongs to the
domain of its first initially allocated host for the whole run, even
after one of its instances is relocated onto another domain's server.

A landscape with zero or one declared domain never builds this class;
the runner keeps constructing the classic single controller, which
stays byte-for-byte identical to the pre-domain stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.config.model import Action, ControllerSettings
from repro.core.alerts import CommandQueue
from repro.core.autoglobe import AutoGlobeController
from repro.core.failover import ControllerSupervisor
from repro.core.server_selection import ServerSelector
from repro.core.state import DurableStateStore
from repro.monitoring.archive import InMemoryLoadArchive, LoadArchive
from repro.monitoring.lms import Situation, SituationKind
from repro.serviceglobe.actions import (
    ActionError,
    ActionOutcome,
    FencedActionError,
    NoSuchTarget,
)
from repro.serviceglobe.executor import ActionExecutor, ExecutionFaults
from repro.serviceglobe.platform import DomainView, Platform
from repro.telemetry.records import EscrowEvent, EscrowPhase

__all__ = ["DomainShard", "RelocationRequest", "FederatedControlPlane"]

DomainController = Union[AutoGlobeController, ControllerSupervisor]


@dataclass
class DomainShard:
    """One control domain's runtime: scoped view, controller, archive."""

    name: str
    view: DomainView
    controller: DomainController
    archive: LoadArchive

    @property
    def supervised(self) -> bool:
        return isinstance(self.controller, ControllerSupervisor)

    @property
    def executor(self) -> ActionExecutor:
        return self.controller.executor


@dataclass
class RelocationRequest:
    """One published cross-domain relocation request and its resolution."""

    time: int
    source_domain: str
    subject: str  # the overloaded host
    service_name: str = ""
    instance_id: str = ""
    target_domain: str = ""
    #: ``"moved"``, ``"fenced"``, or ``"unresolved"`` (no domain could help)
    status: str = "unresolved"


class _FederatedFailureDetector:
    """Routes heartbeat bookkeeping to the owning domain's detector.

    Instance ids are ``"<service>#<seq>"``, so the owning shard is the
    service's home domain.  ``forget`` fans out to every shard (it is an
    idempotent discard) because sweeps may race relocations.
    """

    def __init__(self, plane: "FederatedControlPlane") -> None:
        self._plane = plane

    @property
    def suppressed(self):
        combined = set()
        for shard in self._plane.shards.values():
            combined.update(shard.controller.failure_detector.suppressed)
        return combined

    def suppress(self, instance_id: str) -> None:
        shard = self._plane._shard_for_instance(instance_id)
        shard.controller.failure_detector.suppress(instance_id)

    def forget(self, instance_id: str) -> None:
        for shard in self._plane.shards.values():
            shard.controller.failure_detector.forget(instance_id)


class _FederatedApprovals:
    """Aggregated semi-automatic approval queue over every shard."""

    def __init__(self, plane: "FederatedControlPlane") -> None:
        self._plane = plane

    def _queues(self):
        return [s.controller.alerts.approvals for s in self._plane.shards.values()]

    def pending(self):
        return [request for queue in self._queues() for request in queue.pending()]

    def expired(self):
        return [request for queue in self._queues() for request in queue.expired()]

    @property
    def requests(self):
        return [request for queue in self._queues() for request in queue.requests]


class _FederatedAlerts:
    """Aggregated administrator channel over every shard."""

    def __init__(self, plane: "FederatedControlPlane") -> None:
        self._plane = plane

    @property
    def alerts(self):
        return [
            alert
            for shard in self._plane.shards.values()
            for alert in shard.controller.alerts.alerts
        ]

    def escalations(self):
        return [
            alert
            for shard in self._plane.shards.values()
            for alert in shard.controller.alerts.escalations()
        ]

    @property
    def approvals(self) -> _FederatedApprovals:
        return _FederatedApprovals(self._plane)


class FederatedControlPlane:
    """Ticks N per-domain controllers and arbitrates cross-domain moves.

    Parameters
    ----------
    platform:
        The shared substrate.  Its landscape must declare at least two
        control domains.
    settings / enabled:
        Forwarded to every domain controller.
    supervised:
        Put every domain controller behind its own
        :class:`~repro.core.failover.ControllerSupervisor` (leases and
        fencing tokens are then per-domain).
    state_dir:
        Durable-state root; each domain persists in the ``state.db`` of
        its own subdirectory (``<state_dir>/<domain>/``) so journals,
        snapshots, lease rows and load archives never mix.  ``None``
        keeps stores and archives in memory.
    standby:
        Hot-standby failover inside each domain (supervised only).
    execution_faults / chaos_seed:
        Chaos actuation profile: every shard executor gets its own
        deterministic RNG stream derived from ``chaos_seed`` and the
        shard's position, so federated chaos runs are reproducible.
    lease_ttl:
        Per-domain lease validity in simulated minutes (supervised only).
    """

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        enabled: bool = True,
        supervised: bool = False,
        state_dir: Optional[Path] = None,
        standby: bool = False,
        execution_faults: Optional[ExecutionFaults] = None,
        chaos_seed: Optional[int] = None,
        lease_ttl: Optional[int] = None,
    ) -> None:
        landscape = platform.landscape
        if not landscape.is_federated:
            raise ValueError(
                "a federated control plane needs at least two control "
                f"domains; landscape {landscape.name!r} declares "
                f"{len(landscape.domains)}"
            )
        self.platform = platform
        self.settings = settings if settings is not None else landscape.controller
        self._enabled = enabled
        self._supervised = supervised
        self._standby = standby
        self._execution_faults = execution_faults
        self._chaos_seed = chaos_seed
        #: host name -> owning domain
        self.host_domains: Dict[str, str] = {
            server: domain.name
            for domain in landscape.effective_domains()
            for server in domain.servers
        }
        #: service name -> home domain (first initial host's domain)
        self.service_homes: Dict[str, str] = landscape.service_domains()
        #: the federation's own server-selection controller, used to
        #: score foreign candidate hosts for relocation requests
        self.server_selector = ServerSelector()
        #: every published cross-domain relocation request, resolved or not
        self.relocation_requests: List[RelocationRequest] = []
        self._fault_cursor = 0
        # escrow ids must stay unique across kill-and-resume, so the
        # counter rides in snapshot_state alongside the fault cursor
        self._escrow_sequence = 0
        #: operator verdicts posted from outside the simulation thread;
        #: broadcast to every shard at the next tick
        self.commands = CommandQueue()
        self.shards: Dict[str, DomainShard] = {}
        homes_by_domain: Dict[str, List[str]] = {}
        for service_name, home in self.service_homes.items():
            homes_by_domain.setdefault(home, []).append(service_name)
        for index, domain in enumerate(landscape.effective_domains()):
            view = DomainView(
                platform,
                domain.name,
                host_names=domain.servers,
                service_names=homes_by_domain.get(domain.name, []),
            )
            archive: LoadArchive = InMemoryLoadArchive()
            handler = self._relocation_handler_for(domain.name)
            controller: DomainController
            if supervised:
                store = DurableStateStore(state_dir / domain.name if state_dir else None)
                if state_dir:
                    archive = store.archive
                controller = ControllerSupervisor(
                    view,
                    settings=self.settings,
                    archive=archive,
                    enabled=enabled,
                    store=store,
                    standby=standby,
                    executor_factory=self._executor_factory_for(view, index),
                    relocation_handler=handler,
                    **({"lease_ttl": lease_ttl} if lease_ttl is not None else {}),
                )
            else:
                controller = AutoGlobeController(
                    view,
                    settings=self.settings,
                    archive=archive,
                    enabled=enabled,
                    executor=self._make_executor(view, index, f"{domain.name}-exec", 0),
                    relocation_handler=handler,
                )
            self.shards[domain.name] = DomainShard(
                name=domain.name, view=view, controller=controller, archive=archive
            )

    # -- construction helpers --------------------------------------------------------

    def _make_executor(
        self, view: DomainView, index: int, name: str, replica_number: int
    ) -> ActionExecutor:
        faults = (
            self._execution_faults if self._execution_faults is not None
            else ExecutionFaults()
        )
        # distinct deterministic stream per (domain, replica): domains
        # spaced by 100 leave room for failover replicas in between
        seed = (
            self._chaos_seed + 1000 + 100 * index + replica_number
            if self._chaos_seed is not None
            else 0
        )
        return ActionExecutor(view, faults=faults, seed=seed, name=name)

    def _executor_factory_for(self, view: DomainView, index: int):
        def factory(name: str, replica_number: int) -> ActionExecutor:
            return self._make_executor(view, index, name, replica_number)

        return factory

    def _relocation_handler_for(self, domain_name: str):
        def handler(situation: Situation, now: int) -> Optional[ActionOutcome]:
            return self._handle_relocation(domain_name, situation, now)

        return handler

    # -- routing ----------------------------------------------------------------------

    def _shard_for_instance(self, instance_id: str) -> DomainShard:
        service_name = instance_id.split("#", 1)[0]
        home = self.service_homes.get(service_name)
        if home is None:
            raise NoSuchTarget(
                f"no control domain administers instance {instance_id!r}"
            )
        return self.shards[home]

    def _shard_for_host(self, host_name: str) -> DomainShard:
        domain = self.host_domains.get(host_name)
        if domain is None:
            raise NoSuchTarget(f"host {host_name!r} belongs to no control domain")
        return self.shards[domain]

    @property
    def _supervised_shards(self) -> List[DomainShard]:
        return [shard for shard in self.shards.values() if shard.supervised]

    # -- cross-domain relocation -------------------------------------------------------

    def _handle_relocation(
        self, domain_name: str, situation: Situation, now: int
    ) -> Optional[ActionOutcome]:
        """Resolve one domain's unresolvable overload with a foreign host.

        Called synchronously from the requesting domain's decision loop
        after every local remedy failed.  Returns the executed outcome,
        or ``None`` (the caller escalates to the administrator exactly
        as a single-domain controller would).
        """
        if situation.kind is not SituationKind.SERVER_OVERLOADED:
            return None
        shard = self.shards[domain_name]
        host = self.platform.hosts.get(situation.subject)
        if host is None or not host.up:
            return None
        request = RelocationRequest(
            time=now, source_domain=domain_name, subject=situation.subject
        )
        self.relocation_requests.append(request)
        # heaviest owned instance first: moving it sheds the most load
        movable = sorted(
            (
                instance
                for instance in host.running_instances
                if instance.service_name in shard.view.services
                and self.platform.service(instance.service_name)
                .spec.constraints.allows(Action.MOVE)
            ),
            key=lambda i: (-i.demand, i.instance_id),
        )
        for instance in movable:
            outcome = self._offer_elsewhere(shard, request, instance, now)
            if outcome is not None:
                return outcome
        return None

    def _foreign_candidates(self, source_domain: str, instance) -> List[Any]:
        """Feasible equal-index hosts in every *other* domain."""
        source_index = self.platform.host(instance.host_name).performance_index
        candidates = []
        for host_name, host in self.platform.hosts.items():
            if self.host_domains.get(host_name) == source_domain:
                continue
            if host.performance_index != source_index:
                continue  # move requires an equivalently powerful host
            if self.platform.can_host(instance.service_name, host_name) is None:
                candidates.append(host)
        return candidates

    def _offer_elsewhere(
        self,
        shard: DomainShard,
        request: RelocationRequest,
        instance,
        now: int,
    ) -> Optional[ActionOutcome]:
        candidates = self._foreign_candidates(shard.name, instance)
        if not candidates:
            return None
        request.service_name = instance.service_name
        request.instance_id = instance.instance_id
        for scored in self.server_selector.rank(
            self.platform, Action.MOVE, candidates
        ):
            if scored.score < self.settings.min_applicability:
                break
            target_domain = self.host_domains[scored.host_name]
            try:
                outcome = self._escrowed_move(
                    shard, instance, scored.host_name, target_domain, now
                )
            except FencedActionError:
                request.status = "fenced"
                return None  # a deposed leader must not keep trying
            except ActionError:
                continue
            request.target_domain = target_domain
            request.status = "moved"
            return outcome
        return None

    def _escrowed_move(
        self,
        shard: DomainShard,
        instance,
        target_host: str,
        target_domain: str,
        now: int,
    ) -> ActionOutcome:
        """Two-phase escrow around the platform's relocation machinery.

        Every phase transition publishes an
        :class:`~repro.telemetry.records.EscrowEvent` keyed by a unique
        escrow id; the temporal-invariant verifier (AG302) rebuilds the
        prepare → commit → attach happens-before chain from these.
        """
        executor = shard.executor
        token = executor.fencing_token
        self._escrow_sequence += 1
        escrow_id = f"escrow-{self._escrow_sequence:06d}"
        source_host = instance.host_name
        committed = False
        closed = False

        def publish(phase: EscrowPhase, note: str = "") -> None:
            self.platform.bus.publish(
                EscrowEvent(
                    time=now,
                    phase=phase,
                    escrow_id=escrow_id,
                    service_name=instance.service_name,
                    instance_id=instance.instance_id,
                    source_domain=shard.name,
                    target_domain=target_domain,
                    source_host=source_host,
                    target_host=target_host,
                    fencing_token=token,
                    note=note,
                )
            )

        def abort(note: str) -> None:
            nonlocal closed
            if not closed:
                closed = True
                publish(EscrowPhase.ABORT, note)

        # phase 1 (prepare): the exporting domain must still be led by
        # the controller that raised the request, and the import must be
        # physically feasible right now
        try:
            shard.view.fence.validate(token)
        except FencedActionError:
            abort("prepare fenced")
            raise
        reason = self.platform.can_host(instance.service_name, target_host)
        if reason is not None:
            abort(f"prepare infeasible: {reason}")
            raise ActionError(
                f"escrow prepare failed: {instance.service_name} on "
                f"{target_host}: {reason}"
            )
        publish(EscrowPhase.PREPARE)
        # phase 2 (commit): splice an escrow barrier into the existing
        # relocation commit barrier; it re-validates the exporting
        # domain's fencing token at the commit point, so a leadership
        # change mid-escrow aborts the move and the platform compensates
        previous = self.platform.move_fault_hook

        def escrow_barrier(moving, barrier_target: str) -> None:
            nonlocal committed
            if previous is not None:
                previous(moving, barrier_target)
            try:
                shard.view.fence.validate(token)
            except FencedActionError:
                abort("commit fenced")
                raise
            # published once even if chaos retries re-run the barrier:
            # the retries re-commit the *same* transfer
            if not committed:
                committed = True
                publish(EscrowPhase.COMMIT)

        self.platform.move_fault_hook = escrow_barrier
        try:
            outcome = executor.execute(
                Action.MOVE,
                instance.service_name,
                instance_id=instance.instance_id,
                target_host=target_host,
                note=(
                    f"cross-domain relocation {shard.name}->{target_domain}"
                ),
            )
        except ActionError as exc:
            abort(f"move failed: {exc}")
            raise
        finally:
            self.platform.move_fault_hook = previous
        if outcome.status == "ok":
            closed = True
            publish(EscrowPhase.ATTACH)
        else:
            abort(f"move {outcome.status}: {outcome.note}")
        return outcome

    # -- the per-minute cycle ----------------------------------------------------------

    def tick(self, now: int) -> List[ActionOutcome]:
        """Tick every domain controller in declaration order."""
        # operator verdicts are broadcast: request ids are domain-prefixed,
        # so exactly one shard owns each command and the rest skip it
        for command in self.commands.drain():
            for shard in self.shards.values():
                shard.controller.commands.post(command)
        outcomes: List[ActionOutcome] = []
        for shard in self.shards.values():
            outcomes.extend(shard.controller.tick(now))
        return outcomes

    # -- ControlPlane surface -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        for shard in self.shards.values():
            shard.controller.enabled = bool(value)

    @property
    def alerts(self) -> _FederatedAlerts:
        return _FederatedAlerts(self)

    @property
    def failure_detector(self) -> _FederatedFailureDetector:
        return _FederatedFailureDetector(self)

    @property
    def decision_records(self):
        return [
            record
            for shard in self.shards.values()
            for record in shard.controller.decision_records
        ]

    @property
    def situations_handled(self):
        return [
            situation
            for shard in self.shards.values()
            for situation in shard.controller.situations_handled
        ]

    @property
    def downtime_minutes(self) -> int:
        return sum(
            getattr(shard.controller, "downtime_minutes", 0)
            for shard in self.shards.values()
        )

    @property
    def events(self):
        """Merged (time, kind, detail, domain) supervision events of every shard."""
        merged = [
            (*event, shard.name)
            for shard in self._supervised_shards
            for event in shard.controller.events
        ]
        merged.sort(key=lambda event: event[0])
        return merged

    def report_failure(self, instance_id: str, now: int):
        return self._shard_for_instance(instance_id).controller.report_failure(
            instance_id, now
        )

    def degrade_monitoring(self, host_name: str, until: int) -> None:
        self._shard_for_host(host_name).controller.degrade_monitoring(
            host_name, until
        )

    # -- controller-fault hooks (round-robin across supervised domains) -----------------

    def fault_in_progress(self, now: int) -> bool:
        return any(
            shard.controller.fault_in_progress(now)
            for shard in self._supervised_shards
        )

    def crash_active(self, now: int, down_minutes: int) -> Optional[str]:
        """Crash one supervised domain's leader; returns the domain name."""
        shards = self._supervised_shards
        if not shards:
            return None
        shard = shards[self._fault_cursor % len(shards)]
        self._fault_cursor += 1
        shard.controller.crash_active(now, down_minutes)
        return shard.name

    def partition_active(self, now: int, minutes: int) -> Optional[str]:
        """Partition one supervised domain's leader; returns the domain name."""
        shards = self._supervised_shards
        if not shards:
            return None
        shard = shards[self._fault_cursor % len(shards)]
        self._fault_cursor += 1
        shard.controller.partition_active(now, minutes)
        return shard.name

    # -- durability (kill -9 and resume) -------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "fault_cursor": self._fault_cursor,
            "escrow_sequence": self._escrow_sequence,
            "domains": {
                name: shard.controller.snapshot_state()
                for name, shard in self.shards.items()
            },
        }

    def restore_state(self, payload: Dict[str, Any], now: int = 0) -> None:
        self._fault_cursor = int(payload.get("fault_cursor", 0))
        self._escrow_sequence = int(payload.get("escrow_sequence", 0))
        for name, shard_payload in payload.get("domains", {}).items():
            shard = self.shards.get(name)
            if shard is None or shard_payload is None:
                continue
            if shard.supervised:
                shard.controller.restore_state(shard_payload, now)
            else:
                shard.controller.restore_state(shard_payload)

    @property
    def stores(self) -> List[DurableStateStore]:
        """The supervised domains' state stores."""
        return [shard.controller.store for shard in self._supervised_shards]

    def close(self) -> None:
        """Close every domain's state store (idempotent)."""
        for store in self.stores:
            store.close()

    def reconcile(
        self, now: int, intents: Dict[str, Dict[str, Any]]
    ) -> List[ActionOutcome]:
        """Route leftover intents to the shard whose executor issued them.

        Intent ids are ``"<executor name>:<seq>"``; unroutable intents
        fall to the first shard, whose reconciliation resolves them
        against the shared platform state all shards see.
        """
        outcomes: List[ActionOutcome] = []
        by_shard: Dict[str, Dict[str, Dict[str, Any]]] = {}
        first = next(iter(self.shards))
        for intent_id, data in intents.items():
            owner = first
            executor_name = intent_id.rsplit(":", 1)[0]
            for name, shard in self.shards.items():
                if shard.executor.name == executor_name:
                    owner = name
                    break
            by_shard.setdefault(owner, {})[intent_id] = data
        for name, shard_intents in by_shard.items():
            outcomes.extend(self.shards[name].controller.reconcile(now, shard_intents))
        return outcomes
