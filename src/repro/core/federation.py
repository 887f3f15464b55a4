"""The control plane: control domains × replica sets over one landscape.

Every run's plane is a :class:`FederatedControlPlane`: an ordered set of
*control domains*, each one :class:`~repro.core.failover.ControllerSupervisor`
(a single unsupervised controller, or leased replicas with crash
recovery and failover).  A landscape with zero or one declared domain
is one domain named ``""`` over the
:class:`~repro.serviceglobe.platform.Platform` itself — the paper's one
controller per landscape (Figure 2).  A larger one is partitioned into
named shards of its servers (``<controlDomains>`` in the XML language),
each administered through a :class:`~repro.serviceglobe.platform.DomainView`
so situation detection, placement and archive writes never cross
shards, over one shared substrate (landscape state, dispatcher,
telemetry bus).  Whatever the runner, the fault injector and the ops
API read of the controllers' state is aggregated here, once, over
domains × replicas; their history (actions, faults, escalations) is on
the bus, where the run's result collector folds it.

Beyond ticking the domains in order, the plane arbitrates
**cross-domain relocation**.  A domain whose decision loop cannot
resolve a confirmed ``serverOverloaded`` situation publishes a
relocation request instead of escalating straight to the administrator;
the federation scores candidate hosts in *other* domains with the
existing server-selection controller and, if one fits, moves an
instance there through a two-phase escrow:

1. **prepare** — the requesting domain's fencing token is validated
   against its own guard (a deposed leader cannot export instances) and
   the target host re-checked for feasibility;
2. **commit** — the move runs through the requesting domain's executor,
   with an escrow barrier spliced into the platform's existing
   relocation commit barrier that re-validates the fencing token at the
   commit point (after the source instance detached, before the target
   takes over).  A leadership change mid-escrow aborts the move there;
   the platform's ordinary compensation restores the source instance —
   or queues it for self-healing if the source host died in flight.

Ownership follows the *home domain* rule: a service belongs to the
domain of its first initially allocated host for the whole run, even
after one of its instances is relocated onto another domain's server.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.config.model import Action, ControllerSettings
from repro.core.alerts import ApprovalRequest, CommandQueue
from repro.core.failover import ControllerSupervisor, replica_executors
from repro.core.server_selection import ServerSelector
from repro.core.state import DurableStateStore
from repro.monitoring.archive import LoadArchive
from repro.monitoring.lms import Situation, SituationKind
from repro.serviceglobe.actions import (
    ActionError,
    ActionOutcome,
    FencedActionError,
    NoSuchTarget,
)
from repro.serviceglobe.executor import ExecutionFaults
from repro.serviceglobe.platform import DomainView, Platform
from repro.telemetry.records import EscrowEvent, EscrowPhase

__all__ = ["RelocationRequest", "FederatedControlPlane"]


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


class FederatedControlPlane:
    """Ticks every domain's replica set and arbitrates cross-domain moves.

    Parameters
    ----------
    platform:
        The shared substrate.  With fewer than two declared control
        domains the plane is one domain, ``""``, over ``platform``
        itself, with no relocation handler and no federation selector.
    settings / enabled:
        Forwarded to every domain's replicas.
    stores:
        Domain name -> :class:`~repro.core.state.DurableStateStore` of
        the domains that run supervised (journal, snapshots, lease);
        a domain without one runs a single unsupervised replica.
    archives:
        Domain name -> load archive; a domain without one keeps its
        samples in memory.
    standby:
        Hot-standby failover inside each supervised domain.
    execution_faults / chaos_seed:
        Chaos actuation profile.  Every executor gets its own
        deterministic RNG stream: a flat unsupervised run's draws from
        ``chaos_seed`` itself, every other replica ``N`` of domain ``i``
        from ``chaos_seed + 1000 + 100 i + N`` (domains spaced by 100
        leave room for failover replicas in between).
    controller_factory:
        ``(platform, settings, enabled, store) -> ControllerSupervisor``
        building a domain's replica set instead (a domain agent's, the
        crisp baseline's).
    """

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        enabled: bool = True,
        stores: Optional[Dict[str, DurableStateStore]] = None,
        archives: Optional[Dict[str, Optional[LoadArchive]]] = None,
        standby: bool = False,
        execution_faults: Optional[ExecutionFaults] = None,
        chaos_seed: Optional[int] = None,
        controller_factory: Optional[Callable[..., ControllerSupervisor]] = None,
    ) -> None:
        landscape = platform.landscape
        stores = stores or {}
        archives = archives or {}
        self.platform = platform
        self.settings = settings if settings is not None else landscape.controller
        self._flat = not landscape.is_federated
        #: host name -> owning domain (control domains only)
        self.host_domains: Dict[str, str] = {}
        #: service name -> home domain (first initial host's domain)
        self.service_homes: Dict[str, str] = {}
        #: the federation's own server-selection controller, used to
        #: score foreign candidate hosts for relocation requests
        self.server_selector: Optional[ServerSelector] = None
        #: every published cross-domain relocation request, resolved or not
        self.relocation_requests: List[RelocationRequest] = []
        self._fault_cursor = 0
        # escrow ids must stay unique across kill-and-resume, so the
        # counter rides in snapshot_state alongside the fault cursor
        self._escrow_sequence = 0
        #: operator verdicts posted from outside the simulation thread;
        #: broadcast to every domain at the next tick
        self.commands = CommandQueue()
        #: domain name -> its replica set, whose ``platform`` is the
        #: domain's view (the Platform itself in a flat run)
        self.shards: Dict[str, ControllerSupervisor] = {}
        views: Dict[str, Platform] = {"": platform}
        if not self._flat:
            self.host_domains = {
                server: domain.name
                for domain in landscape.domains
                for server in domain.servers
            }
            self.service_homes = landscape.service_domains()
            self.server_selector = ServerSelector()
            homes_by_domain: Dict[str, List[str]] = {}
            for service_name, home in self.service_homes.items():
                homes_by_domain.setdefault(home, []).append(service_name)
            views = {
                domain.name: DomainView(
                    platform,
                    domain.name,
                    host_names=domain.servers,
                    service_names=homes_by_domain.get(domain.name, []),
                )
                for domain in landscape.domains
            }
        for index, (name, view) in enumerate(views.items()):
            store = stores.get(name)
            if controller_factory is not None:
                self.shards[name] = controller_factory(
                    view, self.settings, enabled, store
                )
                continue
            offset = 0 if self._flat and store is None else 1000 + 100 * index
            self.shards[name] = ControllerSupervisor(
                view,
                settings=self.settings,
                archive=archives.get(name),
                enabled=enabled,
                store=store,
                standby=standby,
                executor_factory=replica_executors(
                    view, execution_faults, (chaos_seed or 0) + offset
                ),
                relocation_handler=(
                    None if self._flat else partial(self._handle_relocation, name)
                ),
            )
        #: the supervised domains: the ones controller faults may hit
        self._supervised = [
            supervisor for supervisor in self.shards.values()
            if supervisor.store is not None
        ]

    # -- routing ----------------------------------------------------------------------

    def _shard_for_instance(self, instance_id: str) -> ControllerSupervisor:
        if self._flat:
            return self.shards[""]
        service_name = instance_id.split("#", 1)[0]
        home = self.service_homes.get(service_name)
        if home is None:
            raise NoSuchTarget(
                f"no control domain administers instance {instance_id!r}"
            )
        return self.shards[home]

    def _shard_for_host(self, host_name: str) -> ControllerSupervisor:
        if self._flat:
            return self.shards[""]
        domain = self.host_domains.get(host_name)
        if domain is None:
            raise NoSuchTarget(f"host {host_name!r} belongs to no control domain")
        return self.shards[domain]

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
                if instance.service_name in shard.platform.services
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
        shard: ControllerSupervisor,
        request: RelocationRequest,
        instance,
        now: int,
    ) -> Optional[ActionOutcome]:
        candidates = self._foreign_candidates(shard.domain, instance)
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
        shard: ControllerSupervisor,
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
        executor = shard.replicas[-1].executor
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
                    source_domain=shard.domain,
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
            shard.platform.fence.validate(token)
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
                shard.platform.fence.validate(token)
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
                    f"cross-domain relocation {shard.domain}->{target_domain}"
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
        """Tick every domain's replica set in declaration order."""
        # operator verdicts are broadcast: request ids are domain-prefixed,
        # so exactly one domain owns each command and the rest skip it
        for command in self.commands.drain():
            for supervisor in self.shards.values():
                supervisor.commands.post(command)
        outcomes: List[ActionOutcome] = []
        for supervisor in self.shards.values():
            outcomes.extend(supervisor.tick(now))
        return outcomes

    # -- aggregation over domains × replicas --------------------------------------------

    def _replicas(self) -> Iterator[Any]:
        """Every replica of every domain that ever existed, domain by domain."""
        for supervisor in self.shards.values():
            yield from supervisor.replicas

    def leaders(self) -> List[Any]:
        """The active replica of every domain that has one right now."""
        return [s.active for s in self.shards.values() if s.active is not None]

    @property
    def enabled(self) -> bool:
        """Whether some domain has a live leader that takes actions."""
        return any(supervisor.enabled for supervisor in self.shards.values())

    @enabled.setter
    def enabled(self, value: bool) -> None:
        for supervisor in self.shards.values():
            supervisor.enabled = value

    def approvals(self, status: Optional[str] = None) -> List[ApprovalRequest]:
        """Every semi-automatic approval request, or those of ``status``."""
        return [
            request
            for replica in self._replicas()
            for request in replica.alerts.approvals.requests
            if status is None or request.status == status
        ]

    @property
    def decision_records(self):
        return [record for replica in self._replicas() for record in replica.decision_records]

    @property
    def downtime_minutes(self) -> int:
        return sum(supervisor.downtime_minutes for supervisor in self.shards.values())

    # -- failure detection, routed to the owning domain ----------------------------------
    #
    # Instance ids are ``"<service>#<seq>"``, so the owning domain is the
    # service's home domain; the newest replica's detector holds its
    # bookkeeping, also while that replica is down.

    def suppressed(self) -> Set[str]:
        """Instances whose heartbeats are suppressed (hung), every domain's."""
        return {
            instance_id
            for supervisor in self.shards.values()
            for instance_id in supervisor.replicas[-1].failure_detector.suppressed
        }

    def suppress(self, instance_id: str) -> None:
        supervisor = self._shard_for_instance(instance_id)
        supervisor.replicas[-1].failure_detector.suppress(instance_id)

    def forget(self, instance_id: str) -> None:
        """Fans out to every domain (an idempotent discard): sweeps may
        race relocations."""
        for supervisor in self.shards.values():
            supervisor.replicas[-1].failure_detector.forget(instance_id)

    def report_failure(self, instance_id: str, now: int):
        return self._shard_for_instance(instance_id).report_failure(instance_id, now)

    def degrade_monitoring(self, host_name: str, until: int) -> None:
        self._shard_for_host(host_name).degrade_monitoring(host_name, until)

    # -- controller-fault hooks (round-robin across supervised domains) -----------------

    def fault_in_progress(self, now: int) -> bool:
        return any(supervisor.fault_in_progress(now) for supervisor in self._supervised)

    def _strike(self, fault) -> Optional[str]:
        """Apply ``fault`` to the next supervised domain, round-robin;
        returns the domain's name."""
        if not self._supervised:
            return None
        supervisor = self._supervised[self._fault_cursor % len(self._supervised)]
        self._fault_cursor += 1
        fault(supervisor)
        return supervisor.domain

    def crash_active(self, now: int, down_minutes: int) -> Optional[str]:
        """Crash one supervised domain's leader; returns the domain name."""
        return self._strike(lambda supervisor: supervisor.crash_active(now, down_minutes))

    def partition_active(self, now: int, minutes: int) -> Optional[str]:
        """Partition one supervised domain's leader; returns the domain name."""
        return self._strike(lambda supervisor: supervisor.partition_active(now, minutes))

    # -- durability (kill -9 and resume) -------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "fault_cursor": self._fault_cursor,
            "escrow_sequence": self._escrow_sequence,
            "domains": {
                name: supervisor.snapshot_state()
                for name, supervisor in self.shards.items()
            },
        }

    def restore_state(self, payload: Dict[str, Any], now: int = 0) -> None:
        """Rebuild every domain (and rewind its journal and archive)."""
        self._fault_cursor = int(payload["fault_cursor"])
        self._escrow_sequence = int(payload["escrow_sequence"])
        for name, supervisor in self.shards.items():
            supervisor.restore_state(payload["domains"][name], now)

    @property
    def stores(self) -> List[DurableStateStore]:
        """The supervised domains' state stores."""
        return [supervisor.store for supervisor in self._supervised]

    def close(self) -> None:
        """Close every domain (idempotent): an agent's deregisters there."""
        for supervisor in self.shards.values():
            supervisor.close()
