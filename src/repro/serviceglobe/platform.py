"""The ServiceGlobe federation: hosts + services + action execution.

:class:`Platform` owns the runtime state of one landscape: service hosts,
service definitions with their instances, the network fabric binding
virtual IPs, the registry and the dispatcher.  It executes the nine
management actions of Table 2 while enforcing the declarative constraints
(allowed actions, exclusivity, minimum performance index, instance
bounds, host memory).

The platform enforces *hard* constraints; soft concerns (protection mode,
watch times, applicability thresholds) belong to the controller.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

import numpy as np

from repro.config.model import (
    Action,
    LandscapeSpec,
    ServiceSpec,
    service_spec_from_dict,
    service_spec_to_dict,
)
from repro.config.validation import validate_landscape
from repro.serviceglobe.actions import (
    ActionError,
    ActionNotAllowed,
    ActionOutcome,
    ConstraintViolation,
    FencingGuard,
    NoSuchTarget,
    TransientActionFailure,
)
from repro.serviceglobe.code import CodeBundle, CodeRepository
from repro.serviceglobe.dispatcher import Dispatcher, UserDistribution
from repro.serviceglobe.host import ServiceHost
from repro.serviceglobe.landscape_state import HostIds, LandscapeState
from repro.serviceglobe.network import NetworkFabric
from repro.serviceglobe.registry import ServiceRegistry
from repro.serviceglobe.service import (
    InstanceState,
    ServiceDefinition,
    ServiceInstance,
)
from repro.telemetry.bus import EventBus
from repro.telemetry.records import ActionEvent

__all__ = ["Platform", "DomainView"]


class Platform:
    """Runtime platform for one landscape.

    Parameters
    ----------
    landscape:
        The validated landscape description.  The initial allocation is
        instantiated immediately.
    user_distribution:
        Session policy applied after structural actions:
        :attr:`UserDistribution.STICKY` leaves sessions where they are
        (constrained mobility); :attr:`UserDistribution.REDISTRIBUTE`
        rebalances all of a service's users equally after every
        instance-set change (full mobility).
    clock:
        Callable returning the current simulated minute, used to stamp
        audit records.
    """

    def __init__(
        self,
        landscape: LandscapeSpec,
        user_distribution: UserDistribution = UserDistribution.STICKY,
        clock: Optional[Callable[[], int]] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        validate_landscape(landscape)
        self.landscape = landscape
        self.user_distribution = user_distribution
        #: the platform's telemetry bus: every executed action outcome is
        #: published on the ``actions`` topic, and the controller stack
        #: (faults, supervision, situations, alerts, report batches)
        #: publishes its records through the same bus
        self.bus = bus if bus is not None else EventBus()
        #: Current simulated minute; advanced by whoever drives the platform.
        self.current_time = 0
        self._clock = clock if clock is not None else (lambda: self.current_time)
        self.fabric = NetworkFabric()
        self.registry = ServiceRegistry()
        #: the one store of the landscape's facts and their aggregates;
        #: hosts, services and instances are handles over its rows
        self.landscape_state = LandscapeState(landscape.servers)
        self.hosts: Dict[str, ServiceHost] = {
            host.name: host for host in self.landscape_state.host_objs
        }
        self.services: Dict[str, ServiceDefinition] = {}
        for spec in landscape.services:
            definition = self.landscape_state.add_service(spec)
            self.services[spec.name] = definition
            self.registry.register(definition)
        self.dispatcher = Dispatcher(
            host_load=lambda i: self.hosts[i.host_name].cpu_load,
            host_capacity=lambda i: self.hosts[i.host_name].cpu_capacity,
        )
        # mobile code: every service's bundle is published to the
        # federation's repository; hosts fetch it on their first start
        self.code_repository = CodeRepository()
        for spec in landscape.services:
            self.code_repository.publish(CodeBundle(spec.name, version=1))
        self.audit_log: List[ActionOutcome] = []
        #: Instances lost in flight: a relocation's source host died before
        #: the move could be rolled back.  The controller's self-healing
        #: path drains this list and restarts them elsewhere.
        self.orphans: List[ServiceInstance] = []
        #: Optional commit barrier for relocations, installed by the action
        #: executor: called after the source instance is detached and before
        #: the target takes over; raising :class:`TransientActionFailure`
        #: there models a failed target start and triggers compensation.
        self.move_fault_hook: Optional[Callable[[ServiceInstance, str], None]] = None
        #: Lease fencing: remembers the highest fencing token seen and
        #: rejects actions from deposed leaders (see
        #: :class:`~repro.serviceglobe.actions.FencingGuard`).
        self.fence = FencingGuard()
        #: Services stopped deliberately (the ``stop`` action).  The
        #: recovering controller's dead-service reconciliation must not
        #: "heal" a service an administrator or the controller itself
        #: shut down on purpose.
        self.stopped_services: Set[str] = set()
        # per-platform instance numbering keeps runs deterministic: ids
        # (and their tie-breaking order) never depend on other platforms
        self._instance_sequence = 0
        for service_name, host_name in landscape.initial_allocation:
            self._materialize_instance(service_name, host_name)

    # -- dynamic services (cross-domain adoption) ---------------------------------

    def adopt_service(self, spec) -> "ServiceDefinition":
        """Register a service that was not part of the built landscape.

        Multi-process federation: when a cross-domain escrow moves an
        instance into this domain, the receiving agent adopts the
        service's spec (shipped over the wire) so the platform can
        start, monitor and administer instances of it.  Idempotent — a
        retried escrow attach finds the service already registered.  The
        adopted spec is part of :meth:`snapshot_state`, so a
        killed-and-resumed agent rebuilds it before restoring instances.
        """
        existing = self.services.get(spec.name)
        if existing is not None:
            return existing
        definition = self.landscape_state.add_service(spec)
        self.services[spec.name] = definition
        self.registry.register(definition)
        self.code_repository.publish(CodeBundle(spec.name, version=1))
        return definition

    def _adopted_specs(self):
        declared = {spec.name for spec in self.landscape.services}
        return [
            definition.spec
            for name, definition in self.services.items()
            if name not in declared
        ]

    # -- lookups ------------------------------------------------------------------

    def host(self, name: str) -> ServiceHost:
        try:
            return self.hosts[name]
        except KeyError:
            raise NoSuchTarget(f"unknown host {name!r}") from None

    def service(self, name: str) -> ServiceDefinition:
        try:
            return self.services[name]
        except KeyError:
            raise NoSuchTarget(f"unknown service {name!r}") from None

    def instance(self, instance_id: str) -> ServiceInstance:
        # ids are generated as "<service>#<seq>", so the owning service is
        # almost always derivable without scanning the whole registry; the
        # full scan remains as a fallback for ids of any other shape
        service_name, separator, __ = instance_id.rpartition("#")
        if separator:
            definition = self.services.get(service_name)
            if definition is not None:
                found = definition.find_instance(instance_id)
                if found is not None:
                    return found
        for definition in self.services.values():
            found = definition.find_instance(instance_id)
            if found is not None:
                return found
        raise NoSuchTarget(f"unknown instance {instance_id!r}")

    def all_instances(self) -> List[ServiceInstance]:
        return [
            instance
            for definition in self.services.values()
            for instance in definition.running_instances
        ]

    def memory_of(self, service_name: str) -> int:
        return self.service(service_name).spec.workload.memory_per_instance_mb

    # -- feasibility ---------------------------------------------------------------

    def can_host(self, service_name: str, host_name: str) -> Optional[str]:
        """Why ``host_name`` cannot run another instance of ``service_name``,
        or ``None`` if it can.

        Checks minimum performance index, exclusivity (both directions)
        and memory.  Used both by action execution and by the
        server-selection controller to pre-filter candidates.
        """
        service = self.service(service_name)
        host = self.host(host_name)
        constraints = service.spec.constraints
        if not host.up:
            return "host is down"
        if host.performance_index < constraints.min_performance_index:
            return (
                f"performance index {host.performance_index} below required "
                f"{constraints.min_performance_index}"
            )
        others = [n for n in host.service_names if n != service_name]
        if constraints.exclusive and others:
            return f"service is exclusive but host runs {', '.join(others)}"
        for other_name in others:
            if self.service(other_name).spec.constraints.exclusive:
                return f"host is reserved exclusively for {other_name}"
        free = self.landscape_state.host_memory_free(host.state_id)
        needed = service.spec.workload.memory_per_instance_mb
        if needed > free:
            return f"needs {needed} MB but only {free} MB free"
        return None

    def eligible_hosts(self, service_name: str) -> HostIds:
        """All hosts that could physically run another instance now.

        The ``can_host`` conjunction is evaluated as one vectorized mask
        over the landscape state's columns instead of re-deriving memory
        sums and service rosters host by host.
        """
        return HostIds(self.landscape_state, self.eligible_ids(service_name))

    def eligible_ids(self, service_name: str) -> np.ndarray:
        """State ids of the eligible hosts in substrate order.

        The id array lets placement filters (performance-index
        relations, source exclusion) run as column operations without
        materializing host objects first.
        """
        mask = self.landscape_state.eligible_mask(self.service(service_name))
        return np.flatnonzero(mask)

    # -- primitive operations -----------------------------------------------------------

    def _materialize_instance(
        self, service_name: str, host_name: str
    ) -> ServiceInstance:
        """Create, attach and publish a new instance (no constraint checks).

        The host fetches the service's code bundle first (mobile code):
        on a cache miss the code travels, otherwise the cached bundle is
        reused.
        """
        self.service(service_name)  # NoSuchTarget for an unknown service
        host = self.host(host_name)
        self.code_repository.ensure_deployed(service_name, host_name, self._clock())
        ip = self.fabric.allocate()
        self._instance_sequence += 1
        instance = self.landscape_state.add_instance(
            service_name,
            host_name,
            ip,
            f"{service_name}#{self._instance_sequence:03d}",
            self._clock(),
        )
        self.fabric.bind(ip, host_name)
        host.attach(instance)
        self.registry.publish_instance(instance)
        return instance

    def _start_instance(self, service_name: str, host_name: str) -> ServiceInstance:
        service = self.service(service_name)
        constraints = service.spec.constraints
        running = len(service.running_instances)
        if constraints.max_instances is not None and running >= constraints.max_instances:
            raise ConstraintViolation(
                f"{service_name}: already at maximum of "
                f"{constraints.max_instances} instances"
            )
        reason = self.can_host(service_name, host_name)
        if reason is not None:
            raise ConstraintViolation(f"{service_name} on {host_name}: {reason}")
        return self._materialize_instance(service_name, host_name)

    def _stop_instance(self, instance: ServiceInstance, enforce_min: bool = True) -> None:
        service = self.service(instance.service_name)
        if not instance.running:
            raise ConstraintViolation(f"{instance} is not running")
        running = service.running_instances
        if enforce_min and len(running) - 1 < service.spec.constraints.min_instances:
            raise ConstraintViolation(
                f"{service.name}: stopping {instance.instance_id} would drop below "
                f"the minimum of {service.spec.constraints.min_instances} instances"
            )
        remaining = [i for i in running if i is not instance]
        self.dispatcher.displace_users(instance, remaining)
        instance.state = InstanceState.STOPPED
        instance.demand = 0.0
        self.host(instance.host_name).detach(instance)
        self.registry.withdraw_instance(instance)
        self.fabric.unbind(instance.virtual_ip)

    def _move_instance(self, instance: ServiceInstance, target_host: str) -> None:
        """Relocate an instance; its users and virtual IP follow.

        A relocation is a two-phase operation: the instance is detached
        from its source host first, then started on the target.  If the
        second phase fails — the target is found infeasible, or the
        executor's commit barrier injects a failed target start — the
        move is *compensated*: the source instance is restored.  When
        even that is impossible (the source host died while the instance
        was in flight) the instance is lost and queued on
        :attr:`orphans` for the self-healing path.
        """
        if not instance.running:
            raise ConstraintViolation(f"{instance} is not running")
        if instance.host_name == target_host:
            raise ConstraintViolation(f"{instance} already runs on {target_host}")
        source = self.host(instance.host_name)
        source.detach(instance)
        try:
            reason = self.can_host(instance.service_name, target_host)
            if reason is not None:
                raise ConstraintViolation(
                    f"{instance.service_name} on {target_host}: {reason}"
                )
            if self.move_fault_hook is not None:
                self.move_fault_hook(instance, target_host)
        except ActionError as error:
            restored = self._compensate_move(instance, source)
            if isinstance(error, TransientActionFailure):
                error.instance_id = instance.instance_id
                error.source_host = source.name
                error.target_host = target_host
                error.instance_lost = not restored
            raise
        # the target host needs the service's code before it can take over
        self.code_repository.ensure_deployed(
            instance.service_name, target_host, self._clock()
        )
        self.fabric.rebind(instance.virtual_ip, target_host)
        instance.host_name = target_host
        self.host(target_host).attach(instance)

    def _compensate_move(
        self, instance: ServiceInstance, source: ServiceHost
    ) -> bool:
        """Undo the first phase of a failed relocation.

        Returns ``True`` when the source instance was restored.  If the
        source host went down while the instance was in flight, the
        instance cannot go back: its users reconnect to surviving peers
        (or are dropped), its registration and IP are released, and it is
        queued on :attr:`orphans` so the controller can restart it on a
        healthy host.
        """
        if source.up:
            source.attach(instance)
            return True
        service = self.service(instance.service_name)
        remaining = [i for i in service.running_instances if i is not instance]
        self.dispatcher.displace_users(instance, remaining)
        instance.state = InstanceState.STOPPED
        instance.demand = 0.0
        self.registry.withdraw_instance(instance)
        self.fabric.unbind(instance.virtual_ip)
        self.orphans.append(instance)
        return False

    def drain_orphans(self) -> List[ServiceInstance]:
        """Hand over (and clear) the instances lost in half-completed moves."""
        orphans, self.orphans = self.orphans, []
        return orphans

    def crash_instance(self, instance_id: str) -> ServiceInstance:
        """Simulate a program crash: the instance dies without any
        constraint enforcement; its users reconnect to the surviving
        instances (or are dropped if none remain).  Used by failure
        injection; the controller's self-healing path restarts crashed
        services (Section 2: "Failure situations like a program crash are
        remedied for example with a restart")."""
        instance = self.instance(instance_id)
        if not instance.running:
            raise ConstraintViolation(f"{instance} is not running")
        self._stop_instance(instance, enforce_min=False)
        return instance

    # -- host-level faults -------------------------------------------------------------

    def crash_host(self, host_name: str) -> List[ServiceInstance]:
        """Simulate a host crash: every resident instance dies and the
        host's capacity leaves the landscape until :meth:`recover_host`.

        Users of the dead instances reconnect to surviving peers of
        their service (or are dropped when none remain).  Returns the
        victims so failure injection can report them to the controller's
        self-healing path.
        """
        host = self.host(host_name)
        if not host.up:
            raise ConstraintViolation(f"host {host_name} is already down")
        victims = list(host.running_instances)
        for instance in victims:
            self._stop_instance(instance, enforce_min=False)
        host.up = False
        return victims

    def recover_host(self, host_name: str) -> None:
        """The host finished rebooting; its capacity rejoins the landscape."""
        self.host(host_name).up = True

    def hosts_down(self) -> List[str]:
        """Names of hosts currently out of the landscape."""
        state = self.landscape_state
        names = state.host_index.names
        return sorted(names[hid] for hid in state.down_host_ids())

    # -- action execution ------------------------------------------------------------------

    def execute(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str] = None,
        target_host: Optional[str] = None,
        applicability: Optional[float] = None,
        enforce_allowed: bool = True,
        note: str = "",
        attempts: int = 1,
        duration: float = 0.0,
        fencing_token: Optional[int] = None,
        domain: str = "",
        audit_token: Optional[int] = None,
    ) -> ActionOutcome:
        """Execute one management action (Table 2).

        Raises :class:`ActionError` subclasses when the action is not
        permitted or not executable; on success appends an
        :class:`ActionOutcome` to :attr:`audit_log` and returns it.
        ``attempts``/``duration`` are stamped into the outcome by the
        failure-hardened executor when the action needed retries.
        ``fencing_token`` identifies the leadership epoch of the issuing
        controller; a stale token is rejected with
        :class:`FencedActionError` before anything happens.  ``domain``
        names the control domain that issued the action (empty in
        single-domain deployments); it only stamps the published
        :class:`~repro.telemetry.records.ActionEvent`.  ``audit_token``
        stamps the published event with a token that was *already*
        validated elsewhere (a domain view's per-domain fence) without
        re-checking it against this platform's global guard.
        """
        self.fence.validate(fencing_token)
        service = self.service(service_name)
        if enforce_allowed and not service.spec.constraints.allows(action):
            raise ActionNotAllowed(
                f"{service_name} does not support {action.value} "
                f"(declared constraints)"
            )
        handler = {
            Action.START: self._execute_start,
            Action.STOP: self._execute_stop,
            Action.SCALE_OUT: self._execute_scale_out,
            Action.SCALE_IN: self._execute_scale_in,
            Action.SCALE_UP: self._execute_scale_up,
            Action.SCALE_DOWN: self._execute_scale_down,
            Action.MOVE: self._execute_move,
            Action.INCREASE_PRIORITY: self._execute_increase_priority,
            Action.REDUCE_PRIORITY: self._execute_reduce_priority,
        }[action]
        outcome = handler(service, instance_id, target_host)
        outcome = ActionOutcome(
            time=outcome.time,
            action=outcome.action,
            service_name=outcome.service_name,
            instance_id=outcome.instance_id,
            source_host=outcome.source_host,
            target_host=outcome.target_host,
            applicability=applicability,
            note=note or outcome.note,
            attempts=attempts,
            duration=duration,
        )
        self.record_outcome(
            outcome,
            domain=domain,
            fencing_token=fencing_token if fencing_token is not None else audit_token,
        )
        return outcome

    def record_outcome(
        self,
        outcome: ActionOutcome,
        domain: str = "",
        fencing_token: Optional[int] = None,
    ) -> None:
        """Append one outcome to the audit log and publish it on the bus.

        The single entry point for recording executed actions: the audit
        log stays the durable source of truth (it rides in snapshots)
        while bus subscribers — the result collector, the console tail —
        observe the same record live.  ``fencing_token`` is the issuing
        leadership epoch, stamped on the published event for the
        temporal-invariant verifier.
        """
        self.audit_log.append(outcome)
        self.bus.publish(ActionEvent(outcome.time, outcome, domain, fencing_token))

    # Individual handlers.  Each returns a provisional ActionOutcome; the
    # applicability/note stamping happens in execute().

    def _require_target(self, target_host: Optional[str]) -> str:
        if target_host is None:
            raise ActionError("this action requires a target host")
        return target_host

    def _pick_instance(
        self, service: ServiceDefinition, instance_id: Optional[str]
    ) -> ServiceInstance:
        if instance_id is not None:
            instance = service.find_instance(instance_id)
            if instance is None:
                raise NoSuchTarget(
                    f"service {service.name!r} has no instance {instance_id!r}"
                )
            return instance
        running = service.running_instances
        if not running:
            raise ConstraintViolation(f"{service.name} has no running instances")
        # default: the instance on the most loaded host (the one in trouble)
        return max(
            running,
            key=lambda i: (self.hosts[i.host_name].cpu_load, i.instance_id),
        )

    def _rebalance(self, service: ServiceDefinition) -> None:
        if self.user_distribution is UserDistribution.REDISTRIBUTE:
            self.dispatcher.redistribute_equally(service.running_instances)

    def _execute_start(self, service, instance_id, target_host) -> ActionOutcome:
        target = self._require_target(target_host)
        if service.running_instances:
            raise ConstraintViolation(
                f"{service.name} is already running; use scaleOut to add instances"
            )
        instance = self._start_instance(service.name, target)
        self.stopped_services.discard(service.name)
        return ActionOutcome(
            self._clock(), Action.START, service.name, instance.instance_id,
            target_host=target,
        )

    def _execute_stop(self, service, instance_id, target_host) -> ActionOutcome:
        if service.spec.constraints.min_instances > 0:
            raise ConstraintViolation(
                f"{service.name} must keep at least "
                f"{service.spec.constraints.min_instances} instances running"
            )
        for instance in list(service.running_instances):
            self._stop_instance(instance, enforce_min=False)
        self.stopped_services.add(service.name)
        return ActionOutcome(self._clock(), Action.STOP, service.name)

    def _execute_scale_out(self, service, instance_id, target_host) -> ActionOutcome:
        target = self._require_target(target_host)
        if not service.running_instances:
            raise ConstraintViolation(f"{service.name} is stopped; use start")
        instance = self._start_instance(service.name, target)
        self._rebalance(service)
        return ActionOutcome(
            self._clock(), Action.SCALE_OUT, service.name, instance.instance_id,
            target_host=target,
        )

    def _execute_scale_in(self, service, instance_id, target_host) -> ActionOutcome:
        instance = self._pick_instance(service, instance_id)
        if len(service.running_instances) <= 1:
            raise ConstraintViolation(
                f"{service.name}: scale-in of the last instance is not allowed"
            )
        source = instance.host_name
        self._stop_instance(instance)
        self._rebalance(service)
        return ActionOutcome(
            self._clock(), Action.SCALE_IN, service.name, instance.instance_id,
            source_host=source,
        )

    def _relocate(self, action, service, instance_id, target_host, check) -> ActionOutcome:
        target = self._require_target(target_host)
        instance = self._pick_instance(service, instance_id)
        source = instance.host_name
        source_index = self.host(source).performance_index
        target_index = self.host(target).performance_index
        problem = check(source_index, target_index)
        if problem:
            raise ConstraintViolation(
                f"{action.value} {service.name} {source}->{target}: {problem}"
            )
        self._move_instance(instance, target)
        self._rebalance(service)
        return ActionOutcome(
            self._clock(), action, service.name, instance.instance_id,
            source_host=source, target_host=target,
        )

    def _execute_scale_up(self, service, instance_id, target_host) -> ActionOutcome:
        return self._relocate(
            Action.SCALE_UP, service, instance_id, target_host,
            lambda s, t: None if t > s else
            f"target index {t} not above source index {s}",
        )

    def _execute_scale_down(self, service, instance_id, target_host) -> ActionOutcome:
        return self._relocate(
            Action.SCALE_DOWN, service, instance_id, target_host,
            lambda s, t: None if t < s else
            f"target index {t} not below source index {s}",
        )

    def _execute_move(self, service, instance_id, target_host) -> ActionOutcome:
        return self._relocate(
            Action.MOVE, service, instance_id, target_host,
            lambda s, t: None if t == s else
            f"move requires an equivalently powerful host (indices {s} vs {t})",
        )

    def _execute_increase_priority(self, service, instance_id, target_host):
        service.adjust_priority(+1)
        return ActionOutcome(
            self._clock(), Action.INCREASE_PRIORITY, service.name,
            note=f"priority now {service.priority}",
        )

    def _execute_reduce_priority(self, service, instance_id, target_host):
        service.adjust_priority(-1)
        return ActionOutcome(
            self._clock(), Action.REDUCE_PRIORITY, service.name,
            note=f"priority now {service.priority}",
        )

    # -- durability ----------------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the full runtime state.

        Together with :meth:`restore_state` this backs kill-and-resume
        recovery: a resumed run continues from the snapshot minute with
        identical instances, sessions, demands, host health, priorities,
        orphans and audit history.
        """
        from repro.core.state import outcome_to_dict

        return {
            "current_time": self.current_time,
            "instance_sequence": self._instance_sequence,
            "fabric_next_suffix": self.fabric.next_suffix,
            "fence_token": self.fence.token,
            "priorities": {
                name: definition.priority
                for name, definition in self.services.items()
            },
            "stopped_services": sorted(self.stopped_services),
            "landscape": self.landscape_state.snapshot_columns(),
            "orphans": [orphan.state_id for orphan in self.orphans],
            "audit_log": [outcome_to_dict(o) for o in self.audit_log],
            "code": self.code_repository.snapshot_state(),
            "adopted_services": [
                service_spec_to_dict(spec) for spec in self._adopted_specs()
            ],
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Rebuild the runtime state from a :meth:`snapshot_state` payload.

        The landscape (specs, constraints, published code bundles) is
        construction-time state and stays as built; everything mutable —
        the landscape state's columns (instances, host health, members in
        attach order), bindings, registrations, priorities, orphans, audit
        log, fencing watermark — is replaced wholesale.
        """
        from repro.core.state import outcome_from_dict

        for raw_spec in payload.get("adopted_services", []):
            self.adopt_service(service_spec_from_dict(raw_spec))
        self.current_time = int(payload["current_time"])
        self._instance_sequence = int(payload["instance_sequence"])
        self.fence.token = int(payload.get("fence_token", 0))
        self.stopped_services = set(payload.get("stopped_services", []))
        self.landscape_state.restore_columns(payload["landscape"])
        self.fabric = NetworkFabric()
        self.fabric.reserve_through(int(payload["fabric_next_suffix"]))
        self.registry = ServiceRegistry()
        for name, definition in self.services.items():
            definition.priority = int(payload["priorities"][name])
            self.registry.register(definition)
            for instance in definition.running_instances:
                self.fabric.bind(instance.virtual_ip, instance.host_name)
                self.registry.publish_instance(instance)
        self.orphans = [self.landscape_state.instance_objs[row] for row in payload["orphans"]]
        self.audit_log = [
            outcome_from_dict(raw) for raw in payload.get("audit_log", [])
        ]
        self.code_repository.restore_state(payload.get("code", {}))

    # -- measurements (read by the monitoring framework) ---------------------------------

    def host_cpu_load(self, host_name: str) -> float:
        return self.host(host_name).cpu_load

    def host_mem_load(self, host_name: str) -> float:
        return self.landscape_state.host_mem_load(self.host(host_name).state_id)

    def instance_load(self, instance: ServiceInstance) -> float:
        """The instance's own demand relative to its host's capacity."""
        return min(instance.demand / self.host(instance.host_name).cpu_capacity, 1.0)

    def _service_id(self, service_name: str) -> int:
        try:
            return self.landscape_state.service_index.ids[service_name]
        except KeyError:
            raise NoSuchTarget(f"unknown service {service_name!r}") from None

    def service_load(self, service_name: str) -> float:
        """Average load of all instances of a service (Table 1)."""
        return self.landscape_state.service_load(self._service_id(service_name))

    def service_demand(self, service_name: str) -> float:
        """Total CPU demand of a service in performance-index units.

        Unlike :meth:`service_load`, the total demand is invariant under
        scale-out and relocation, which makes it the right quantity for
        the load-forecasting extension: the daily pattern of a service's
        demand is not polluted by the controller's own remedies.
        """
        return self.landscape_state.service_demand(self._service_id(service_name))

    def service_capacity(self, service_name: str) -> float:
        """Total performance index of the hosts running the service."""
        return self.landscape_state.service_capacity(self._service_id(service_name))


class DomainView:
    """One control domain's scoped view of a shared :class:`Platform`.

    The substrate (fabric, registry, dispatcher, code repository, audit
    log, telemetry bus) stays shared — there is still exactly one
    ServiceGlobe federation.  What the view scopes is *administration*:

    * :attr:`hosts` / :attr:`services` contain only the domain's servers
      and the services it administers (a service's home domain is the
      domain of its first initially allocated host), so a controller
      built on the view monitors and manages its shard only;
    * :meth:`eligible_hosts` filters placement candidates to domain
      hosts, keeping every controller-chosen remedy inside the shard;
    * the view carries its own :class:`FencingGuard`: leases and fencing
      tokens are per-domain, so a failover in one domain can never fence
      another domain's leader.

    Name lookups (:meth:`host`, :meth:`service`, :meth:`instance`) stay
    global: an instance relocated into the domain by the federation may
    reference a foreign source host, and measurements of a relocated
    instance must resolve its current (possibly foreign) host.

    Actions executed through the view are validated against the *view's*
    fence, then run on the substrate stamped with the domain's name.
    """

    def __init__(
        self,
        platform: Platform,
        name: str,
        host_names,
        service_names,
    ) -> None:
        if not name:
            raise ValueError("control domain view needs a non-empty name")
        self.platform = platform
        self.name = name
        #: marker the controller stack reads to stamp telemetry records
        self.domain_name = name
        wanted_hosts = set(host_names)
        unknown = wanted_hosts - set(platform.hosts)
        if unknown:
            raise NoSuchTarget(
                f"control domain {name!r}: unknown hosts {sorted(unknown)}"
            )
        wanted_services = set(service_names)
        foreign = wanted_services - set(platform.services)
        if foreign:
            raise NoSuchTarget(
                f"control domain {name!r}: unknown services {sorted(foreign)}"
            )
        # host/service definition objects are stable across
        # Platform.restore_state (it mutates them in place), so the
        # filtered dicts can be built once; substrate iteration order is
        # preserved for determinism
        self.hosts: Dict[str, ServiceHost] = {
            n: h for n, h in platform.hosts.items() if n in wanted_hosts
        }
        self.services: Dict[str, ServiceDefinition] = {
            n: s for n, s in platform.services.items() if n in wanted_services
        }
        # dense state ids of the domain's hosts (substrate order), used to
        # slice the shared columnar landscape state to this shard
        state = platform.landscape_state
        self._host_id_array = np.fromiter(
            (state.host_index.ids[n] for n in self.hosts),
            dtype=np.int64,
            count=len(self.hosts),
        )
        self.fence = FencingGuard()
        # pure delegations bind the substrate's methods directly: the
        # monitoring hot path calls these tens of thousands of times per
        # simulated hour, and an extra proxy frame per call is measurable
        # (lookups stay global: relocated instances may reference foreign
        # hosts)
        self.host = platform.host
        self.service = platform.service
        self.instance = platform.instance
        self.memory_of = platform.memory_of
        self.can_host = platform.can_host
        self.crash_instance = platform.crash_instance
        self.host_cpu_load = platform.host_cpu_load
        self.host_mem_load = platform.host_mem_load
        self.instance_load = platform.instance_load
        self.service_load = platform.service_load
        self.service_demand = platform.service_demand
        self.service_capacity = platform.service_capacity

    # -- shared substrate (objects the Platform may replace wholesale) ------------

    def __getattr__(self, name: str) -> Any:
        # landscape state, landscape, bus, audit log, fabric, registry,
        # dispatcher, code repository, stopped services, user
        # distribution: the platform's, read at every access
        return getattr(self.platform, name)

    @property
    def current_time(self) -> int:
        return self.platform.current_time

    @current_time.setter
    def current_time(self, value: int) -> None:
        self.platform.current_time = value

    @property
    def move_fault_hook(self):
        return self.platform.move_fault_hook

    @move_fault_hook.setter
    def move_fault_hook(self, hook) -> None:
        self.platform.move_fault_hook = hook

    def all_instances(self) -> List[ServiceInstance]:
        """Running instances of the domain's *own* services only."""
        return [
            instance
            for definition in self.services.values()
            for instance in definition.running_instances
        ]

    # -- feasibility (placement candidates stay inside the shard) ------------------

    def eligible_hosts(self, service_name: str) -> HostIds:
        return HostIds(self.platform.landscape_state, self.eligible_ids(service_name))

    def eligible_ids(self, service_name: str) -> np.ndarray:
        """Domain-scoped :meth:`Platform.eligible_ids` (substrate order)."""
        state = self.platform.landscape_state
        mask = state.eligible_mask(self.platform.service(service_name))
        ids = self._host_id_array
        return ids[mask[ids]]

    # -- faults and healing --------------------------------------------------------

    def drain_orphans(self) -> List[ServiceInstance]:
        """Take only the orphans of services this domain administers."""
        mine = [o for o in self.platform.orphans if o.service_name in self.services]
        if mine:
            self.platform.orphans = [
                o for o in self.platform.orphans if o.service_name not in self.services
            ]
        return mine

    def _own_host(self, host_name: str) -> str:
        if host_name not in self.hosts:
            raise NoSuchTarget(
                f"control domain {self.name!r} does not administer host {host_name}"
            )
        return host_name

    def crash_host(self, host_name: str) -> List[ServiceInstance]:
        """:meth:`Platform.crash_host` for a host of this domain."""
        return self.platform.crash_host(self._own_host(host_name))

    def recover_host(self, host_name: str) -> None:
        """:meth:`Platform.recover_host` for a host of this domain."""
        self.platform.recover_host(self._own_host(host_name))

    def hosts_down(self) -> List[str]:
        """Domain hosts currently out of the landscape."""
        state = self.platform.landscape_state
        ids = self._host_id_array
        down = ids[~state.host_up[ids]]
        names = state.host_index.names
        return sorted(names[i] for i in down)

    # -- action execution ----------------------------------------------------------

    def execute(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str] = None,
        target_host: Optional[str] = None,
        applicability: Optional[float] = None,
        enforce_allowed: bool = True,
        note: str = "",
        attempts: int = 1,
        duration: float = 0.0,
        fencing_token: Optional[int] = None,
        domain: str = "",
    ) -> ActionOutcome:
        """Execute on the substrate under the *domain's* fence.

        The caller's fencing token is checked against this view's guard
        (leadership epochs are per-domain); the substrate call then runs
        unfenced and the published action event carries the domain name.
        """
        self.fence.validate(fencing_token)
        return self.platform.execute(
            action,
            service_name,
            instance_id=instance_id,
            target_host=target_host,
            applicability=applicability,
            enforce_allowed=enforce_allowed,
            note=note,
            attempts=attempts,
            duration=duration,
            fencing_token=None,
            domain=self.name,
            audit_token=fencing_token,
        )

    def record_outcome(
        self,
        outcome: ActionOutcome,
        domain: str = "",
        fencing_token: Optional[int] = None,
    ) -> None:
        self.platform.record_outcome(
            outcome, domain=domain or self.name, fencing_token=fencing_token
        )
