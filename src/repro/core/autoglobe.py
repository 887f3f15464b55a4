"""The AutoGlobe controller facade.

Wires together the full Figure 2 architecture for one platform:

* load monitors for every server and every service instance,
* advisors escalating threshold crossings,
* the load monitoring system confirming real situations after watchTime,
* the two fuzzy controllers and the Figure 6 decision loop,
* protection mode, administrator alerts and the load archive,
* the self-healing path restarting crashed service instances.

Drive it by calling :meth:`AutoGlobeController.tick` once per simulated
minute after the workload model has updated instance demands.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config.model import Action, ControllerSettings
from repro.core.action_selection import ActionContext, ActionSelector, RankedAction
from repro.core.alerts import (
    AlertChannel,
    ApprovalCommand,
    ApprovalRequest,
    CommandQueue,
    ConfirmationCallback,
)
from repro.core.constraints import verify_action
from repro.core.decision import DecisionLoop
from repro.core.protection import ProtectionRegistry
from repro.core.server_selection import ServerSelector
from repro.monitoring.advisor import Advisor, SubjectKind
from repro.monitoring.archive import ArchiveFlusher, InMemoryLoadArchive, LoadArchive
from repro.monitoring.heartbeat import HeartbeatDetector
from repro.monitoring.lms import LoadMonitoringSystem, Situation, SituationKind
from repro.monitoring.monitor import LoadMonitor
from repro.serviceglobe.actions import ActionError, ActionOutcome, NoSuchTarget
from repro.serviceglobe.executor import ActionExecutor
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import ServiceInstance
from repro.telemetry.records import LoadReportBatch

__all__ = ["AutoGlobeController"]


class AutoGlobeController:
    """Supervises one platform and remedies exceptional situations."""

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        archive: Optional[LoadArchive] = None,
        confirm: Optional[ConfirmationCallback] = None,
        enabled: bool = True,
        reservations=None,
        executor: Optional[ActionExecutor] = None,
        relocation_handler=None,
    ) -> None:
        #: the per-minute cycle runs off the platform's
        #: :class:`~repro.serviceglobe.landscape_state.LandscapeState`:
        #: monitor sets are re-synchronized only when a version counter
        #: moved, samples are computed as vectorized column reads, down
        #: hosts come from the cached down-id scan and open situations are
        #: ranked in one batched fuzzy evaluation
        self.platform = platform
        self.settings = settings if settings is not None else platform.landscape.controller
        self.archive = archive if archive is not None else InMemoryLoadArchive()
        self.enabled = enabled
        #: name of the control domain this controller administers; empty
        #: for the classic single-controller deployment (``platform`` is
        #: then the full :class:`~repro.serviceglobe.platform.Platform`,
        #: not a :class:`~repro.serviceglobe.platform.DomainView`)
        self.domain = getattr(platform, "domain_name", "")
        self.lms = LoadMonitoringSystem()
        self.lms.bus = platform.bus
        self.lms.domain = self.domain
        self.protection = ProtectionRegistry(self.settings.protection_time)
        self.alerts = AlertChannel(
            confirm, approval_ttl=self.settings.approval_ttl, bus=platform.bus
        )
        self.alerts.approvals.domain = self.domain
        #: operator verdicts posted from outside the simulation thread
        #: (the ops API); drained at the start of every enabled tick
        self.commands = CommandQueue()
        self.action_selector = ActionSelector()
        #: optional ReservationBook: reserved capacity steers host selection
        self.reservations = reservations
        self.server_selector = ServerSelector(reservations=reservations)
        #: every controller-issued action flows through this executor;
        #: the default is a transparent pass-through, chaos runs inject
        #: transient failures, latency and timeouts here
        self.executor = executor if executor is not None else ActionExecutor(platform)
        self.decision_loop = DecisionLoop(
            platform=platform,
            server_selector=self.server_selector,
            protection=self.protection,
            alerts=self.alerts,
            settings=self.settings,
            executor=self.executor,
            relocation_handler=relocation_handler,
        )
        self.situations_handled: List[Situation] = []
        #: heartbeat-based failure detection feeding the self-healing path
        self.failure_detector = HeartbeatDetector(platform)
        #: host name -> last minute (inclusive) its load reports are lost;
        #: fed by failure injection to model monitoring degradation
        self._monitor_outages: Dict[str, int] = {}
        #: service name -> preferred host for a restart that could not be
        #: executed yet (every eligible host down); retried each tick
        self._pending_restarts: Dict[str, str] = {}
        #: optional :class:`~repro.core.state.StateJournal` shared by the
        #: protection registry, LMS, approval queue and executor; set via
        #: :meth:`attach_journal`
        self.journal = None
        #: services ever seen with a running instance: the baseline the
        #: dead-service reconciliation compares against after a recovery
        #: (a service that never ran is not "dead", it just never started)
        self._seen_running: Set[str] = set()
        #: observation descriptors recovered from a snapshot/journal,
        #: revived in the next tick once their monitors exist again
        self._pending_observation_restores: List[Dict[str, Any]] = []
        #: one tick's load reports, flushed to the bus (and from there to
        #: the archive) in one batch after the sampling pass
        self._report_buffer: List[Tuple[str, str, int, float]] = []
        #: the bus->archive bridge; shared across replicas of the same
        #: archive so a standby taking over does not double-store batches
        self.archive_flusher = self._ensure_archive_flusher()
        self._host_cpu_monitors: Dict[str, LoadMonitor] = {}
        self._host_mem_monitors: Dict[str, LoadMonitor] = {}
        self._host_advisors: Dict[str, Advisor] = {}
        #: service-level load monitors ("service:<name>" archive subjects);
        #: their history backs the service load forecasts (Section 7)
        self._service_monitors: Dict[str, LoadMonitor] = {}
        #: (instance id, host name) -> advisor; recreated when the instance moves
        self._instance_advisors: Dict[Tuple[str, str], Advisor] = {}
        self._instance_monitors: Dict[str, LoadMonitor] = {}
        #: a restored snapshot's advisor keys in the live order, recreated
        #: first so a resumed run samples and reports in that order
        self._restored_advisor_keys: List[Tuple[str, str]] = []
        #: landscape-state version cursors: the monitor-set scans run only
        #: when the corresponding counter moved since the last sync
        self._registry_cursor = -1
        self._topology_cursor = -1
        #: state ids aligned with the host/service monitor dicts, the index
        #: vectors behind the batched per-tick column reads
        self._host_monitor_ids = np.empty(0, dtype=np.int64)
        self._service_monitor_ids = np.empty(0, dtype=np.int64)
        self._install_service_rule_overrides()
        self._sync_host_monitors()

    # -- setup ---------------------------------------------------------------------

    def _ensure_archive_flusher(self) -> ArchiveFlusher:
        """One flusher per (archive, bus) pair.

        Controller replicas (hot standby, post-crash recovery) share one
        archive and one platform bus; a second flusher on the same pair
        would store every published batch twice.
        """
        flusher = getattr(self.archive, "bus_flusher", None)
        if (
            flusher is None
            or flusher.bus is not self.platform.bus
            or flusher.archive is not self.archive
            or flusher.domain != self.domain
        ):
            flusher = ArchiveFlusher(self.archive, self.platform.bus, domain=self.domain)
            self.archive.bus_flusher = flusher
        return flusher

    def _install_service_rule_overrides(self) -> None:
        for service in self.platform.landscape.services:
            for trigger_name, rules_text in service.rule_overrides.items():
                kind = SituationKind(trigger_name)
                self.action_selector.register_service_rules(
                    service.name, kind, rules_text
                )

    def _sync_host_monitors(self) -> None:
        state = self.platform.landscape_state
        if self._registry_cursor == state.registry_version:
            return  # host set is fixed, service set unchanged since last sync
        for host in self.platform.hosts.values():
            if host.name in self._host_cpu_monitors:
                continue
            cpu_monitor = LoadMonitor(host.name, "cpu", archive=self.archive)
            cpu_monitor.report_sink = self._report_buffer
            mem_monitor = LoadMonitor(host.name, "mem", archive=self.archive)
            mem_monitor.report_sink = self._report_buffer
            self._host_cpu_monitors[host.name] = cpu_monitor
            self._host_mem_monitors[host.name] = mem_monitor
            self._host_advisors[host.name] = Advisor(
                cpu_monitor,
                SubjectKind.SERVER,
                self.lms,
                overload_threshold=self.settings.overload_threshold,
                idle_threshold=self.settings.idle_threshold(host.performance_index),
                overload_watch_time=self.settings.overload_watch_time,
                idle_watch_time=self.settings.idle_watch_time,
            )
        for service_name in self.platform.services:
            if service_name in self._service_monitors:
                continue
            # total demand, not average load: invariant under the
            # controller's own scale-outs, so daily patterns stay clean
            monitor = LoadMonitor(
                f"service:{service_name}", "demand", archive=self.archive
            )
            monitor.report_sink = self._report_buffer
            self._service_monitors[service_name] = monitor
        self._registry_cursor = state.registry_version
        self._host_monitor_ids = np.fromiter(
            (state.host_index.ids[name] for name in self._host_cpu_monitors),
            dtype=np.int64,
            count=len(self._host_cpu_monitors),
        )
        self._service_monitor_ids = np.fromiter(
            (state.service_index.ids[name] for name in self._service_monitors),
            dtype=np.int64,
            count=len(self._service_monitors),
        )

    def _sync_instance_monitors(self) -> None:
        """Create advisors for new instances, retire stale ones.

        An instance's advisor watches the CPU load of the instance's
        *current* host (an instance suffers when its host saturates); its
        idle threshold depends on the host's performance index, so moving
        an instance recreates its advisor.  The rebuild runs only when
        the landscape's topology version moved — placement, running set
        and host health changes are exactly the events that can
        invalidate the advisor set.
        """
        state = self.platform.landscape_state
        if self._topology_cursor == state.topology_version:
            return
        self._topology_cursor = state.topology_version
        running: Dict[str, ServiceInstance] = {
            instance.instance_id: instance
            for instance in self.platform.all_instances()
        }
        for key in list(self._instance_advisors):
            instance_id, host_name = key
            instance = running.get(instance_id)
            if instance is None or instance.host_name != host_name:
                self._instance_advisors.pop(key).detach()
                if instance is None:
                    self._instance_monitors.pop(instance_id, None)
        keys = self._restored_advisor_keys + [
            (instance.instance_id, instance.host_name) for instance in running.values()
        ]
        self._restored_advisor_keys = []
        for key in keys:
            if key in self._instance_advisors:
                continue
            instance = running.get(key[0])
            if instance is None or instance.host_name != key[1]:
                continue  # gone or moved since the snapshot
            monitor = self._instance_monitors.get(instance.instance_id)
            if monitor is None:
                monitor = LoadMonitor(
                    instance.instance_id, "cpu", archive=self.archive
                )
                monitor.report_sink = self._report_buffer
                self._instance_monitors[instance.instance_id] = monitor
            host = self.platform.host(instance.host_name)
            self._instance_advisors[key] = Advisor(
                monitor,
                SubjectKind.SERVICE_INSTANCE,
                self.lms,
                overload_threshold=self.settings.overload_threshold,
                idle_threshold=self.settings.idle_threshold(host.performance_index),
                overload_watch_time=self.settings.overload_watch_time,
                idle_watch_time=self.settings.idle_watch_time,
                service_name=instance.service_name,
            )

    # -- measurement contexts ------------------------------------------------------------

    def _watch_time_for(self, kind: SituationKind) -> int:
        if kind.is_overload:
            return self.settings.overload_watch_time
        return self.settings.idle_watch_time

    def _context_for_instance(
        self, instance: ServiceInstance, kind: SituationKind, now: int
    ) -> ActionContext:
        """Initialize the Table 1 variables for one instance.

        CPU load is the watch-time mean from the load archive ("All
        variables [...] regarding CPU or memory load are set to the
        arithmetic means of the load values during the service specific
        watchTime"); the remaining variables use current measurements and
        metadata.
        """
        host = self.platform.host(instance.host_name)
        watch = self._watch_time_for(kind)
        cpu_mean = self.archive.average(host.name, "cpu", now - watch + 1, now)
        if cpu_mean is None:
            cpu_mean = host.cpu_load
        service = self.platform.service(instance.service_name)
        measurements = {
            "cpuLoad": cpu_mean,
            "memLoad": self.platform.host_mem_load(host.name),
            "performanceIndex": host.performance_index,
            "instanceLoad": self.platform.instance_load(instance),
            "serviceLoad": self.platform.service_load(instance.service_name),
            "instancesOnServer": float(len(host.running_instances)),
            "instancesOfService": float(len(service.running_instances)),
        }
        return ActionContext(
            service_name=instance.service_name,
            instance_id=instance.instance_id,
            measurements=measurements,
        )

    def _rank_for_situation(
        self, situation: Situation, now: int
    ) -> List[RankedAction]:
        kind = situation.kind
        if kind.is_server:
            host = self.platform.host(situation.subject)
            contexts = [
                self._context_for_instance(instance, kind, now)
                for instance in host.running_instances
            ]
            return self.action_selector.rank_many(kind, contexts)
        instance = self.platform.instance(situation.subject)
        context = self._context_for_instance(instance, kind, now)
        return self.action_selector.rank(kind, context)

    def _speculative_rankings(
        self, situations: List[Situation], blind: set, now: int
    ) -> Tuple[Dict[int, List[RankedAction]], int]:
        """Batch-rank this tick's situations in one fuzzy evaluation.

        All situations that would survive the decision loop's cheap
        guards are ranked together through
        :meth:`ActionSelector.rank_situations`, keyed by ``id(situation)``
        and stamped with the landscape's mutation version.  The decision
        loop uses a cached ranking only while the version still matches —
        an executed remedy mutates the landscape and invalidates every
        ranking computed after it — so the speculation can never change
        behavior, only save work.  The guards themselves are monotone
        within a tick (protection is only added, blind hosts are fixed,
        vanished instances stay vanished), so a situation filtered out
        here is also skipped by the loop.
        """
        if len(situations) < 2:
            return {}, -1
        survivors = [
            situation
            for situation in situations
            if not (situation.kind.is_server and situation.subject in blind)
            and not self._instance_vanished(situation)
            and not self._situation_protected(situation, now)
        ]
        if len(survivors) < 2:
            return {}, -1
        entries = []
        for situation in survivors:
            kind = situation.kind
            if kind.is_server:
                host = self.platform.host(situation.subject)
                contexts = [
                    self._context_for_instance(instance, kind, now)
                    for instance in host.running_instances
                ]
                entries.append((kind, contexts, True))
            else:
                instance = self.platform.instance(situation.subject)
                contexts = [self._context_for_instance(instance, kind, now)]
                entries.append((kind, contexts, False))
        version = self.platform.landscape_state.mutation_version
        rankings = self.action_selector.rank_situations(entries)
        return {
            id(situation): ranked
            for situation, ranked in zip(survivors, rankings)
        }, version

    def _situation_protected(self, situation: Situation, now: int) -> bool:
        if self.protection.is_protected(situation.subject, now):
            return True
        if situation.kind.is_server:
            return False
        instance = self.platform.service(situation.service_name).find_instance(
            situation.subject
        )
        if instance is None:
            return True  # instance vanished since confirmation
        return self.protection.any_protected(
            [situation.service_name, instance.host_name], now
        )

    # -- monitoring degradation --------------------------------------------------------

    def degrade_monitoring(self, host_name: str, until: int) -> None:
        """Lose the host's load reports up to minute ``until`` (inclusive).

        Models a monitoring outage: the host keeps running, but its
        advisors see no fresh measurements.  The stale-data guards in
        :class:`~repro.monitoring.advisor.Advisor` and the coverage check
        in the LMS keep the controller from mistaking the gap for zero
        load.
        """
        current = self._monitor_outages.get(host_name, -1)
        self._monitor_outages[host_name] = max(current, until)

    def _down_host_names(self) -> List[str]:
        """Down hosts of this controller's platform, in substrate order.

        Reads the landscape state's cached down-id tuple (one identity
        check in the steady state) and filters it to the platform's host
        set — a :class:`DomainView` administers a subset of the global
        landscape.
        """
        state = self.platform.landscape_state
        names = state.host_index.names
        hosts = self.platform.hosts
        return [
            name
            for hid in state.down_host_ids()
            if (name := names[hid]) in hosts
        ]

    def _blind_hosts(self, now: int) -> set:
        """Hosts with no usable measurements this minute: down or in a
        monitoring outage."""
        blind = set(self._down_host_names())
        for name, until in list(self._monitor_outages.items()):
            if now <= until:
                blind.add(name)
            else:
                del self._monitor_outages[name]
        return blind

    # -- the per-minute cycle ------------------------------------------------------------

    def _sample(self, now: int, blind: set) -> None:
        """One tick's monitor sweep off the columnar state.

        Each monitor family's values come from one vectorized column read
        (the columns are current: every write re-summed them) and are pushed
        through :meth:`LoadMonitor.push`.  The loop order — cpu monitors,
        mem monitors, service monitors, instance monitors, each in dict
        insertion order — fixes the order of the report buffer and of the
        advisors' observations, and with it the seeded traces.
        """
        state = self.platform.landscape_state
        cpu_values = state.host_cpu_values(self._host_monitor_ids)
        mem_values = state.host_mem_values(self._host_monitor_ids)
        if blind:
            for (name, monitor), value in zip(
                self._host_cpu_monitors.items(), cpu_values
            ):
                if name in blind:
                    monitor.mark_dropped(now)
                else:
                    monitor.push(now, value)
            for (name, monitor), value in zip(
                self._host_mem_monitors.items(), mem_values
            ):
                if name in blind:
                    monitor.mark_dropped(now)
                else:
                    monitor.push(now, value)
        else:
            for monitor, value in zip(self._host_cpu_monitors.values(), cpu_values):
                monitor.push(now, value)
            for monitor, value in zip(self._host_mem_monitors.values(), mem_values):
                monitor.push(now, value)
        # service demand is aggregated from the registry's own state, not
        # shipped through per-host monitoring agents: always available
        for monitor, value in zip(
            self._service_monitors.values(),
            state.service_demand_values(self._service_monitor_ids),
        ):
            monitor.push(now, value)
        # an instance monitor reports its *current* host's cpu load; the
        # already-computed column read covers the monitored hosts, and a
        # foreign host (relocated instance in a domain view) falls back
        # to a cached scalar read
        cpu_by_name = dict(zip(self._host_cpu_monitors, cpu_values))
        host_ids = state.host_index.ids
        for (__, host_name), advisor in list(self._instance_advisors.items()):
            if host_name in blind:
                advisor.monitor.mark_dropped(now)
            else:
                value = cpu_by_name.get(host_name)
                if value is None:
                    value = state.host_cpu_load(host_ids[host_name])
                advisor.monitor.push(now, value)

    def tick(self, now: int) -> List[ActionOutcome]:
        """One controller cycle: sample, inspect, confirm, decide, act."""
        self.platform.current_time = now
        self._sync_host_monitors()
        self._sync_instance_monitors()
        if self._pending_observation_restores:
            self._restore_observations(now)
        blind = self._blind_hosts(now)
        self._sample(now, blind)
        # one batched flush per tick: the archive consumes this minute's
        # reports off the bus before any decision queries watch-time means
        if self._report_buffer:
            self.platform.bus.publish(
                LoadReportBatch(now, tuple(self._report_buffer), self.domain)
            )
            self._report_buffer.clear()
        for name, advisor in self._host_advisors.items():
            if name not in blind:
                advisor.inspect(now)
        for (__, host_name), advisor in self._instance_advisors.items():
            if host_name not in blind:
                advisor.inspect(now)
        # a crashed host voids its pending observations: whatever was
        # suspected before the crash cannot be confirmed against a host
        # that no longer exists in the landscape
        for name in self._down_host_names():
            self.lms.cancel_subject(name, now)
        outcomes: List[ActionOutcome] = []
        situations = self.lms.tick(now)
        if not self.enabled:
            return outcomes
        # operator verdicts first, then deferred executions, then expiry:
        # an approval and the TTL racing on the same tick resolves in the
        # administrator's favor
        for command in self.commands.drain():
            self._apply_command(command, now)
        for request in self.alerts.approvals.requests:
            if (
                request.status == "approved"
                and request.action
                and not request.executed
            ):
                outcome = self._execute_approved(request, now)
                if outcome is not None:
                    outcomes.append(outcome)
        for request in self.alerts.approvals.expire(now):
            self.alerts.warning(
                now, f"approval expired unanswered: {request.description}"
            )
        # self-healing first: a hung instance is worse than an overload
        for service_name in sorted(self._pending_restarts):
            outcome = self._retry_restart(service_name, now)
            if outcome is not None:
                outcomes.append(outcome)
        for orphan in self.platform.drain_orphans():
            outcome = self._heal(orphan.instance_id, now)
            if outcome is not None:
                outcomes.append(outcome)
        for failed_id in self.failure_detector.tick(now):
            outcome = self._heal(failed_id, now)
            self.failure_detector.forget(failed_id)
            if outcome is not None:
                outcomes.append(outcome)
        outcomes.extend(self._reconcile_dead_services(now))
        # handle service-level situations before server-level ones; the
        # protection entries of the first action suppress echoes
        situations.sort(key=lambda s: (s.kind.is_server, s.subject))
        ranked_cache, cache_version = self._speculative_rankings(
            situations, blind, now
        )
        state = self.platform.landscape_state
        for situation in situations:
            if situation.kind.is_server and situation.subject in blind:
                continue  # no trustworthy measurements behind it
            if self._instance_vanished(situation):
                continue
            if self._situation_protected(situation, now):
                continue
            self.situations_handled.append(situation)
            self.archive.store_event(
                now, "situation", situation.subject, str(situation)
            )
            ranked = ranked_cache.get(id(situation))
            if ranked is None or state.mutation_version != cache_version:
                # the batch was computed against a landscape an earlier
                # remedy has since mutated: re-rank against fresh state
                ranked = self._rank_for_situation(situation, now)
            outcome = self.decision_loop.handle(situation, ranked, now)
            if outcome is not None:
                outcomes.append(outcome)
                self.archive.store_event(
                    now, "action", outcome.service_name, str(outcome)
                )
        if now % 60 == 0:
            self.protection.prune(now)
        return outcomes

    def _instance_vanished(self, situation: Situation) -> bool:
        if situation.kind.is_server:
            return False
        instance = self.platform.service(situation.service_name).find_instance(
            situation.subject
        )
        return instance is None or not instance.running

    # -- self-healing -----------------------------------------------------------------

    def _heal(self, instance_id: str, now: int) -> Optional[ActionOutcome]:
        """Self-healing wrapper tolerant of racy bookkeeping.

        Under combined faults (a host crash sweeping away an instance
        the heartbeat detector was about to report) the instance may be
        unknown by the time healing runs; that is not an error, the
        instance's service was already handled by another path.
        """
        try:
            return self.report_failure(instance_id, now)
        except NoSuchTarget:
            self.failure_detector.forget(instance_id)
            return None

    def report_failure(self, instance_id: str, now: int) -> Optional[ActionOutcome]:
        """Handle a crashed instance: restart it (self-healing).

        The restart bypasses the declarative allowed-actions policy —
        recovering a failed service is always permitted — but respects
        physical constraints.  The original host is preferred; if it
        cannot take the instance back, the server-selection controller
        picks a replacement host.
        """
        instance = self.platform.instance(instance_id)
        service_before = self.platform.service(instance.service_name)
        users_before = service_before.total_users
        if instance.running:
            instance = self.platform.crash_instance(instance_id)
        # sessions that found no surviving peer reconnect after the restart
        dropped_users = users_before - service_before.total_users
        situation = Situation(
            kind=SituationKind.SERVICE_FAILED,
            subject=instance_id,
            service_name=instance.service_name,
            detected_at=now,
            observed_mean=0.0,
        )
        self.situations_handled.append(situation)
        outcome = self._start_somewhere(
            instance.service_name,
            preferred_host=instance.host_name,
            note=f"restart after failure of {instance_id}",
            now=now,
        )
        if outcome is not None:
            if dropped_users > 0:
                self.platform.dispatcher.place_users(
                    self.platform.service(instance.service_name).running_instances,
                    dropped_users,
                )
            return outcome
        # nowhere to restart right now (e.g. every eligible host down);
        # remember the service and keep retrying every tick until a host
        # returns — a crashed service must not stay dead forever
        self._register_pending_restart(
            instance.service_name, instance.host_name
        )
        self.alerts.escalate(
            now, f"could not restart {instance.service_name} after failure"
        )
        return None

    def _register_pending_restart(
        self, service_name: str, preferred_host: str
    ) -> None:
        if service_name in self._pending_restarts:
            return
        self._pending_restarts[service_name] = preferred_host
        if self.journal is not None:
            self.journal.append(
                "restart-pending",
                service_name=service_name,
                preferred_host=preferred_host,
            )

    def _clear_pending_restart(self, service_name: str) -> None:
        if self._pending_restarts.pop(service_name, None) is not None:
            if self.journal is not None:
                self.journal.append("restart-done", service_name=service_name)

    def _start_somewhere(
        self,
        service_name: str,
        preferred_host: Optional[str],
        note: str,
        now: int,
    ) -> Optional[ActionOutcome]:
        """Start one instance on the preferred host or any eligible one."""
        service = self.platform.service(service_name)
        action = Action.START if not service.running_instances else Action.SCALE_OUT
        ranking = self.server_selector.rank(
            self.platform,
            Action.SCALE_OUT,
            self.platform.eligible_hosts(service_name),
        )
        for host_name in itertools.chain(
            [preferred_host] if preferred_host else [],
            (ranked.host_name for ranked in ranking),
        ):
            try:
                outcome = self.executor.execute(
                    action,
                    service_name,
                    target_host=host_name,
                    enforce_allowed=False,
                    note=note,
                )
            except ActionError:
                continue
            self.alerts.warning(
                now, f"restarted {service_name} on {host_name} ({note})"
            )
            return outcome
        return None

    def _retry_restart(self, service_name: str, now: int) -> Optional[ActionOutcome]:
        """Retry a restart that previously found no live host."""
        preferred = self._pending_restarts[service_name]
        if self.platform.service(service_name).running_instances:
            # someone else brought the service back in the meantime
            self._clear_pending_restart(service_name)
            return None
        outcome = self._start_somewhere(
            service_name,
            preferred_host=preferred,
            note="deferred restart after failure",
            now=now,
        )
        if outcome is not None:
            self._clear_pending_restart(service_name)
        return outcome

    def _reconcile_dead_services(self, now: int) -> List[ActionOutcome]:
        """Restart services found dead with no pending failure event.

        After a controller crash the failure events that would normally
        trigger self-healing may be gone with the dead process: a service
        whose last instance died during the outage has no orphan record
        and no heartbeat history in the recovered detector.  This sweep
        compares the platform against the set of services ever seen
        running; a service that ran before, runs nothing now, was not
        deliberately stopped and has no restart pending is restarted.
        In steady state (no crash) the sweep is a no-op: ordinary
        failures are healed by the orphan and heartbeat paths in the
        same tick.
        """
        outcomes: List[ActionOutcome] = []
        state = self.platform.landscape_state
        service_ids = state.service_index.ids
        for service_name in sorted(self.platform.services):
            if state.service_running_count(service_ids[service_name]) > 0:
                self._seen_running.add(service_name)
                continue
            if (
                service_name not in self._seen_running
                or service_name in self._pending_restarts
                or service_name in self.platform.stopped_services
            ):
                continue
            outcome = self._start_somewhere(
                service_name,
                preferred_host=None,
                note="restart of service found dead after controller recovery",
                now=now,
            )
            if outcome is not None:
                outcomes.append(outcome)
            else:
                self._register_pending_restart(service_name, "")
                self.alerts.escalate(
                    now, f"could not restart dead service {service_name}"
                )
        return outcomes

    # -- live approvals (ops API) ---------------------------------------------------------

    def _apply_command(self, command: ApprovalCommand, now: int) -> None:
        """Answer one operator verdict posted over the ops API.

        Unknown request ids are skipped silently: the federated plane
        broadcasts every command to all domains and exactly one of them
        owns the request.  A verdict arriving after the request was
        answered or expired is acknowledged but changes nothing.
        """
        request = self.alerts.approvals.get(command.request_id)
        if request is None:
            return
        if not request.pending:
            self.alerts.info(
                now,
                f"ignored late verdict for {command.request_id} "
                f"(already {request.status})",
            )
            return
        self.alerts.approvals.answer(command.request_id, command.approve, now)
        verdict = "approved" if command.approve else "rejected"
        self.alerts.info(
            now,
            f"administrator {verdict} {command.request_id} over the ops API: "
            f"{request.description}",
        )

    def _execute_approved(
        self, request: ApprovalRequest, now: int
    ) -> Optional[ActionOutcome]:
        """Execute the deferred action of a late-approved request.

        Runs exactly once per approval: the executor journals the action
        intent with the approval id before the platform mutates, so a
        controller recovered mid-execution sees the request as executed
        (or reconciles the in-flight intent) instead of re-applying it.
        The landscape may have drifted since the request was raised, so
        the action is re-verified against current constraints first; a
        proposal the landscape outgrew is consumed without effect.
        """
        data = request.action or {}
        action = Action(str(data["action"]))
        service_name = str(data["service_name"])
        instance_id = data.get("instance_id")
        problem = verify_action(
            self.platform, action, service_name, instance_id
        )
        if problem is not None:
            request.executed = True
            self.alerts.warning(
                now,
                f"approved action no longer applicable ({problem}): "
                f"{request.description}",
            )
            return None
        try:
            outcome = self.executor.execute(
                action,
                service_name,
                instance_id=instance_id,
                target_host=data.get("target_host"),
                applicability=data.get("applicability"),
                note=f"approved by administrator ({request.request_id})",
                approval_id=request.request_id,
            )
        except ActionError as error:
            # one attempt per approval: a permanently failing action must
            # not be retried every tick (the intent is already resolved
            # as aborted in the journal)
            request.executed = True
            self.alerts.warning(
                now, f"approved action failed: {request.description}: {error}"
            )
            return None
        self.alerts.approvals.mark_executed(request.request_id, now)
        self.decision_loop._protect_involved(outcome, now)
        self.alerts.info(now, f"executed {outcome}")
        self.archive.store_event(now, "action", outcome.service_name, str(outcome))
        return outcome

    # -- durability & crash recovery -----------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Route this controller's soft state through a write-ahead journal.

        Protection grants, watch-time observation progress, approval
        requests/answers, pending restarts and the executor's two-phase
        action log are journalled as they happen; a recovered controller
        folds the journal back via
        :func:`repro.core.state.replay_journal`.
        """
        self.journal = journal
        self.protection.journal = journal
        self.lms.journal = journal
        self.alerts.approvals.journal = journal
        self.executor.journal = journal

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able controller soft state (one snapshot payload)."""
        payload: Dict[str, Any] = {
            "tick": self.platform.current_time,
            "protection": self.protection.snapshot_state(),
            "observations": self.lms.snapshot_state(),
            "pending_restarts": dict(self._pending_restarts),
            "monitor_outages": dict(self._monitor_outages),
            "heartbeat": self.failure_detector.snapshot_state(),
            "seen_running": sorted(self._seen_running),
            "instance_advisors": [list(key) for key in self._instance_advisors],
        }
        payload.update(self.alerts.approvals.snapshot_state())
        return payload

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Merge a recovered snapshot payload into this controller.

        Every merge is idempotent (max-merge or upsert-by-key), so
        restoring the same payload twice — or a payload overlapping what
        this controller already knows — cannot change the result.
        Observations are revived lazily on the next tick, once their
        monitors exist again; their watch windows are backfilled from
        the load archive.
        """
        self.protection.restore_state(payload.get("protection", {}))
        self.alerts.approvals.restore_state(
            payload.get("approvals", []),
            payload.get("approval_sequence", 0),
        )
        for service_name, preferred in payload.get(
            "pending_restarts", {}
        ).items():
            self._pending_restarts.setdefault(service_name, preferred)
        for host_name, until in payload.get("monitor_outages", {}).items():
            current = self._monitor_outages.get(host_name, -1)
            self._monitor_outages[host_name] = max(current, int(until))
        self.failure_detector.restore_state(payload.get("heartbeat", {}))
        self._seen_running.update(payload.get("seen_running", []))
        self._restored_advisor_keys = [
            (str(instance_id), str(host_name))
            for instance_id, host_name in payload.get("instance_advisors", [])
        ]
        self._pending_observation_restores.extend(
            payload.get("observations", [])
        )

    def _backfill_monitor(self, monitor: LoadMonitor, start: int, end: int) -> None:
        """Refill a fresh monitor's series from the archive's history."""
        latest = monitor.series.latest_time
        for time, value in self.archive.history(
            monitor.subject, monitor.metric, start, end
        ):
            if latest is not None and time <= latest:
                continue
            monitor.series.record(time, value)
            latest = time

    def _restore_observations(self, now: int) -> None:
        """Revive recovered watch-time observations around live monitors."""
        descriptors = self._pending_observation_restores
        self._pending_observation_restores = []
        for descriptor in descriptors:
            kind = SituationKind(str(descriptor["kind"]))
            subject = str(descriptor["subject"])
            if kind.is_server:
                monitor = self._host_cpu_monitors.get(subject)
            else:
                monitor = self._instance_monitors.get(subject)
            if monitor is None:
                continue  # the watched host/instance died with the crash
            self._backfill_monitor(
                monitor, int(descriptor["started_at"]), now - 1
            )
            self.lms.restore_observation(descriptor, monitor)

    def reconcile(
        self, now: int, intents: Dict[str, Dict[str, Any]]
    ) -> List[ActionOutcome]:
        """Resolve action intents a crashed leader left unresolved.

        Each intent was journalled before the platform mutated and has
        no commit record, so the platform itself is the only witness of
        whether the action took effect.  Every intent is resolved —
        completed, aborted or compensated — exactly once: resolving
        writes the missing ``action-commit`` record, so a second
        recovery pass finds nothing left to reconcile.
        """
        relocations = (Action.MOVE, Action.SCALE_UP, Action.SCALE_DOWN)
        outcomes: List[ActionOutcome] = []
        for intent_id in sorted(intents):
            data = intents[intent_id]
            action = Action(data["action"])
            service_name = data["service_name"]
            instance_id = data.get("instance_id")
            target_host = data.get("target_host")
            service = self.platform.service(service_name)
            instance = (
                service.find_instance(instance_id) if instance_id else None
            )
            running = instance is not None and instance.running
            if action in relocations and instance_id:
                if running and instance.host_name == target_host:
                    status = "ok"  # detached, re-attached, crash after
                elif running:
                    status = "aborted"  # never detached from the source
                else:
                    # detached from the source, never confirmed on the
                    # target: the instance is lost — restore it once
                    outcome = self._start_somewhere(
                        service_name,
                        preferred_host=target_host,
                        note=(
                            f"completing in-flight {action.value} "
                            f"({intent_id}) after controller crash"
                        ),
                        now=now,
                    )
                    if outcome is not None:
                        outcomes.append(outcome)
                    else:
                        self._register_pending_restart(
                            service_name, target_host or ""
                        )
                    status = "compensated"
            elif action in (Action.STOP, Action.SCALE_IN):
                status = "aborted" if running else "ok"
            else:
                # start-like actions are atomic on the platform: they
                # either fully happened or not at all
                on_target = any(
                    i.host_name == target_host
                    for i in service.running_instances
                ) if target_host else bool(service.running_instances)
                status = "ok" if on_target else "aborted"
            self.executor._journal_commit(intent_id, status)
            self.alerts.info(
                now,
                f"reconciled in-flight {action.value} {service_name} "
                f"({intent_id}): {status}",
            )
        return outcomes

    # -- introspection -------------------------------------------------------------------

    @property
    def decision_records(self):
        return self.decision_loop.records
