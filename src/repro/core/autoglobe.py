"""The AutoGlobe controller facade.

Wires together the full Figure 2 architecture for one platform:

* load monitors for every server and every service instance, read as
  columns of the landscape state each tick,
* advisors escalating threshold crossings, one vectorized comparison of
  those columns,
* the load monitoring system confirming real situations after watchTime,
* the two fuzzy controllers and the Figure 6 decision loop,
* protection mode, administrator alerts and the load archive,
* the self-healing path restarting crashed service instances.

Drive it by calling :meth:`AutoGlobeController.tick` once per simulated
minute after the workload model has updated instance demands.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

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
from repro.monitoring.archive import InMemoryLoadArchive, LoadArchive
from repro.monitoring.heartbeat import HeartbeatDetector
from repro.monitoring.lms import LoadMonitoringSystem, Situation, SituationKind
from repro.serviceglobe.actions import ActionError, ActionOutcome, NoSuchTarget
from repro.serviceglobe.executor import ActionExecutor
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import ServiceInstance
from repro.telemetry.records import LoadReportBatch

__all__ = ["AutoGlobeController"]

#: the overload and idle situations of a server and of a service instance
_SERVER_KINDS = (SituationKind.SERVER_OVERLOADED, SituationKind.SERVER_IDLE)
_SERVICE_KINDS = (SituationKind.SERVICE_OVERLOADED, SituationKind.SERVICE_IDLE)
#: a ``(subject, metric)`` archive series
SeriesKey = Tuple[str, str]
#: a tick's batch series and the host and instance entries it keeps
ReportLayout = Tuple[Tuple[SeriesKey, ...], np.ndarray, np.ndarray]


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
        self.lms.archive = self.archive
        self.lms.domain = self.domain
        self.protection = ProtectionRegistry(self.settings.protection_time)
        self.alerts = AlertChannel(
            platform.bus, confirm, approval_ttl=self.settings.approval_ttl
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
        #: situations handed to the decision loop or the self-healing
        #: path: how many, and the last ten (the ops ``/situations`` view)
        self.situations_handled = 0
        self.recent_situations: Deque[Situation] = deque(maxlen=10)
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
        #: revived in the next tick once their subjects are watched again
        self._pending_observation_restores: List[Dict[str, Any]] = []
        #: blind hosts -> a batch's layout; emptied whenever the monitor
        #: syncs run
        self._report_layouts: Dict[frozenset, ReportLayout] = {}
        #: set by :meth:`depose`: this replica's reports are dropped
        self._deposed = False
        #: every landscape host's idle threshold, by state id (an instance
        #: may run on a host outside this controller's domain)
        self._idle_by_host_id = np.empty(0, dtype=np.float64)
        #: the host monitor set, in platform order: cpu and mem series keys
        #: (built once, on one name string per host), state ids and idle
        #: thresholds; the host set of a platform is fixed
        self._host_cpu_keys: List[SeriesKey] = []
        self._host_mem_keys: List[SeriesKey] = []
        self._host_monitor_ids = np.empty(0, dtype=np.int64)
        self._host_idle = np.empty(0, dtype=np.float64)
        #: service-level load monitors ("service:<name>" archive subjects);
        #: their history backs the service load forecasts (Section 7)
        self._service_keys: Dict[str, SeriesKey] = {}
        self._service_monitor_ids = np.empty(0, dtype=np.int64)
        #: the instance monitor set, in live order: ``(instance id, host
        #: name)`` entries (an instance watches its *current* host, so a
        #: move replaces its entry), their cpu series keys, services, host
        #: state ids and idle thresholds
        self._instance_keys: List[Tuple[str, str]] = []
        self._instance_series: List[SeriesKey] = []
        self._instance_services: List[str] = []
        self._instance_host_ids = np.empty(0, dtype=np.int64)
        self._instance_idle = np.empty(0, dtype=np.float64)
        #: a restored snapshot's instance entries in the live order, placed
        #: first so a resumed run samples and reports in that order
        self._restored_instance_keys: List[Tuple[str, str]] = []
        #: landscape-state version cursors: the monitor-set scans run only
        #: when the corresponding counter moved since the last sync
        self._registry_cursor = -1
        self._topology_cursor = -1
        self._install_service_rule_overrides()
        self._sync_host_monitors()

    # -- setup ---------------------------------------------------------------------

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
        if not self._host_cpu_keys:
            # 12.5% over each host's performance index, below the
            # overload threshold
            overload = self.settings.overload_threshold
            idle = [
                self.settings.idle_threshold(host.performance_index)
                for host in state.host_objs
            ]
            for threshold in idle:
                if threshold >= overload:
                    raise ValueError(
                        f"idle threshold {threshold} must be below overload "
                        f"threshold {overload}"
                    )
            self._idle_by_host_id = np.array(idle, dtype=np.float64)
            hosts = list(self.platform.hosts.values())
            self._host_cpu_keys = [(host.name, "cpu") for host in hosts]
            self._host_mem_keys = [(host.name, "mem") for host in hosts]
            self._host_monitor_ids = np.fromiter(
                (state.host_index.ids[host.name] for host in hosts),
                dtype=np.int64,
                count=len(hosts),
            )
            self._host_idle = self._idle_by_host_id[self._host_monitor_ids]
        for service_name in self.platform.services:
            if service_name not in self._service_keys:
                # total demand, not average load: invariant under the
                # controller's own scale-outs, so daily patterns stay clean
                self._service_keys[service_name] = (f"service:{service_name}", "demand")
        self._registry_cursor = state.registry_version
        self._report_layouts.clear()
        self._service_monitor_ids = np.fromiter(
            (state.service_index.ids[name] for name in self._service_keys),
            dtype=np.int64,
            count=len(self._service_keys),
        )

    def _sync_instance_monitors(self) -> None:
        """Rebuild the instance monitor set after a topology change.

        An instance watches the CPU load of its *current* host (an
        instance suffers when its host saturates); its idle threshold
        depends on the host's performance index, so a move replaces the
        instance's entry.  Entries that survive keep their place, new
        ones follow in the restored snapshot's order, then in the
        platform's.  The rebuild runs only when the landscape's topology
        version moved — placement, running set and host health changes
        are exactly the events that can change the set.
        """
        state = self.platform.landscape_state
        if self._topology_cursor == state.topology_version:
            return
        self._topology_cursor = state.topology_version
        self._report_layouts.clear()
        running: Dict[Tuple[str, str], ServiceInstance] = {
            (instance.instance_id, instance.host_name): instance
            for instance in self.platform.all_instances()
        }
        keys = [
            key
            for key in dict.fromkeys(
                itertools.chain(
                    self._instance_keys, self._restored_instance_keys, running
                )
            )
            if key in running
        ]
        self._restored_instance_keys = []
        instances = [running[key] for key in keys]
        host_ids = state.host_index.ids
        self._instance_keys = keys
        self._instance_series = [
            (instance.instance_id, "cpu") for instance in instances
        ]
        self._instance_services = [instance.service_name for instance in instances]
        self._instance_host_ids = np.fromiter(
            (host_ids[host_name] for __, host_name in keys),
            dtype=np.int64,
            count=len(keys),
        )
        self._instance_idle = self._idle_by_host_id[self._instance_host_ids]

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
        samples and its instances' samples are left out of the report
        batch and the threshold pass.  The archive keeps the gap, and the
        coverage check in the LMS keeps the controller from mistaking it
        for zero load.
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

    def _report_layout(self, blind: set) -> ReportLayout:
        """This tick's batch series and the host and instance entries it
        keeps.

        The series lists every sample the sweep reports — hosts' cpu,
        hosts' mem, services, instances, each in monitor-set order, blind
        hosts' entries left out — which fixes the order of the batch and
        of the threshold pass's observations, and with it the seeded
        traces.  It is built once per monitor set and blind set, so the
        batches in between share it.
        """
        key = frozenset(blind)
        layout = self._report_layouts.get(key)
        if layout is None:
            hosts = [name not in blind for name, __ in self._host_cpu_keys]
            instances = [
                host_name not in blind for __, host_name in self._instance_keys
            ]
            series = tuple(
                list(itertools.compress(self._host_cpu_keys, hosts))
                + list(itertools.compress(self._host_mem_keys, hosts))
                + list(self._service_keys.values())
                + list(itertools.compress(self._instance_series, instances))
            )
            layout = self._report_layouts[key] = (
                series,
                np.array(hosts, dtype=bool),
                np.array(instances, dtype=bool),
            )
        return layout

    def _sample(
        self, now: int, layout: ReportLayout
    ) -> Tuple[np.ndarray, np.ndarray, Optional[LoadReportBatch]]:
        """One tick's monitor sweep off the columnar state.

        Each monitor family's values come from one vectorized column read
        (the columns are current: every write re-summed them); an
        instance monitor reports its *current* host's cpu load.  Returns
        the hosts' and the instances' cpu columns, and the tick's report
        batch — the same reads, blind hosts' entries left out, in the
        order of :meth:`_report_layout` — or ``None`` when nothing is
        monitored.
        """
        state = self.platform.landscape_state
        series, hosts, instances = layout
        host_cpu = state.host_cpu_values(self._host_monitor_ids)
        instance_cpu = state.host_cpu_values(self._instance_host_ids)
        if not series:
            return host_cpu, instance_cpu, None
        values = np.concatenate((
            host_cpu[hosts],
            state.host_mem_values(self._host_monitor_ids)[hosts],
            # service demand is aggregated from the registry's own state,
            # not shipped through per-host monitoring agents: always there
            state.service_demand_values(self._service_monitor_ids),
            instance_cpu[instances],
        ))
        return host_cpu, instance_cpu, LoadReportBatch(now, series, values, self.domain)

    def _inspect(
        self, now: int, layout: ReportLayout, host_cpu: np.ndarray,
        instance_cpu: np.ndarray,
    ) -> None:
        """The advisors: escalate this tick's threshold crossings.

        One comparison per monitor set finds the seen entries whose cpu
        load lies above the overload threshold or below their idle
        threshold; each opens an observation of its cpu series at the
        LMS (overload wins), host entries first, then instance entries,
        each in monitor-set order.  A blind host's entries are skipped: a
        report gap is not zero load.
        """
        __, hosts, instances = layout
        settings = self.settings
        overload = settings.overload_threshold
        for values, seen, idle, keys, services, kinds in (
            (
                host_cpu, hosts, self._host_idle, self._host_cpu_keys, None,
                _SERVER_KINDS,
            ),
            (
                instance_cpu, instances, self._instance_idle,
                self._instance_series, self._instance_services, _SERVICE_KINDS,
            ),
        ):
            crossed = np.flatnonzero(seen & ((values > overload) | (values < idle)))
            if not crossed.size:
                continue
            for index, value, idle_threshold in zip(
                crossed.tolist(), values[crossed].tolist(), idle[crossed].tolist()
            ):
                if value > overload:
                    kind, threshold = kinds[0], overload
                    watch_time = settings.overload_watch_time
                else:
                    kind, threshold = kinds[1], idle_threshold
                    watch_time = settings.idle_watch_time
                subject, metric = keys[index]
                self.lms.open_observation(
                    kind, subject, metric, threshold, now, watch_time,
                    None if services is None else services[index],
                )

    def tick(self, now: int) -> List[ActionOutcome]:
        """One controller cycle: sample, inspect, confirm, decide, act."""
        self.platform.current_time = now
        self._sync_host_monitors()
        self._sync_instance_monitors()
        if self._pending_observation_restores:
            self._restore_observations()
        blind = self._blind_hosts(now)
        layout = self._report_layout(blind)
        host_cpu, instance_cpu, batch = self._sample(now, layout)
        # one batch per tick: the archive holds this minute's reports
        # before any decision queries watch-time means
        if batch is not None and not self._deposed:
            self.archive.record_reports(batch)
            self.platform.bus.publish(batch)
        self._inspect(now, layout, host_cpu, instance_cpu)
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
            self._count_handled(situation)
            ranked = ranked_cache.get(id(situation))
            if ranked is None or state.mutation_version != cache_version:
                # the batch was computed against a landscape an earlier
                # remedy has since mutated: re-rank against fresh state
                ranked = self._rank_for_situation(situation, now)
            outcome = self.decision_loop.handle(situation, ranked, now)
            if outcome is not None:
                outcomes.append(outcome)
        if now % 60 == 0:
            self.protection.prune(now)
        return outcomes

    def _count_handled(self, situation: Situation) -> None:
        self.situations_handled += 1
        self.recent_situations.append(situation)

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
        self._count_handled(situation)
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
        return outcome

    def execute_manually(
        self,
        action: Action,
        service_name: str,
        instance_id: Optional[str] = None,
        target_host: Optional[str] = None,
        now: int = 0,
    ) -> ActionOutcome:
        """Execute by hand an action "that [is] normally triggered by the
        fuzzy controller" (Section 4.3).  The administrator outranks the
        allowed-actions policy, not the physical constraints; the
        involved subjects enter protection mode like after any other
        action.
        """
        outcome = self.platform.execute(
            action,
            service_name,
            instance_id=instance_id,
            target_host=target_host,
            enforce_allowed=False,
            note="manual execution via controller console",
        )
        self.decision_loop._protect_involved(outcome, now)
        self.alerts.info(now, f"manual action: {outcome}")
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

    def depose(self) -> None:
        """Cut a replica that lost leadership under a partition off the
        durable side: it keeps ticking blind until the partition heals,
        but reaches neither the journal nor the load archive, a table of
        the same file.  Its report batches are dropped, so the archive
        holds one leader's samples; its own LMS watches those."""
        self.attach_journal(None)
        self._deposed = True

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
            "instance_advisors": [list(key) for key in self._instance_keys],
        }
        payload.update(self.alerts.approvals.snapshot_state())
        return payload

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Merge a recovered snapshot payload into this controller.

        Every merge is idempotent (max-merge or upsert-by-key), so
        restoring the same payload twice — or a payload overlapping what
        this controller already knows — cannot change the result.
        Observations are revived lazily on the next tick, once their
        subjects are watched again; their watch windows are still in the
        load archive.
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
        self._restored_instance_keys = [
            (str(instance_id), str(host_name))
            for instance_id, host_name in payload.get("instance_advisors", [])
        ]
        self._pending_observation_restores.extend(
            payload.get("observations", [])
        )

    def _restore_observations(self) -> None:
        """Revive recovered watch-time observations of watched subjects."""
        descriptors = self._pending_observation_restores
        self._pending_observation_restores = []
        instances = {instance_id for instance_id, __ in self._instance_keys}
        for descriptor in descriptors:
            subject = str(descriptor["subject"])
            if SituationKind(str(descriptor["kind"])).is_server:
                watched = subject in self.platform.hosts
            else:
                watched = subject in instances
            if watched:  # else the host/instance died with the crash
                self.lms.restore_observation(descriptor)

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
