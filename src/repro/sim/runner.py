"""The simulation runner: platform + workload + controller, minute by minute.

"Every simulation starts with the same reasonable initial allocation of
the services shown in Figure 11" and runs for 80 simulated hours with
the Section 5.1 controller parameters (70% overload threshold, 10 minute
watch time, 30 minute protection, idle threshold 12.5% / performance
index, 20 minute idle watch).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Optional, Set, Tuple, Union

from repro.config.model import ControllerSettings, LandscapeSpec
from repro.core.autoglobe import AutoGlobeController
from repro.serviceglobe.executor import ActionExecutor, ExecutionFaults
from repro.serviceglobe.platform import Platform
from repro.sim.clock import PAPER_HORIZON_MINUTES
from repro.sim.faults import FaultInjector, FaultRecord
from repro.sim.results import (
    ResultCollector,
    SimulationResult,
    SlaPolicy,
    expired_approvals_by_service,
)
from repro.sim.scenarios import (
    ChaosProfile,
    Scenario,
    apply_scenario,
    controller_enabled_for,
    user_distribution_for,
)
from repro.sim.workload import NoiseParameters, WorkloadModel
from repro.telemetry.records import (
    TOPIC_SUPERVISION,
    SupervisionEvent,
    SupervisionEventKind,
)

__all__ = [
    "SimulationRunner",
    "execution_faults",
    "make_executor_factory",
    "merged_fault_records",
    "approval_counts",
]


def execution_faults(chaos: ChaosProfile) -> ExecutionFaults:
    """The executor's fault mix of a chaos profile."""
    return ExecutionFaults(
        failure_probability=chaos.action_failure_probability,
        commit_failure_probability=chaos.commit_failure_probability,
        latency_means=dict(chaos.action_latency_means),
        latency_jitter=chaos.action_latency_jitter,
    )


def make_executor_factory(platform, chaos: Optional[ChaosProfile]):
    """Per-replica executor builder for a supervised controller.

    Each controller replica gets its own executor — a shared one would
    carry the new leader's fencing token on behalf of a deposed leader,
    defeating fencing — with a seed derived from the replica number so
    fault draws stay deterministic across failovers.  ``platform`` is
    the runner's platform or a domain agent's view of its own.
    """

    def build(name: str, replica_number: int) -> ActionExecutor:
        if chaos is None:
            return ActionExecutor(platform, name=name)
        return ActionExecutor(
            platform,
            faults=execution_faults(chaos),
            seed=chaos.seed + 1000 + replica_number,
            name=name,
        )

    return build


def merged_fault_records(injector: Optional[FaultInjector], supervision_events):
    """The injector's fault records plus the supervision events that
    count as faults (crash/partition records come from the injector
    itself; the kind's own verdict decides what the merge adds)."""
    records = list(injector.faults) if injector is not None else []
    for event in supervision_events:
        if event.kind.creates_fault_record:
            records.append(
                FaultRecord(
                    event.time, "", "", "", event.kind.value,
                    getattr(event, "domain", ""),
                )
            )
    records.sort(key=lambda record: record.time)
    return records or None


def approval_counts(alerts):
    """The approval-queue counters of a run result."""
    queue = getattr(alerts, "approvals", None)
    if queue is None:
        return {"expired_approval_count": 0, "pending_approval_count": 0}
    return {
        "expired_approval_count": len(queue.expired()),
        "pending_approval_count": len(queue.pending()),
        "expired_approvals_by_service": expired_approvals_by_service(queue),
    }


class SimulationRunner:
    """Configures and runs one simulation series entry.

    Parameters
    ----------
    scenario:
        STATIC, CONSTRAINED_MOBILITY or FULL_MOBILITY.
    user_factor:
        Relative user population (1.0 = the Table 4 reference; the
        paper's summary sweeps 1.00, 1.05, 1.10, ...).
    horizon:
        Simulated minutes; defaults to the paper's 80 hours.
    seed:
        Workload RNG seed; runs are deterministic given a seed.
    start_minute:
        Absolute minute of day the run starts at; the paper's plots
        begin at 12:00, so noon is the default.
    landscape:
        Base landscape; defaults to the built-in Section 5.1 landscape.
    collect_host_series:
        Keep the full per-host load series (Figures 12-14).
    collect_services:
        Service names whose per-instance load samples to keep
        (Figures 15-17 use FI).
    controller_settings:
        Override the landscape's controller parameters (used by the
        watch-time and protection ablation benchmarks).
    controller_factory:
        Alternative control-plane constructor ``(platform, settings,
        enabled) -> controller`` with a ``tick(now)`` method and an
        ``alerts`` channel; used to swap in the crisp baseline.  With
        ``state_dir`` it also receives the run's
        :class:`~repro.core.state.DurableStateStore` and must return a
        plane that snapshots and restores like a
        :class:`~repro.core.failover.ControllerSupervisor`; a ``close()``
        the plane has is called when the run ends, before the stores
        close and the result is finalized (a domain agent deregisters
        there).  Refused with ``standby``, controller-fault chaos and
        control domains.
    archive:
        Load archive for the controller's monitors; pass a
        :class:`repro.monitoring.archive.SqliteLoadArchive` to persist
        the run's measurements and administration events.
    lint:
        Static-analysis gate run on the scenario landscape before the
        platform is built (see :mod:`repro.analysis`).  ``"warn"`` (the
        default) raises :class:`repro.analysis.LintError` on
        error-severity findings and keeps warnings in
        :attr:`lint_report`; ``"strict"`` raises on warnings too;
        ``"off"`` skips the analysis entirely.
    chaos:
        Optional :class:`~repro.sim.scenarios.ChaosProfile`.  When set,
        a :class:`~repro.sim.faults.FaultInjector` injures instances,
        hosts and the monitoring plane every minute, and controller
        actions run through a fault-injecting
        :class:`~repro.serviceglobe.executor.ActionExecutor` (flaky
        actions, latency, compensation).  The run stays deterministic
        under the profile's seed.  A profile with controller faults
        additionally requires the supervised controller (see below).
    state_dir:
        Directory for durable run state.  Enables the supervised
        controller (or hands the store to ``controller_factory``) with
        an on-disk :class:`~repro.core.state.DurableStateStore`:
        journal, snapshots, lease and load archive are tables of
        ``state_dir/state.db`` (so ``archive`` cannot be passed as
        well).  Periodic full-run snapshots are written every
        ``snapshot_interval`` minutes, and where :meth:`request_stop`
        ends the run, so a killed or stopped run can be resumed.
        Without ``resume`` the directory must not hold an earlier run;
        that is checked before anything is built on the file.
    resume:
        Continue a previous run from the last full-run snapshot in
        ``state_dir`` instead of starting fresh.  The re-simulation is
        deterministic: platform, workload RNG, fault injector, collector
        and controller all restore their exact state.
    standby:
        Keep a hot-standby controller: crashes and leader partitions
        fail over at lease expiry instead of waiting out a restart.
        Implies the supervised controller (in-memory state store unless
        ``state_dir`` is also given).
    snapshot_interval:
        Minutes between full-run snapshots when ``state_dir`` is set.
    kill_at:
        Absolute minute at which the process kills itself with SIGKILL
        right after the tick completes — the crash-recovery smoke test's
        hook.  Requires ``state_dir``.
    verify:
        Attach the AG3xx temporal-invariant verifier
        (:class:`repro.analysis.verify.TraceVerifier`) to the telemetry
        bus as a sanitizer: every published event is checked live, and
        :meth:`verification_report` returns the findings after the run.
    store_path:
        Persist every telemetry envelope to a SQLite event store
        (:class:`repro.ops.store.TelemetryStore`) at this path; batches
        commit at the first tick boundary 0.25 s of wall time after the
        last one (every tick of a paced run), served or not.
        ``autoglobe verify`` and ``autoglobe tail`` read the store
        directly.  The store is an output: a run replaces what an
        earlier run left at the path, and only a resumed run
        (``resume=True``) continues it, gaplessly, from the snapshot's
        sequence.
    serve:
        ``(host, port)`` to expose the live ops API
        (:class:`repro.ops.api.OpsServer`) for the duration of the run:
        landscape/situation/approval snapshots of the last tick
        boundary over HTTP (answered at once, also mid-tick), an
        ``/events`` WebSocket that costs nothing until someone
        subscribes and is drained before the server stops, and POST
        approve/reject verdicts routed into the controller's command
        queue at tick boundaries.  Port 0 binds an ephemeral port (see
        ``runner.ops_server.port``).  Serving is
        read-only with respect to the simulation — a served run is
        byte-identical to an unserved one unless verdicts are posted.
    pace:
        Real seconds to sleep after each simulated minute; gives humans
        (and the CI smoke job) time to interact with a served run.
        ``0.0`` (the default) runs as fast as possible.
    semi_automatic:
        Run the controller in the paper's semi-automatic mode: actions
        require administrator approval (over the ops API or the alert
        channel callback) before execution.  Shorthand for overriding
        ``controller_settings.mode``.
    """

    def __init__(
        self,
        scenario: Scenario,
        user_factor: float = 1.0,
        horizon: int = PAPER_HORIZON_MINUTES,
        seed: int = 7,
        landscape: Optional[LandscapeSpec] = None,
        sla: Optional[SlaPolicy] = None,
        noise: Optional[NoiseParameters] = None,
        collect_host_series: bool = True,
        collect_services: Optional[Set[str]] = None,
        controller_enabled: Optional[bool] = None,
        start_minute: int = 12 * 60,
        controller_settings: Optional[ControllerSettings] = None,
        controller_factory: Optional[Callable] = None,
        archive=None,
        lint: str = "warn",
        chaos: Optional[ChaosProfile] = None,
        state_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        standby: bool = False,
        snapshot_interval: int = 10,
        kill_at: Optional[int] = None,
        verify: bool = False,
        store_path: Optional[Union[str, Path]] = None,
        serve: Optional[Tuple[str, int]] = None,
        pace: float = 0.0,
        semi_automatic: bool = False,
    ) -> None:
        if lint not in ("off", "warn", "strict"):
            raise ValueError(
                f"lint must be 'off', 'warn' or 'strict', got {lint!r}"
            )
        if snapshot_interval < 1:
            raise ValueError("snapshot interval must be at least one minute")
        if resume and state_dir is None:
            raise ValueError("resume requires a state directory")
        if kill_at is not None and state_dir is None:
            raise ValueError("kill_at without a state directory loses the run")
        if archive is not None and state_dir is not None:
            raise ValueError(
                "a state directory keeps the run's load archive in its "
                "state.db, where resume rewinds it with the journal; pass "
                "archive or state_dir, not both"
            )
        if landscape is None:
            from repro.config.builtin import paper_landscape

            landscape = paper_landscape()
        self.scenario = scenario
        self.user_factor = user_factor
        self.horizon = horizon
        self.start_minute = start_minute
        scenario_landscape = apply_scenario(landscape, scenario).scaled_users(
            user_factor
        )
        if controller_settings is not None:
            scenario_landscape = dataclasses.replace(
                scenario_landscape, controller=controller_settings
            )
        if semi_automatic:
            from repro.config.model import ControllerMode

            scenario_landscape = dataclasses.replace(
                scenario_landscape,
                controller=dataclasses.replace(
                    scenario_landscape.controller,
                    mode=ControllerMode.SEMI_AUTOMATIC,
                ),
            )
        if pace < 0:
            raise ValueError("pace must be non-negative seconds per tick")
        self.pace = pace
        self.lint_report = None
        if lint != "off":
            from repro.analysis import analyze_landscape

            self.lint_report = analyze_landscape(scenario_landscape)
            self.lint_report.raise_for_findings(strict=(lint == "strict"))
        self.platform = Platform(
            scenario_landscape, user_distribution=user_distribution_for(scenario)
        )
        #: the live AG3xx sanitizer; attached before anything publishes
        #: so its view of the stream is complete
        self.verifier = None
        self._landscape_name = scenario_landscape.name
        if verify:
            from repro.analysis.verify import TraceVerifier

            self.verifier = TraceVerifier()
            self.verifier.attach(self.platform.bus)
        #: typed supervision events (crashes, recoveries, failovers)
        #: observed on the telemetry bus; merged into the run's fault
        #: records at finalize.  The subscription is typed end to end: an
        #: unknown event kind fails at the producer (ValueError in
        #: :class:`SupervisionEventKind`), never silently dropped here.
        self._supervision_events: list = []
        self.platform.bus.subscribe(
            TOPIC_SUPERVISION,
            lambda envelope: self._supervision_events.append(envelope.record),
        )
        enabled = (
            controller_enabled
            if controller_enabled is not None
            else controller_enabled_for(scenario)
        )
        self.chaos = chaos
        #: set by :meth:`request_stop`; the loop reads it once per tick
        self.stop_requested = False
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.resume = resume
        self.snapshot_interval = snapshot_interval
        self.kill_at = kill_at
        supervised = (
            self.state_dir is not None
            or standby
            or (chaos is not None and chaos.has_controller_faults)
        )
        federated = scenario_landscape.is_federated
        if controller_factory is not None and (
            standby or (chaos is not None and chaos.has_controller_faults)
        ):
            raise ValueError(
                "a custom controller_factory cannot be combined with "
                "standby/controller-fault chaos (those require the "
                "supervised AutoGlobe controller)"
            )
        if federated and controller_factory is not None:
            raise ValueError(
                "a custom controller_factory cannot administer a landscape "
                "with control domains (the runner builds a "
                "FederatedControlPlane for those)"
            )
        if federated and archive is not None:
            raise ValueError(
                "a shared archive cannot serve a landscape with control "
                "domains; each domain keeps its own archive (pass "
                "state_dir for per-domain SQLite archives)"
            )
        #: the state store that takes the full-run snapshots (with control
        #: domains the root store: each domain keeps its own state.db)
        self._store = None
        self.controller = None
        #: the persistent SQLite event store, when the run keeps one
        self.telemetry_store = None
        #: the live ops API (bridge + asyncio server), when serving
        self.ops_bridge = None
        self.ops_server = None
        if self.state_dir is not None or (supervised and not federated):
            from repro.core.state import DurableStateStore

            self._store = DurableStateStore(self.state_dir)
            if self.state_dir is not None and not resume:
                # before a plane is built on the file: its factory may write
                self._require_unused([self._store])
        executor = None
        if federated:
            from repro.core.federation import FederatedControlPlane

            self.controller = FederatedControlPlane(
                self.platform,
                settings=scenario_landscape.controller,
                enabled=enabled,
                supervised=supervised,
                state_dir=self.state_dir,
                standby=standby,
                execution_faults=(
                    execution_faults(chaos) if chaos is not None else None
                ),
                chaos_seed=chaos.seed if chaos is not None else None,
            )
            if self.state_dir is not None and not resume:
                self._require_unused(self.controller.stores)
        elif controller_factory is not None:
            self.controller = controller_factory(
                self.platform,
                scenario_landscape.controller,
                enabled,
                *(() if self._store is None else (self._store,)),
            )
        elif supervised:
            from repro.core.failover import ControllerSupervisor

            if self.state_dir is not None:
                archive = self._store.archive
            self.controller = ControllerSupervisor(
                self.platform,
                settings=scenario_landscape.controller,
                archive=archive,
                enabled=enabled,
                store=self._store,
                standby=standby,
                executor_factory=make_executor_factory(self.platform, chaos),
            )
        else:
            if chaos is not None:
                executor = ActionExecutor(
                    self.platform,
                    faults=execution_faults(chaos),
                    seed=chaos.seed,
                )
            self.controller = AutoGlobeController(
                self.platform, enabled=enabled, archive=archive, executor=executor
            )
        #: the state files whose writes the loop groups between commit
        #: points (:meth:`~repro.core.state.StateDb.group`): those of a
        #: plane the runner built, which holds its own lease — a
        #: ``controller_factory`` plane (a domain agent's) shares its file
        #: with the federation server's lease writes — the run snapshot's
        #: file last, so a domain commits before the snapshot covering it
        self._groups = []
        if self.state_dir is not None and controller_factory is None:
            domains = self.controller.stores if federated else []
            self._groups = [store.db for store in domains] + [self._store.db]
        self.archive = archive
        self.executor = executor
        self.injector: Optional[FaultInjector] = None
        if chaos is not None:
            self.injector = FaultInjector(
                self.controller,
                crash_probability=chaos.crash_probability,
                hang_probability=chaos.hang_probability,
                host_crash_probability=chaos.host_crash_probability,
                host_reboot_minutes=chaos.host_reboot_minutes,
                monitor_outage_probability=chaos.monitor_outage_probability,
                monitor_outage_minutes=chaos.monitor_outage_minutes,
                controller_crash_probability=chaos.controller_crash_probability,
                controller_restart_minutes=chaos.controller_restart_minutes,
                leader_partition_probability=chaos.leader_partition_probability,
                leader_partition_minutes=chaos.leader_partition_minutes,
                seed=chaos.seed + 1,
            )
        self.workload = WorkloadModel(self.platform, seed=seed, noise=noise)
        self.sla = sla if sla is not None else SlaPolicy()
        self.collector = ResultCollector(
            self.platform,
            scenario_name=scenario.value,
            user_factor=user_factor,
            sla=self.sla,
            collect_host_series=collect_host_series,
            collect_services=collect_services,
            start_minute=start_minute,
        )
        if store_path is not None:
            from repro.ops.store import TelemetryStore

            self.telemetry_store = TelemetryStore(store_path)
            if not resume:
                # a resumed run attaches in _resume_from_snapshot, once
                # the bus stands at the snapshot's sequence
                self.telemetry_store.attach(self.platform.bus)
        if serve is not None:
            from repro.ops.api import OpsBridge, OpsServer

            host, port = serve
            self.ops_bridge = OpsBridge(
                self.platform,
                self.controller,
                run_info={
                    "scenario": scenario.value,
                    "user_factor": user_factor,
                    "horizon_minutes": horizon,
                    "seed": seed,
                    "start_minute": start_minute,
                },
            )
            self.ops_bridge.attach(self.platform.bus)
            self.ops_server = OpsServer(self.ops_bridge, host=host, port=port)
            self.ops_server.start()

    # -- durability -------------------------------------------------------------------

    def _require_unused(self, stores) -> None:
        """A run that is not a resume refuses an earlier run's files,
        leaving nothing open and their bytes alone."""
        try:
            for store in stores:
                store.require_unused()
        except ValueError:
            self.close()
            raise

    def _save_run_snapshot(self, now: int) -> None:
        if self.telemetry_store is not None:
            # the snapshot claims everything up to bus_seq is durable;
            # the store must not still hold any of it in its batch buffer
            self.telemetry_store.flush()
        payload = {
            "platform": self.platform.snapshot_state(),
            "workload": self.workload.snapshot_state(),
            "collector": self.collector.snapshot_state(),
            "supervisor": self.controller.snapshot_state(),
            "bus_seq": self.platform.bus.last_seq,
        }
        if self.injector is not None:
            payload["injector"] = self.injector.snapshot_state()
        self._store.snapshots.save(
            "run", now, self._store.journal.last_seq, payload
        )
        # the snapshot commits with the rows it covers
        for db in self._groups:
            db.commit_group()

    def _resume_from_snapshot(self) -> int:
        """Restore every component from the last run snapshot.

        Returns the snapshot's tick; the loop continues at tick + 1.
        """
        snapshot = self._store.snapshots.load("run")
        if snapshot is None:
            raise ValueError(
                f"cannot resume: no run snapshot in {self.state_dir}"
            )
        tick = int(snapshot["tick"])
        payload = snapshot["payload"]
        # continue the telemetry sequence where the snapshot left it,
        # before the plane restores: one that keeps the event rows cuts
        # them back to where the bus stands
        bus_seq = int(payload.get("bus_seq", 0))
        if bus_seq:
            self.platform.bus.fast_forward(bus_seq)
        self.platform.restore_state(payload["platform"])
        self.workload.restore_state(payload["workload"])
        self.collector.restore_state(payload["collector"])
        if self.injector is not None and "injector" in payload:
            self.injector.restore_state(payload["injector"])
        # rewinds every domain's journal and archive to the snapshot too
        self.controller.restore_state(payload["supervisor"], tick)
        # bus subscriptions only observe live publishes: reseed the typed
        # event list from the plane's restored history (a federated plane
        # names each event's domain, a single supervisor's are its own),
        # then let the subscription pick up everything after the resume
        events = getattr(self.controller, "events", None)
        if events is not None:
            own = getattr(self.controller, "domain", "")
            self._supervision_events = [
                SupervisionEvent(
                    time_, SupervisionEventKind(kind), detail, *(shard or [own])
                )
                for time_, kind, detail, *shard in events
            ]
        # attach drops the rows past the bus (the abandoned timeline)
        if self.telemetry_store is not None:
            self.telemetry_store.attach(self.platform.bus)
        return tick

    def request_stop(self) -> None:
        """End the run at the next tick boundary (signal-handler safe).

        A durable run snapshots there, so the directory resumes;
        :meth:`run` returns the result finalized at that minute, its
        ``horizon`` the minutes actually run.
        """
        self.stop_requested = True

    def run(self) -> SimulationResult:
        """Execute the full horizon and return the collected result."""
        start = self.start_minute
        if self.resume:
            start = self._resume_from_snapshot() + 1
        else:
            self.workload.initialize()
        end = self.start_minute + self.horizon
        persistent = self.state_dir is not None
        last = start - 1
        try:
            with ExitStack() as groups:
                for db in self._groups:
                    groups.enter_context(db.group())
                for now in range(start, end):
                    self.workload.tick(now)
                    if self.injector is not None:
                        self.injector.tick(now)
                    self.controller.tick(now)
                    self.collector.observe(now)
                    if self.telemetry_store is not None:
                        self.telemetry_store.end_tick()
                    if self.ops_bridge is not None:
                        self.ops_bridge.refresh(now)
                    last = now
                    stop = self.stop_requested  # once: a signal sets it any time
                    if persistent and (
                        (now - self.start_minute + 1) % self.snapshot_interval == 0
                        or now == end - 1
                        or stop
                    ):
                        self._save_run_snapshot(now)
                    if self.kill_at is not None and now == self.kill_at:
                        os.kill(os.getpid(), signal.SIGKILL)
                    if stop:
                        break
                    if self.pace:
                        time.sleep(self.pace)
        finally:
            self.close()
        return self.collector.finalize(
            final_minute=last,
            escalation_count=len(self.controller.alerts.escalations()),
            fault_records=merged_fault_records(
                self.injector, self._supervision_events
            ),
            controller_down_minutes=getattr(
                self.controller, "downtime_minutes", 0
            ),
            **approval_counts(self.controller.alerts),
        )

    def close(self) -> None:
        """Stop the ops API, then close plane, event store and state
        store (idempotent) — in that order: a plane's ``close()`` may
        still act and publish (an agent's deregistration can execute an
        escrow attach), and both stores must take that."""
        if self.ops_server is not None:
            self.ops_server.stop()
            self.ops_server = None
        if self.ops_bridge is not None:
            self.ops_bridge.detach()
            self.ops_bridge = None
        close_plane = getattr(self.controller, "close", None)
        if close_plane is not None:
            close_plane()
        if self.telemetry_store is not None:
            self.telemetry_store.close()
        if self._store is not None:
            self._store.close()

    def verification_report(self, result: Optional[SimulationResult] = None):
        """Finalize the live sanitizer and return its findings.

        Pass the :class:`SimulationResult` of the finished run to enable
        the AG305 accounting reconciliation; the report reuses the lint
        framework (``render``, ``exit_code``, ``--strict`` semantics).
        Only meaningful for single-process runs: a resumed run's result
        counts pre-crash actions the fresh process's stream never saw.
        """
        if self.verifier is None:
            raise RuntimeError("runner was not constructed with verify=True")
        from repro.sim.results import accounting_summary

        summary = accounting_summary(result) if result is not None else None
        return self.verifier.report(
            f"{self._landscape_name} ({self.scenario.value} run)",
            summary=summary,
        )
