"""The simulation runner: platform + workload + controller, minute by minute.

"Every simulation starts with the same reasonable initial allocation of
the services shown in Figure 11" and runs for 80 simulated hours with
the Section 5.1 controller parameters (70% overload threshold, 10 minute
watch time, 30 minute protection, idle threshold 12.5% / performance
index, 20 minute idle watch).

Whatever the run, the runner builds one control plane in one place: a
:class:`~repro.core.federation.FederatedControlPlane` of domains ×
replicas — one domain for a flat landscape, supervised replicas with
a state store (``state_dir``, ``standby`` or controller-fault chaos),
a single unsupervised controller otherwise.
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
from repro.core.federation import FederatedControlPlane
from repro.core.state import DurableStateStore
from repro.serviceglobe.executor import ExecutionFaults
from repro.serviceglobe.platform import Platform
from repro.sim.clock import PAPER_HORIZON_MINUTES
from repro.sim.faults import FaultInjector
from repro.sim.results import (
    ResultCollector,
    SimulationResult,
    SlaPolicy,
    expired_approvals_by_service,
)
from repro.sim.scenarios import (
    ChaosProfile,
    Scenario,
    controller_enabled_for,
    scenario_landscape,
    user_distribution_for,
)
from repro.sim.workload import NoiseParameters, WorkloadModel

__all__ = [
    "SimulationRunner",
    "execution_faults",
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


def approval_counts(plane):
    """The approval-queue counters of a run result."""
    expired = plane.approvals("expired")
    return {
        "expired_approval_count": len(expired),
        "pending_approval_count": len(plane.approvals("pending")),
        "expired_approvals_by_service": expired_approvals_by_service(expired),
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
        Builds the run's one replica set instead of the plane: ``(platform,
        settings, enabled, store) -> ControllerSupervisor``, ``store``
        the run's :class:`~repro.core.state.DurableStateStore` (``None``
        without ``state_dir``).  A domain agent's and the crisp
        baseline's; the supervisor's ``close()`` runs when the run ends,
        before the stores close and the result is finalized (an agent
        deregisters there).  Refused with ``standby``, controller-fault
        chaos and control domains.
    archive:
        Load archive for the controller's monitors; pass a
        :class:`repro.monitoring.archive.SqliteLoadArchive` to persist
        the run's measurements.
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
        supervises the replicas, like ``standby``.
    state_dir:
        Directory for durable run state.  Supervises every domain's
        replicas (or hands the store to ``controller_factory``) with an
        on-disk :class:`~repro.core.state.DurableStateStore`: journal,
        snapshots, lease and load archive are tables of
        ``state_dir/state.db`` — with control domains, of
        ``state_dir/<domain>/state.db`` each, the run snapshots in the
        root file (so ``archive`` cannot be passed as well).  Periodic
        full-run snapshots are written every
        ``snapshot_interval`` minutes, and where :meth:`request_stop`
        ends the run, so a killed or stopped run can be resumed.
        Without ``resume`` the directory must not hold an earlier run;
        that is checked before anything is built on the file.
    resume:
        Continue a previous run from the last full-run snapshot in
        ``state_dir`` instead of starting fresh.  The re-simulation is
        deterministic: platform, workload RNG, fault injector, collector
        and controller all restore their exact state; the history
        (actions, faults, escalations) comes from the run's event log.
    standby:
        Keep a hot-standby controller: crashes and leader partitions
        fail over at lease expiry instead of waiting out a restart.
        Supervises the replicas (in-memory state stores unless
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
        Where the run's one event log
        (:class:`repro.ops.store.TelemetryStore`) goes: this file when
        given, else the run snapshot's state file when ``state_dir``
        is, else nowhere.  Batches commit at the first tick boundary
        0.25 s of wall time after the last one; in the state file, with
        the run snapshot that covers them.  ``autoglobe verify`` and
        ``tail`` read either.  The log is an output: only a resumed run
        continues it, from the snapshot's sequence, after refolding the
        run's history from it — a log that ends before the snapshot
        refuses the resume.
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
        run_landscape = scenario_landscape(landscape, scenario, user_factor)
        if controller_settings is not None:
            run_landscape = dataclasses.replace(
                run_landscape, controller=controller_settings
            )
        if semi_automatic:
            from repro.config.model import ControllerMode

            run_landscape = dataclasses.replace(
                run_landscape,
                controller=dataclasses.replace(
                    run_landscape.controller,
                    mode=ControllerMode.SEMI_AUTOMATIC,
                ),
            )
        if pace < 0:
            raise ValueError("pace must be non-negative seconds per tick")
        self.pace = pace
        self.lint_report = None
        if lint != "off":
            from repro.analysis import analyze_landscape

            self.lint_report = analyze_landscape(run_landscape)
            self.lint_report.raise_for_findings(strict=(lint == "strict"))
        self.platform = Platform(
            run_landscape, user_distribution=user_distribution_for(scenario)
        )
        self.sla = sla if sla is not None else SlaPolicy()
        #: the one holder of the run's history (actions, faults,
        #: supervision faults, escalations): subscribed to the bus before
        #: anything is built that publishes
        self.collector = ResultCollector(
            self.platform,
            scenario_name=scenario.value,
            user_factor=user_factor,
            sla=self.sla,
            collect_host_series=collect_host_series,
            collect_services=collect_services,
            start_minute=start_minute,
        )
        #: the live AG3xx sanitizer; attached before anything publishes
        #: so its view of the stream is complete (a resumed run's attaches
        #: in _resume_from_snapshot, after the stream's restored prefix)
        self.verifier = None
        self._landscape_name = run_landscape.name
        if verify:
            from repro.analysis.verify import TraceVerifier

            self.verifier = TraceVerifier()
            if not resume:
                self.verifier.attach(self.platform.bus)
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
        federated = run_landscape.is_federated
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
                "with control domains (it builds one replica set)"
            )
        if federated and archive is not None:
            raise ValueError(
                "a shared archive cannot serve a landscape with control "
                "domains; each domain keeps its own archive (pass "
                "state_dir for per-domain SQLite archives)"
            )
        #: the live ops API (bridge + asyncio server), when serving
        self.ops_bridge = None
        self.ops_server = None
        # a flat run is one domain, "", whose state.db is the run's own
        names = [domain.name for domain in run_landscape.domains] if federated else [""]
        stores = {
            name: DurableStateStore(self.state_dir / name if self.state_dir else None)
            for name in names
        } if supervised else {}
        #: the state store that takes the full-run snapshots (with control
        #: domains the root store: each domain keeps its own state.db)
        self._store = stores.get("")
        if federated and self.state_dir is not None:
            self._store = DurableStateStore(self.state_dir)
        #: every state store this runner opened; it closes them
        self._stores = [
            store for store in dict.fromkeys([*stores.values(), self._store])
            if store is not None
        ]
        if self.state_dir is not None and not resume:
            # before the plane is built on the files: its factory may write
            self._require_unused(self._stores)
        self.controller = FederatedControlPlane(
            self.platform,
            settings=run_landscape.controller,
            enabled=enabled,
            stores=stores,
            archives=(
                {name: store.archive for name, store in stores.items()}
                if self.state_dir is not None
                else {"": archive}
            ),
            standby=standby,
            execution_faults=execution_faults(chaos) if chaos is not None else None,
            chaos_seed=chaos.seed if chaos is not None else None,
            controller_factory=controller_factory,
        )
        #: the state files whose writes the loop groups between commit
        #: points (:meth:`~repro.core.state.StateDb.group`): those of
        #: replica sets that hold their own lease — an agent's shares its
        #: file with the federation server's lease writes — the run
        #: snapshot's file last, so a domain commits before the snapshot
        #: covering it
        self._groups = []
        if self.state_dir is not None:
            self._groups = [
                supervisor.store.db
                for supervisor in self.controller.shards.values()
                if supervisor.holds_lease
            ] + ([self._store.db] if federated else [])
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
        #: the run's one event log; :meth:`run` attaches it, so an agent
        #: sets its ``source`` and ``clock`` before that
        self.telemetry_store = None
        log = store_path if store_path is not None else (
            self._store.db if self.state_dir is not None else None
        )
        if log is not None:
            from repro.ops.store import TelemetryStore

            self.telemetry_store = TelemetryStore(log)
        if serve is not None:
            from repro.ops.api import OpsBridge, OpsServer

            host, port = serve
            self.ops_bridge = OpsBridge(
                self.platform,
                self.controller,
                collector=self.collector,
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

    @staticmethod
    def _require_unused(stores) -> None:
        """A run that is not a resume refuses an earlier run's files,
        leaving nothing open and their bytes alone."""
        try:
            for store in stores:
                store.require_unused()
        except ValueError:
            for store in stores:
                store.close()
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
        # then each domain's journal drops what no recovery or resume
        # reads again.  The delete commits at the next commit point, never
        # ahead of this snapshot: with control domains a domain's file
        # commits before the root file holding the snapshot
        domains = payload["supervisor"]["domains"]
        for name, supervisor in self.controller.shards.items():
            supervisor.store.compact(domains[name]["journal_seq"])

    def _resume_from_snapshot(self) -> int:
        """Restore every component from the last run snapshot, and the
        run's history from the event log up to it.

        Returns the snapshot's tick; the loop continues at tick + 1.
        """
        snapshot = self._store.snapshots.load("run")
        if snapshot is None:
            raise ValueError(
                f"cannot resume: no run snapshot in {self.state_dir}"
            )
        tick = int(snapshot["tick"])
        payload = snapshot["payload"]
        bus_seq = int(payload["bus_seq"])
        log = self.telemetry_store
        if log.last_seq() < bus_seq:
            # never resume with a shorter history than the snapshot's
            raise ValueError(
                f"cannot resume: the event log in {log.path} ends at event "
                f"{log.last_seq()}, before the run snapshot's event {bus_seq} "
                "(resume with the log the run was started with)"
            )
        # continue the telemetry sequence where the snapshot left it
        self.platform.bus.fast_forward(bus_seq)
        self.platform.restore_state(payload["platform"])
        self.workload.restore_state(payload["workload"])
        self.collector.restore_state(
            payload["collector"],
            log.events(bus_seq, ResultCollector.HISTORY_TOPICS),
        )
        if self.injector is not None and "injector" in payload:
            self.injector.restore_state(payload["injector"])
        # rewinds every domain's journal and archive to the snapshot too
        self.controller.restore_state(payload["supervisor"], tick)
        if self.verifier is not None:
            # the live verdict is the whole run's: first the logged events
            # up to the snapshot, then the live stream
            for event in log.events(bus_seq):
                self.verifier.feed(event)
            self.verifier.attach(self.platform.bus)
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
        end = self.start_minute + self.horizon
        persistent = self.state_dir is not None
        try:
            if self.resume:
                start = self._resume_from_snapshot() + 1
            last = start - 1
            with ExitStack() as groups:
                for db in self._groups:
                    groups.enter_context(db.group())
                if self.telemetry_store is not None:
                    # past what the bus numbered the rows are an earlier
                    # run's or a resumed run's abandoned timeline: attach
                    # drops them (in the write group, when it has one)
                    self.telemetry_store.attach(self.platform.bus)
                if not self.resume:
                    self.workload.initialize()
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
                    if (
                        (now - self.start_minute + 1) % self.snapshot_interval == 0
                        or now == end - 1
                        or stop
                    ):
                        if persistent:
                            self._save_run_snapshot(now)
                        else:
                            # nothing resumes a store without a file: its
                            # controller row alone bounds what recovery reads
                            for store in self._stores:
                                store.compact(store.journal.last_seq)
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
            controller_down_minutes=self.controller.downtime_minutes,
            **approval_counts(self.controller),
        )

    def close(self) -> None:
        """Stop the ops API, then close plane, event log and state stores
        (idempotent) — in that order: a plane's ``close()`` may still act
        and publish (an agent's deregistration can execute an escrow
        attach), and the log, which may live in a state store, must take
        that."""
        if self.ops_server is not None:
            self.ops_server.stop()
            self.ops_server = None
        if self.ops_bridge is not None:
            self.ops_bridge.detach()
            self.ops_bridge = None
        self.controller.close()
        if self.telemetry_store is not None:
            self.telemetry_store.close()
        for store in self._stores:
            store.close()

    def verification_report(self, result: Optional[SimulationResult] = None):
        """Finalize the live sanitizer and return its findings.

        Pass the :class:`SimulationResult` of the finished run to enable
        the AG305 accounting reconciliation; the report reuses the lint
        framework (``render``, ``exit_code``, ``--strict`` semantics).
        Only meaningful for single-process runs.  A resumed run's verdict
        covers the whole run: its event log holds the stream before the
        snapshot.
        """
        if self.verifier is None:
            raise RuntimeError("runner was not constructed with verify=True")
        from repro.sim.results import accounting_summary

        summary = accounting_summary(result) if result is not None else None
        return self.verifier.report(
            f"{self._landscape_name} ({self.scenario.value} run)",
            summary=summary,
        )
