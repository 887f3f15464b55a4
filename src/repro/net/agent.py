"""The per-domain controller agent process.

A :class:`DomainAgent` administers exactly one control domain: it runs
one :class:`~repro.sim.runner.SimulationRunner` over the domain's shard
(:func:`~repro.config.builtin.domain_sublandscape`) and is that run's
control plane.  The runner owns the run — platform, workload, fault
injector, collector, the tick loop, the ``"run"`` snapshot, resume and
the result; the agent owns the wire — :class:`SessionSupervisor` is the
plane the runner ticks, snapshots, restores and closes, and around the
supervisor's own work it speaks the :mod:`repro.net.protocol` schema to
the coordinating :class:`~repro.net.server.FederationServer`:

* **session** — a handshake carries the domain name and an incarnation
  number; the welcome carries the lease-backed fencing token the agent
  adopts (publishing a ``LEADER_EPOCH`` supervision event whenever it
  changes, so the AG301 fencing watermark follows leadership);
* **heartbeats** — renew the server-side session and return the global
  minimum simulated minute, the pacing floor that keeps loosely coupled
  agents within ``SIM_LEAD_MINUTES`` of the slowest peer;
* **events** — every envelope published on the agent's bus is
  Lamport-stamped into the ``events`` table of the domain's ``state.db``
  and nowhere else: the server reads the table at finalization and
  merges the per-domain streams into one causally consistent trace
  (every message carries the sender's clock, so the stamps order
  across domains without the events crossing the wire);
* **escrow** — overloads no local action can remedy go through the
  server-brokered two-phase relocation (prepare / commit / attach),
  with every phase published as an :class:`~repro.telemetry.records.EscrowEvent`
  so the AG302 escrow-order invariant is checkable on the merged trace.

What the agent *decides* about the wire is the
:class:`~repro.net.agent_session.AgentSession`, a state machine without
I/O; the agent drives it through one wait, :meth:`DomainAgent._pump`,
which blocks on the endpoint only while something is awaited (the
welcome, the pacing floor, an escrow reply, the deregistration) and at
a tick boundary takes what has arrived without waiting.  The agent is
also the session's *plane*: finding capacity, detach, attach,
compensation and publishing ``EscrowEvent`` records touch the domain
and stay here.
Everything runs on the thread that runs the agent.

Partition tolerance is the point: an agent that loses the server (or
stops seeing acknowledgements) enters **degraded mode** — it keeps
administering its own domain autonomously, refuses new cross-domain
escrow, and publishes ``net-degraded`` / ``net-resynced`` supervision
events around the outage.  Reconnection uses capped exponential
backoff; a deposed session (the server expired us while we were silent)
re-handshakes immediately and adopts the bumped token.

Durability is the runner's: events are state — rows of the same
``state.db`` as journal, snapshots and load archive, committed by the
store's one group-commit policy and before every snapshot — and the
plane's part of the run snapshot carries a ``net`` section (Lamport
clock, escrow reservations and reply caches).  Unlike a runner's own
plane, an agent's opens no write group
(:meth:`~repro.core.state.StateDb.group`): the federation server writes
the domain's lease into the same ``state.db`` from its process, so
journal, archive and snapshot rows keep committing statement by
statement and no transaction is open while the agent waits on the
wire.  A SIGKILLed agent
resumes by dropping the event rows past the snapshot's bus sequence.
SIGTERM is graceful (:meth:`SimulationRunner.request_stop`): finish the
current minute, snapshot, deregister (the plane's ``close()``), finalize,
then write the run summary — last, so it counts everything the agent
did.  A domain directory holds ``state.db`` and ``summary.json``; it is
the one hand-off to the server.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config.builtin import (
    domain_sublandscape,
    paper_landscape,
    partition_landscape,
    replicated_landscape,
)
from repro.config.model import (
    Action,
    ServiceKind,
    service_spec_from_dict,
    service_spec_to_dict,
)
from repro.core.failover import ControllerSupervisor
from repro.monitoring.lms import Situation
from repro.net.agent_session import DOWN, HELLO, UP, AgentSession
from repro.net.protocol import FrameError
from repro.net.transport import EndpointClosed, connect_tcp
from repro.ops.store import TelemetryStore
from repro.serviceglobe.actions import ActionError, ActionOutcome
from repro.serviceglobe.platform import DomainView
from repro.sim.clock import PAPER_HORIZON_MINUTES
from repro.sim.export import summary_json_payload
from repro.sim.results import SimulationResult
from repro.sim.runner import SimulationRunner, make_executor_factory
from repro.sim.scenarios import ChaosProfile, Scenario, default_chaos
from repro.telemetry.bus import WILDCARD, Envelope
from repro.telemetry.records import (
    EscrowEvent,
    EscrowPhase,
    SituationKind,
    SupervisionEvent,
    SupervisionEventKind,
    record_payload,
)

__all__ = ["SessionSupervisor", "DomainAgent", "main"]

#: the first tick keeps dialling this long before the agent degrades
CONNECT_GRACE_SECONDS = 5.0
#: an escrow's wait for its prepare (the server decides sooner) ...
PREPARE_SECONDS = 2.5
#: ... and for its commit (re-sent and resolved later if it takes longer)
COMMIT_SECONDS = 0.75
#: the bound on the deregistration at the end of the run
DEREGISTER_SECONDS = 5.0


class SessionSupervisor(ControllerSupervisor):
    """The control plane of an agent's runner.

    A :class:`ControllerSupervisor` whose lease lives on the server: the
    federation server's :class:`~repro.net.session.SessionManager` owns
    the domain's :class:`~repro.core.state.LeaseStore` (the lease table
    of the very same ``state.db``, so tokens stay monotonic across both
    sides' restarts); this subclass therefore never acquires the lease
    itself — the fencing token arrives over the wire and is adopted
    explicitly.  What the runner asks of its plane — tick, snapshot,
    restore, close — wraps the supervisor's own with the agent's wire.
    """

    def __init__(self, agent: "DomainAgent", *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._agent = agent

    def _acquire_lease(self, now: int) -> None:
        # leadership is granted by the server's heartbeat session, not
        # by a local lease acquisition
        return

    def _rewind_lease(self, row: Optional[List[Any]]) -> None:
        # the server's session manager owns the lease row, and its
        # tokens only grow: a resume leaves it alone
        return

    def adopt_token(self, now: int, token: int) -> None:
        """Adopt the session's fencing token; announce epoch changes.

        Publishing the ``LEADER_EPOCH`` event advances the AG301 fencing
        watermark for this domain *before* the first action of the new
        epoch, exactly like the in-process supervisor's lease path.
        """
        if self.active is None:
            return
        if token == self.active.executor.fencing_token:
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

    def record_net_event(self, now: int, kind: str, detail: str) -> None:
        """Record a connectivity transition (degraded / resynced)."""
        self._record_event(now, kind, detail)

    def tick(self, now: int) -> List[ActionOutcome]:
        """Connect and pace, the supervisor's own minute, then the wire."""
        agent = self._agent
        session = agent.session
        session.minute = now
        if agent._ticks == 0:
            agent._connect_initial()
        if session.ahead():
            agent._pump(lambda: agent.runner.stop_requested or not session.ahead())
        # the controller's tick time is the supervisor's work alone, not
        # the waiting on the wire around it; an attach waits for the end
        # of the minute
        session.hold_attaches = True
        began = time.perf_counter()
        try:
            outcomes = super().tick(now)
        finally:
            agent._tick_seconds += time.perf_counter() - began
            session.hold_attaches = False
        agent._ticks += 1
        agent._pump()
        agent.events.end_tick()
        return outcomes

    def snapshot_state(self) -> Dict[str, Any]:
        payload = super().snapshot_state()
        payload["net"] = self._agent._snapshot_net()
        return payload

    def restore_state(self, payload: Dict[str, Any], now: int) -> None:
        # rewinds the journal and the load archive to the snapshot too
        super().restore_state(payload, now)
        self._agent._restore_net(payload["net"], now)

    def close(self) -> None:
        """Deregister, bounded; the runner finalizes after this."""
        self._agent._close_session()


class DomainAgent:
    """One control domain's controller process.

    The run's parameters are handed to the agent's
    :class:`~repro.sim.runner.SimulationRunner` (``self.runner``, over
    ``state_dir/<domain>``).  ``endpoint_factory`` returns a fresh
    connected endpoint (or raises ``OSError``) — tests inject loopback
    endpoints here, ``main`` wires TCP.  Timing is module constants:
    this module's waits, :mod:`repro.net.agent_session`'s timers.
    """

    def __init__(
        self,
        domain: str,
        domains: int,
        endpoint_factory: Callable[[], Any],
        state_dir: Path,
        scenario: Scenario = Scenario.FULL_MOBILITY,
        user_factor: float = 1.0,
        horizon: int = PAPER_HORIZON_MINUTES,
        seed: int = 7,
        start_minute: int = 12 * 60,
        landscape_kind: str = "paper",
        domain_index: Optional[int] = None,
        controller_enabled: Optional[bool] = None,
        chaos: Optional[ChaosProfile] = None,
        resume: bool = False,
        snapshot_interval: int = 10,
        kill_at: Optional[int] = None,
    ) -> None:
        if chaos is not None and chaos.has_controller_faults:
            raise ValueError(
                "controller-fault chaos cannot run inside a domain agent; "
                "the agent process *is* the controller — kill the process "
                "(kill_at / SIGTERM) or partition the wire instead"
            )
        if domain_index is None:
            # "domain-3" -> 2; used only to decorrelate per-domain seeds
            try:
                domain_index = int(domain.rsplit("-", 1)[-1]) - 1
            except ValueError:
                domain_index = 0
        self.domain = domain
        self.chaos = chaos
        self.resume = resume
        self._endpoint_factory = endpoint_factory
        self._endpoint: Any = None
        self.dir = Path(state_dir) / domain
        #: the wire's state; its ``minute`` is the last minute the plane
        #: was ticked at (or restored to)
        self.session = AgentSession(domain, self, start_minute)
        self._tick_seconds = 0.0
        self._ticks = 0

        if landscape_kind == "replicated":
            full = replicated_landscape(domains)
        elif landscape_kind == "paper":
            full = paper_landscape()
        else:
            raise ValueError(f"unknown landscape kind {landscape_kind!r}")
        shard = domain_sublandscape(partition_landscape(full, domains), domain)
        # lint off: a shard is not a deployable landscape (domain-1 of 2
        # reads AG203, its capacity being the federation's to balance)
        self.runner = SimulationRunner(
            scenario,
            user_factor=user_factor,
            horizon=horizon,
            seed=seed + domain_index,
            landscape=shard,
            collect_host_series=False,
            controller_enabled=controller_enabled,
            start_minute=start_minute,
            controller_factory=self._build_plane,
            lint="off",
            # one injector stream per domain (the runner draws it from
            # seed + 1); executors keep the profile's own seed
            chaos=(
                dataclasses.replace(chaos, seed=chaos.seed + domain_index)
                if chaos is not None
                else None
            ),
            state_dir=self.dir,
            resume=resume,
            snapshot_interval=snapshot_interval,
            kill_at=kill_at,
        )

    def _build_plane(self, platform, settings, enabled, store) -> SessionSupervisor:
        """The runner's ``controller_factory``: the domain's event log and
        its supervisor, on the run's platform and (already checked) store."""
        self.store = store
        #: the domain's event log: rows of the same state.db
        self.events = TelemetryStore(store.db, source=self.domain)
        if not self.resume:
            # subscribed below before anything publishes, on an unused file
            self.events.mark_complete(True)
        platform.bus.subscribe(WILDCARD, self._on_envelope)
        self.view = DomainView(
            platform, self.domain, list(platform.hosts), list(platform.services)
        )
        self.supervisor = SessionSupervisor(
            self,
            self.view,
            settings=settings,
            archive=store.archive,
            enabled=enabled,
            store=store,
            standby=False,
            executor_factory=make_executor_factory(self.view, self.chaos),
            relocation_handler=self._relocation_handler,
        )
        return self.supervisor

    def _on_envelope(self, envelope: Envelope) -> None:
        """One Lamport stamp per envelope (the merge sorts by it)."""
        self.events.add(
            envelope.seq,
            envelope.topic,
            record_payload(envelope.record),
            self.session.clock.tick(),
        )

    def request_stop(self) -> None:
        """Ask the agent to shut down gracefully after the current minute."""
        self.runner.request_stop()

    # -- the run ----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the horizon (or resume it); returns the domain result.

        The runner runs it — ticking, snapshotting and finally closing
        this agent's plane, which deregisters — and the summary is
        written from its result, after everything the agent did.
        """
        self._install_signal_handler()
        result = self.runner.run()
        summary = summary_json_payload(result)
        summary["domain"] = self.domain
        summary["perf"] = {
            "controller_tick_seconds": self._tick_seconds,
            "ticks": self._ticks,
        }
        summary["net"] = {
            "partial": result.horizon < self.runner.horizon,
            **self.session.counts,
        }
        # the server reads this file, not a message: it is there even
        # when the deregister never got through a partition
        (self.dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
        )
        return result

    def _install_signal_handler(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # in-process test harness drives request_stop directly

        def handler(signum, frame):  # pragma: no cover - exercised cross-process
            self.request_stop()

        signal.signal(signal.SIGTERM, handler)

    # -- the one wait ------------------------------------------------------------------

    def _pump(
        self,
        until: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Step the session until ``until()`` holds or ``deadline`` passes.

        A step takes what has arrived, runs the session's timers, dials
        when a dial is due and sends what the session queued.  Without
        ``until`` it is one step that waits for nothing: the drain at a
        tick boundary.  Between steps it blocks on the endpoint — or,
        unconnected, sleeps — until the earlier of ``deadline`` and the
        session's own next deadline.
        """
        wait = 0.0
        while True:
            self._step(wait)
            now = time.monotonic()
            if until is None or until() or (deadline is not None and now >= deadline):
                return
            due = [t for t in (deadline, self.session.deadline()) if t is not None]
            if not due:
                return  # closed: nothing can arrive
            wait = max(0.0, min(due) - now)

    def _step(self, wait: float) -> None:
        session = self.session
        self._flush()
        if self._endpoint is None:
            if wait > 0.0:
                time.sleep(wait)
        while self._endpoint is not None:
            try:
                message = self._endpoint.recv(timeout=wait)
            except (EndpointClosed, FrameError, OSError):
                session.lost(time.monotonic(), "connection lost")
                message = None
            if message is not None:
                session.receive(message, time.monotonic())
            self._flush()
            if message is None:
                break
            wait = 0.0
        now = time.monotonic()
        session.poll(now)
        self._flush()  # hangs up what the timers dropped, before a redial
        if session.dial_due(now):
            try:
                self._endpoint = self._endpoint_factory()
            except OSError:
                session.dial_failed(now)
            else:
                session.dialled(now)
            self._flush()

    def _flush(self) -> None:
        """Send what the session queued; hang up when its link is down."""
        session = self.session
        outbox, session.outbox = session.outbox, []
        for message in outbox:
            if self._endpoint is None:
                break
            try:
                self._endpoint.send(message)
            except (EndpointClosed, OSError):
                session.lost(time.monotonic(), "send failed")
                break
        if session.link == DOWN and self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    def _connect_initial(self) -> None:
        """Best-effort first connect; degrade if it never lands."""
        session, runner = self.session, self.runner
        self._pump(
            lambda: session.link != DOWN or runner.stop_requested,
            time.monotonic() + CONNECT_GRACE_SECONDS,
        )
        # a hello in flight gets its welcome, or its own timeout
        self._pump(lambda: session.link != HELLO)
        if session.link != UP and not runner.stop_requested:
            session.degrade("server unreachable at start")

    # -- escrow: source side -----------------------------------------------------------

    def _relocation_handler(
        self, situation: Situation, now: int
    ) -> Optional[ActionOutcome]:
        """Relocate one instance off an overloaded host, cross-domain.

        Installed as the decision engine's last resort.  Degraded mode
        refuses cleanly (returns ``None`` so the overload escalates to
        the administrator, exactly the single-domain behaviour): escrow
        needs the broker, and a partitioned agent must not block on it.
        """
        if situation.kind is not SituationKind.SERVER_OVERLOADED:
            return None
        if self.session.link != UP:
            return None
        host = self.view.hosts.get(situation.subject)
        if host is None or not host.up:
            return None
        movable = []
        for instance in host.running_instances:
            definition = self.view.service(instance.service_name)
            spec = definition.spec
            if spec.kind is not ServiceKind.APPLICATION_SERVER:
                continue
            if not spec.constraints.allows(Action.MOVE):
                continue
            if len(definition.running_instances) <= max(
                1, spec.constraints.min_instances
            ):
                continue  # never escrow away a service's last local instance
            movable.append(instance)
        movable.sort(key=lambda i: (-i.demand, i.instance_id))
        for instance in movable:
            outcome = self._escrow_out(now, instance)
            if outcome is not None:
                return outcome
        return None

    def _escrow_out(self, now: int, instance) -> Optional[ActionOutcome]:
        session = self.session
        spec = self.view.service(instance.service_name).spec
        token = session.token
        escrow_id = session.request_escrow(service_spec_to_dict(spec), instance.users)
        if escrow_id is None:
            return None
        self._pump(
            lambda: session.link != UP or session.prepared[escrow_id] is not None,
            time.monotonic() + PREPARE_SECONDS,
        )
        prepared = session.prepared.pop(escrow_id, None)
        if prepared is None:
            session.abort_escrow(escrow_id, "prepare timed out")
            return None
        if not prepared["ok"]:
            return None  # refused before any state changed; no events owed
        # the escrow as the commit, its compensation and its events see it
        commit = {
            "escrow_id": escrow_id,
            "instance_id": instance.instance_id,
            "service": spec.name,
            "users": instance.users,
            "source_host": instance.host_name,
            "target_domain": prepared["target_domain"],
            "target_host": prepared["target_host"],
            "token": token,
            "minute": now,
        }
        self._publish_escrow(
            EscrowPhase.PREPARE,
            commit,
            f"reserved {commit['target_domain']}/{commit['target_host']}",
        )
        # detach: zero the users first so SCALE_IN displaces nobody —
        # the sessions travel with the escrow and land on the target
        instance.users = 0
        try:
            outcome = self.supervisor.executor.execute(
                Action.SCALE_IN,
                spec.name,
                instance_id=instance.instance_id,
                enforce_allowed=False,
                note=f"escrow {escrow_id} detach",
            )
        except ActionError as exc:
            instance.users = commit["users"]
            self._publish_escrow(EscrowPhase.ABORT, commit, f"detach failed: {exc}")
            session.abort_escrow(escrow_id, f"detach failed: {exc}")
            return None
        self._publish_escrow(EscrowPhase.COMMIT, commit)
        session.commit_escrow(commit, time.monotonic())
        # the commit reply may take longer: the session re-sends the
        # commit (idempotently — the server caches its reply) and
        # resolves it whenever it lands
        self._pump(
            lambda: session.link != UP or escrow_id not in session.commits,
            time.monotonic() + COMMIT_SECONDS,
        )
        return outcome

    def compensate(self, commit: Dict[str, Any], note: str, minute: int) -> None:
        """Commit was refused after detach: restart the instance here."""
        outcome = None
        try:
            outcome = self.supervisor.executor.execute(
                Action.SCALE_OUT,
                commit["service"],
                target_host=commit["source_host"],
                enforce_allowed=False,
                note=f"escrow {commit['escrow_id']} compensation",
            )
        except ActionError:
            outcome = None
        if outcome is not None and outcome.instance_id:
            try:
                self.view.instance(outcome.instance_id).users = commit["users"]
            except Exception:
                pass
        self._publish_escrow(
            EscrowPhase.ABORT,
            commit,
            f"commit refused: {note}" if note else "commit refused",
            minute,
        )

    def _publish_escrow(
        self,
        phase: EscrowPhase,
        commit: Dict[str, Any],
        note: str = "",
        minute: Optional[int] = None,
    ) -> None:
        """One source-side escrow phase, at the escrow's minute by default."""
        self.view.bus.publish(
            EscrowEvent(
                time=commit["minute"] if minute is None else minute,
                phase=phase,
                escrow_id=commit["escrow_id"],
                service_name=commit["service"],
                instance_id=commit["instance_id"],
                source_domain=self.domain,
                target_domain=commit["target_domain"],
                source_host=commit["source_host"],
                target_host=commit["target_host"],
                fencing_token=commit["token"],
                note=note,
            )
        )

    # -- the plane: what the session asks of the domain --------------------------------

    def adopt_token(self, minute: int, token: int) -> None:
        self.supervisor.adopt_token(minute, token)

    def record_net_event(self, minute: int, kind: str, detail: str) -> None:
        self.supervisor.record_net_event(minute, kind, detail)

    def find_capacity(
        self, service: Dict[str, Any], held: Dict[str, int]
    ) -> Tuple[Optional[str], int, str]:
        """Pick the domain host with the most free memory that fits.

        ``held`` is the memory other unconsumed reservations keep per
        host, so two concurrent escrows cannot both be promised the same
        headroom.
        """
        spec = service_spec_from_dict(service)
        needed = spec.workload.memory_per_instance_mb
        best_name = None
        best_free = -1
        for name in sorted(self.view.hosts):
            host = self.view.hosts[name]
            if not host.up:
                continue
            if host.performance_index < spec.constraints.min_performance_index:
                continue
            if spec.constraints.exclusive and host.running_instances:
                continue
            if any(
                self.view.service(i.service_name).spec.constraints.exclusive
                for i in host.running_instances
            ):
                continue
            free = host.memory_free_mb(self.view.memory_of) - held.get(name, 0)
            if free < needed:
                continue
            if free > best_free:
                best_free = free
                best_name = name
        if best_name is None:
            return None, needed, f"no host with {needed}MB free"
        return best_name, needed, f"{best_free}MB free"

    def attach(self, message: Dict[str, Any], now: int) -> Tuple[bool, str]:
        """Adopt the escrowed service and start it on the reserved host."""
        escrow_id = message["escrow_id"]
        spec = service_spec_from_dict(message["service"])
        definition = self.view.platform.adopt_service(spec)
        self.runner.workload.adopt(spec)
        self.runner.collector.track_service(spec.name)
        action = Action.START if not definition.running_instances else Action.SCALE_OUT
        outcome = None
        failure = ""
        try:
            outcome = self.supervisor.executor.execute(
                action,
                spec.name,
                target_host=message["host"],
                enforce_allowed=False,
                note=f"escrow {escrow_id} attach from {message['source_domain']}",
            )
        except ActionError as exc:
            failure = str(exc)
        ok = outcome is not None and bool(outcome.instance_id)
        if ok:
            try:
                self.view.instance(outcome.instance_id).users = message["users"]
            except Exception:
                pass
        # the ATTACH event carries the *source domain's* fencing token:
        # AG301 scopes escrow phases to the source, and the token rode
        # along in the escrow_attach message for exactly this stamp
        note = "" if ok else failure or "attach failed"
        self.view.bus.publish(
            EscrowEvent(
                time=now,
                phase=EscrowPhase.ATTACH if ok else EscrowPhase.ABORT,
                escrow_id=escrow_id,
                service_name=spec.name,
                instance_id=outcome.instance_id if ok else "",
                source_domain=message["source_domain"],
                target_domain=self.domain,
                source_host=message["source_host"],
                target_host=message["host"],
                fencing_token=message["token"] if ok else None,
                note=f"attach failed: {failure}" if failure else note,
            )
        )
        return ok, note

    # -- the plane's part of the run snapshot, and of the run's end -----------------------

    def _snapshot_net(self) -> Dict[str, Any]:
        # the event rows must be committed before the snapshot that
        # points into them: resume keeps the rows up to its bus_seq
        self.events.flush()
        return self.session.snapshot()

    def _restore_net(self, net: Dict[str, Any], now: int) -> None:
        """The ``net`` section of the snapshot the runner resumes from."""
        self.session.minute = now
        self.session.restore(net)
        # cut the event log back to the snapshot, where the runner has
        # put the bus: everything after belongs to the abandoned
        # timeline between snapshot and kill
        self.events.truncate_after(self.view.bus.last_seq)

    def _close_session(self) -> None:
        """Deregister (bounded) and hang up; the runner finalizes afterwards.

        In that order: an escrow attach (or a commit refusal's
        compensation) that still lands while the deregistration waits
        is an action the result has to count.
        """
        self.events.flush()
        session = self.session
        if not session.deregistered:  # closed: a second close talks to nobody
            session.deregister()
            self._pump(
                lambda: session.deregistered, time.monotonic() + DEREGISTER_SECONDS
            )
        self.events.close()  # what deregistering itself published
        session.close()
        self._flush()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.net.agent`` — one domain agent process."""
    parser = argparse.ArgumentParser(
        prog="autoglobe-agent",
        description="Run one control domain's controller agent process.",
    )
    parser.add_argument("--domain", required=True, help="control domain name")
    parser.add_argument(
        "--domains", type=int, required=True, help="total domain count"
    )
    parser.add_argument(
        "--landscape",
        choices=("paper", "replicated"),
        default="paper",
        help="full landscape to partition (default: the paper landscape)",
    )
    parser.add_argument(
        "--scenario",
        default=Scenario.FULL_MOBILITY.value,
        choices=[scenario.value for scenario in Scenario],
    )
    parser.add_argument("--users", type=float, default=1.0)
    parser.add_argument(
        "--minutes", type=int, default=PAPER_HORIZON_MINUTES,
        help="simulated horizon in minutes",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--start", type=int, default=12 * 60,
        help="absolute start minute of day",
    )
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--server-host", default="127.0.0.1")
    parser.add_argument("--server-port", type=int, required=True)
    parser.add_argument(
        "--chaos", action="store_true",
        help="enable the stock landscape chaos profile",
    )
    parser.add_argument("--chaos-seed", type=int, default=115)
    parser.add_argument(
        "--kill-at", type=int, default=None,
        help="SIGKILL self right after this simulated minute (crash test)",
    )
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--snapshot-interval", type=int, default=10)
    args = parser.parse_args(argv)

    host, port = args.server_host, args.server_port
    try:
        DomainAgent(
            domain=args.domain,
            domains=args.domains,
            endpoint_factory=lambda: connect_tcp(host, port, timeout=2.0),
            state_dir=Path(args.state_dir),
            scenario=Scenario(args.scenario),
            user_factor=args.users,
            horizon=args.minutes,
            seed=args.seed,
            start_minute=args.start,
            landscape_kind=args.landscape,
            chaos=default_chaos(args.chaos_seed) if args.chaos else None,
            resume=args.resume,
            snapshot_interval=args.snapshot_interval,
            kill_at=args.kill_at,
        ).run()
    except ValueError as exc:
        # nothing to resume, a used directory, a parameter the runner
        # refuses: a respawn would fail the same way (exit 2 is terminal)
        print(f"autoglobe-agent: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
