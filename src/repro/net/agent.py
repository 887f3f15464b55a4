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
  agents within ``sim_lead_minutes`` of the slowest peer;
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
clock, escrow reservations and reply caches).  A SIGKILLed agent
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
from typing import Any, Callable, Dict, List, Optional

from repro.config.builtin import (
    domain_sublandscape,
    paper_landscape,
    partition_landscape,
    replicated_landscape,
)
from repro.config.model import (
    Action,
    ServiceKind,
    ServiceSpec,
    service_spec_from_dict,
    service_spec_to_dict,
)
from repro.core.failover import ControllerSupervisor
from repro.monitoring.lms import Situation
from repro.net.protocol import (
    FrameError,
    ProtocolError,
    make_message,
    validate_message,
)
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
from repro.telemetry.trace import LamportClock

__all__ = ["SessionSupervisor", "DomainAgent", "main"]

#: message kinds that count as the server acknowledging us; used by the
#: degraded-mode detector.  ``escrow_reserve`` / ``escrow_attach`` are
#: *not* in here — during a one-way (inbound-open) partition the server
#: can still reach us while our requests vanish, and those pushes must
#: not mask the silence.
_ACK_KINDS = frozenset(
    {
        "heartbeat_ack",
        "deregister_ack",
        "escrow_prepared",
        "escrow_committed",
        "escrow_aborted",
    }
)


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
        agent._minute = now
        if agent._ticks == 0:
            agent._connect_initial(now)
        agent._ensure_connected(now)
        agent._sync_pause(now)
        # the controller's tick time is the supervisor's work alone,
        # not the waiting on the wire around it
        began = time.perf_counter()
        outcomes = super().tick(now)
        agent._tick_seconds += time.perf_counter() - began
        agent._ticks += 1
        agent._service_network(now)
        agent._maybe_heartbeat(now)
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
    ``state_dir/<domain>``); the networking knobs are the agent's own.
    ``endpoint_factory`` returns a fresh connected endpoint (or raises
    ``OSError``) — tests inject loopback endpoints here, ``main`` wires
    TCP.
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
        sim_lead_minutes: int = 30,
        ack_timeout: float = 1.5,
        connect_grace: float = 5.0,
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
        self.sim_lead_minutes = sim_lead_minutes
        self.ack_timeout = ack_timeout
        self.connect_grace = connect_grace
        self.chaos = chaos
        self.resume = resume
        self._endpoint_factory = endpoint_factory
        self.dir = Path(state_dir) / domain
        self.clock = LamportClock()

        # -- connection state ---------------------------------------------------
        self._endpoint: Any = None
        self._connected = False
        self._degraded = False
        self._deregistered = False
        self._token: Optional[int] = None
        self._incarnation = 1
        self._backoff = 0.05
        self._next_connect = 0.0
        self._global_min = start_minute
        self._awaiting_ack_since: Optional[float] = None
        self._last_hb_minute = start_minute - 10
        self._last_hb_wall = 0.0
        # -- escrow (source side) ----------------------------------------------
        self._escrow_seq = 0
        self._reply_box: Dict[tuple, Dict[str, Any]] = {}
        self._pending_commits: Dict[str, Dict[str, Any]] = {}
        # -- escrow (target side) ----------------------------------------------
        self._reservations: Dict[str, Dict[str, Any]] = {}
        self._released: set = set()
        self._reserve_replies: Dict[str, Dict[str, Any]] = {}
        self._attach_replies: Dict[str, Dict[str, Any]] = {}
        self._deferred_attaches: List[Dict[str, Any]] = []
        # -- lifecycle / accounting --------------------------------------------
        #: the last minute the plane was ticked at (or restored to)
        self._minute = start_minute
        self._tick_seconds = 0.0
        self._ticks = 0
        self._degraded_count = 0
        self._resync_count = 0
        self._escrow_out_count = 0
        self._escrow_in_count = 0

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
            self.clock.tick(),
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
            "degraded_count": self._degraded_count,
            "resync_count": self._resync_count,
            "escrow_out": self._escrow_out_count,
            "escrow_in": self._escrow_in_count,
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

    def _sync_pause(self, now: int) -> None:
        """Hold this agent near the slowest live peer's minute.

        Only a *connected* agent paces itself: a partitioned one cannot
        learn the floor and must keep administering its domain — that is
        the degraded-mode contract.
        """
        while (
            self._connected
            and not self.runner.stop_requested
            and now - self._global_min > self.sim_lead_minutes
        ):
            self._maybe_heartbeat(now)
            self._service_network(now)
            time.sleep(0.01)

    # -- connection management --------------------------------------------------------

    def _connect_initial(self, now: int) -> None:
        """Best-effort blocking first connect; degrade if it never lands."""
        deadline = time.monotonic() + self.connect_grace
        while not self._connected and not self.runner.stop_requested:
            self._next_connect = 0.0
            self._ensure_connected(now)
            if self._connected or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        if not self._connected and not self.runner.stop_requested:
            self._enter_degraded(now, "server unreachable at start")

    def _ensure_connected(self, now: int) -> None:
        if self._connected or self._deregistered:
            return
        if time.monotonic() < self._next_connect:
            return
        try:
            endpoint = self._endpoint_factory()
        except OSError:
            self._connect_failed()
            return
        try:
            self._handshake(endpoint, now)
        except (EndpointClosed, FrameError, ProtocolError, OSError):
            try:
                endpoint.close()
            except Exception:
                pass
            self._connect_failed()

    def _connect_failed(self) -> None:
        self._next_connect = time.monotonic() + self._backoff
        self._backoff = min(self._backoff * 2, 2.0)

    def _handshake(self, endpoint: Any, now: int) -> None:
        endpoint.send(
            make_message(
                "hello",
                self.clock.tick(),
                domain=self.domain,
                incarnation=self._incarnation,
                minute=now,
            )
        )
        deadline = time.monotonic() + 2.0
        backlog: List[Dict[str, Any]] = []
        while time.monotonic() < deadline:
            message = endpoint.recv(timeout=0.05)
            if message is None:
                continue
            validate_message(message)
            kind = message["kind"]
            if kind == "welcome":
                self._endpoint = endpoint
                self._connected = True
                self._backoff = 0.05
                self._resync(now, message)
                for queued in backlog:
                    self._handle_inbound(now, queued)
                return
            if kind == "reject":
                raise ProtocolError(str(message.get("reason", "rejected")))
            backlog.append(message)
        raise EndpointClosed("handshake timed out")

    def _resync(self, now: int, welcome: Dict[str, Any]) -> None:
        """Adopt the session: token, clock rebase, degraded-mode exit."""
        # rebase past everything the server (and through it, every peer)
        # has seen, so post-resync events — the new LEADER_EPOCH first —
        # sort after all in-flight cross-domain chains in the merge
        self.clock.witness(int(welcome["max_clock"]))
        token = int(welcome["token"])
        self._token = token
        self.supervisor.adopt_token(now, token)
        if self._degraded:
            self._degraded = False
            self._resync_count += 1
            self.supervisor.record_net_event(
                now, "net-resynced", str(welcome.get("session", ""))
            )
        self._awaiting_ack_since = None

    def _enter_degraded(self, now: int, reason: str) -> None:
        if self._endpoint is not None:
            try:
                self._endpoint.close()
            except Exception:
                pass
        self._endpoint = None
        self._connected = False
        self._awaiting_ack_since = None
        if not self._degraded:
            self._degraded = True
            self._degraded_count += 1
            self.supervisor.record_net_event(now, "net-degraded", reason)

    def _connection_lost(self, now: int, reason: str) -> None:
        self._enter_degraded(now, reason)

    def _deposed_reconnect(self, now: int) -> None:
        """The server expired our session: re-handshake immediately.

        Not a degraded transition — the wire works, only the session is
        stale.  The fresh handshake bumps the fencing token and
        :meth:`SessionSupervisor.adopt_token` announces the new epoch.
        """
        if self._endpoint is not None:
            try:
                self._endpoint.close()
            except Exception:
                pass
        self._endpoint = None
        self._connected = False
        self._awaiting_ack_since = None
        self._next_connect = 0.0
        self._ensure_connected(now)

    # -- wire plumbing ---------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> bool:
        if not self._connected or self._endpoint is None:
            return False
        try:
            self._endpoint.send(message)
            return True
        except (EndpointClosed, OSError):
            self._connection_lost(int(message.get("minute", self._global_min)),
                                  "send failed")
            return False

    def _service_network(self, now: int) -> None:
        """Drain inbound messages, pump retries, detect silence."""
        while self._deferred_attaches and self._connected:
            self._handle_attach(now, self._deferred_attaches.pop(0))
        while self._connected:  # a handled message may drop the link
            try:
                message = self._endpoint.recv(timeout=0.001)
            except (EndpointClosed, FrameError, OSError):
                self._connection_lost(now, "connection lost")
                break
            if message is None:
                break
            self._handle_inbound(now, message)
        self._pump_commits(now)
        if (
            self._connected
            and self._awaiting_ack_since is not None
            and time.monotonic() - self._awaiting_ack_since > self.ack_timeout
        ):
            self._enter_degraded(now, "no acknowledgements from server")

    def _handle_inbound(
        self, now: int, message: Dict[str, Any], defer_attach: bool = False
    ) -> None:
        try:
            validate_message(message)
        except ProtocolError as exc:
            # a peer that sends this cannot be followed: drop the link
            self._connection_lost(now, f"malformed message: {exc}")
            return
        self.clock.witness(int(message["clock"]))
        kind = message["kind"]
        if kind in _ACK_KINDS:
            self._awaiting_ack_since = None
        if kind == "heartbeat_ack":
            self._global_min = int(message["global_min"])
            if message["status"] == "deposed":
                self._deposed_reconnect(now)
        elif kind == "deregister_ack":
            self._deregistered = True
        elif kind == "escrow_reserve":
            self._handle_reserve(now, message)
        elif kind == "escrow_release":
            self._handle_release(now, message)
        elif kind == "escrow_attach":
            if defer_attach:
                self._deferred_attaches.append(message)
            else:
                self._handle_attach(now, message)
        elif kind == "escrow_committed":
            self._reply_box[(kind, message["escrow_id"])] = message
            self._finish_commit(now, message)
        elif kind in ("escrow_prepared", "escrow_aborted"):
            self._reply_box[(kind, message["escrow_id"])] = message
        elif kind == "reject":
            self._deposed_reconnect(now)

    def _maybe_heartbeat(self, now: int) -> None:
        if not self._connected:
            return
        wall = time.monotonic()
        if now - self._last_hb_minute < 5 and wall - self._last_hb_wall < 0.25:
            return
        if self._send(
            make_message(
                "heartbeat", self.clock.tick(), domain=self.domain, minute=now
            )
        ):
            self._last_hb_minute = now
            self._last_hb_wall = wall
            if self._awaiting_ack_since is None:
                self._awaiting_ack_since = wall

    def _await_reply(
        self, now: int, kind: str, escrow_id: str, timeout: float
    ) -> Optional[Dict[str, Any]]:
        """Wait for one escrow reply, servicing other inbound traffic.

        Inbound ``escrow_attach`` pushes are deferred (not executed
        mid-escrow) so the source-side escrow stays a straight-line
        critical section.
        """
        deadline = time.monotonic() + timeout
        key = (kind, escrow_id)
        while time.monotonic() < deadline:
            if key in self._reply_box:
                return self._reply_box.pop(key)
            if not self._connected:
                return None
            try:
                message = self._endpoint.recv(timeout=0.01)
            except (EndpointClosed, FrameError, OSError):
                self._connection_lost(now, "connection lost")
                return None
            if message is None:
                continue
            self._handle_inbound(now, message, defer_attach=True)
        return self._reply_box.pop(key, None)

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
        if not self._connected or self._degraded or self._token is None:
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
        self._escrow_seq += 1
        escrow_id = f"{self.domain}-esc-{self._escrow_seq:05d}"
        spec = self.view.service(instance.service_name).spec
        token = self._token
        sent = self._send(
            make_message(
                "escrow_request",
                self.clock.tick(),
                escrow_id=escrow_id,
                domain=self.domain,
                service=service_spec_to_dict(spec),
                users=instance.users,
                minute=now,
                token=token,
            )
        )
        if not sent:
            return None
        prepared = self._await_reply(now, "escrow_prepared", escrow_id, 2.0)
        if prepared is None:
            self._abort_escrow(now, escrow_id, "prepare timed out")
            return None
        if not prepared["ok"]:
            return None  # refused before any state changed; no events owed
        target_domain = str(prepared["target_domain"])
        target_host = str(prepared["target_host"])
        source_host = instance.host_name
        users = instance.users
        self._publish_escrow(
            now,
            EscrowPhase.PREPARE,
            escrow_id,
            spec.name,
            instance.instance_id,
            target_domain,
            source_host,
            target_host,
            token,
            note=f"reserved {target_domain}/{target_host}",
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
            instance.users = users
            self._publish_escrow(
                now,
                EscrowPhase.ABORT,
                escrow_id,
                spec.name,
                instance.instance_id,
                target_domain,
                source_host,
                target_host,
                token,
                note=f"detach failed: {exc}",
            )
            self._abort_escrow(now, escrow_id, f"detach failed: {exc}")
            return None
        self._publish_escrow(
            now,
            EscrowPhase.COMMIT,
            escrow_id,
            spec.name,
            instance.instance_id,
            target_domain,
            source_host,
            target_host,
            token,
        )
        self._pending_commits[escrow_id] = {
            "escrow_id": escrow_id,
            "instance_id": instance.instance_id,
            "service": spec.name,
            "users": users,
            "source_host": source_host,
            "target_domain": target_domain,
            "target_host": target_host,
            "token": token,
            "minute": now,
            "next_wall": time.monotonic() + 0.5,
        }
        self._send_commit(now, self._pending_commits[escrow_id])
        committed = self._await_reply(now, "escrow_committed", escrow_id, 0.75)
        if committed is not None:
            self._finish_commit(now, committed)
        # the commit reply may still be in flight; _pump_commits retries
        # (idempotently — the server caches its reply) until it resolves
        return outcome

    def _send_commit(self, now: int, pending: Dict[str, Any]) -> None:
        self._send(
            make_message(
                "escrow_commit",
                self.clock.tick(),
                escrow_id=pending["escrow_id"],
                domain=self.domain,
                instance_id=pending["instance_id"],
                source_host=pending["source_host"],
                minute=pending["minute"],
                token=pending["token"],
            )
        )

    def _pump_commits(self, now: int) -> None:
        if not self._pending_commits or not self._connected:
            return
        wall = time.monotonic()
        for pending in list(self._pending_commits.values()):
            if wall >= pending["next_wall"]:
                pending["next_wall"] = wall + 0.5
                self._send_commit(now, pending)

    def _finish_commit(self, now: int, reply: Dict[str, Any]) -> None:
        pending = self._pending_commits.pop(str(reply["escrow_id"]), None)
        if pending is None:
            return  # duplicate reply; already resolved
        if reply["ok"]:
            self._escrow_out_count += 1
            return
        self._compensate(now, pending, str(reply.get("note", "")))

    def _compensate(
        self, now: int, pending: Dict[str, Any], note: str
    ) -> None:
        """Commit was refused after detach: restart the instance here."""
        outcome = None
        try:
            outcome = self.supervisor.executor.execute(
                Action.SCALE_OUT,
                pending["service"],
                target_host=pending["source_host"],
                enforce_allowed=False,
                note=f"escrow {pending['escrow_id']} compensation",
            )
        except ActionError:
            outcome = None
        if outcome is not None and outcome.instance_id:
            try:
                self.view.instance(outcome.instance_id).users = pending["users"]
            except Exception:
                pass
        self._publish_escrow(
            now,
            EscrowPhase.ABORT,
            pending["escrow_id"],
            pending["service"],
            pending["instance_id"],
            pending["target_domain"],
            pending["source_host"],
            pending["target_host"],
            pending["token"],
            note=f"commit refused: {note}" if note else "commit refused",
        )

    def _abort_escrow(self, now: int, escrow_id: str, note: str) -> None:
        self._send(
            make_message(
                "escrow_abort",
                self.clock.tick(),
                escrow_id=escrow_id,
                domain=self.domain,
                minute=now,
                note=note,
            )
        )

    def _publish_escrow(
        self,
        now: int,
        phase: EscrowPhase,
        escrow_id: str,
        service_name: str,
        instance_id: str,
        target_domain: str,
        source_host: str,
        target_host: str,
        token: Optional[int],
        note: str = "",
    ) -> None:
        self.view.bus.publish(
            EscrowEvent(
                time=now,
                phase=phase,
                escrow_id=escrow_id,
                service_name=service_name,
                instance_id=instance_id,
                source_domain=self.domain,
                target_domain=target_domain,
                source_host=source_host,
                target_host=target_host,
                fencing_token=token,
                note=note,
            )
        )

    # -- escrow: target side -----------------------------------------------------------

    def _handle_reserve(self, now: int, message: Dict[str, Any]) -> None:
        escrow_id = str(message["escrow_id"])
        cached = self._reserve_replies.get(escrow_id)
        if cached is None:
            if escrow_id in self._released:
                cached = {"ok": False, "host": "", "note": "escrow released"}
            else:
                spec = service_spec_from_dict(message["service"])
                host_name, note = self._find_capacity(spec, escrow_id)
                if host_name is None:
                    cached = {"ok": False, "host": "", "note": note}
                else:
                    self._reservations[escrow_id] = {
                        "host": host_name,
                        "memory": spec.workload.memory_per_instance_mb,
                        "service": spec.name,
                    }
                    cached = {"ok": True, "host": host_name, "note": note}
            self._reserve_replies[escrow_id] = cached
        self._send(
            make_message(
                "escrow_reserved",
                self.clock.tick(),
                escrow_id=escrow_id,
                **cached,
            )
        )

    def _find_capacity(self, spec: ServiceSpec, escrow_id: str):
        """Pick the domain host with the most free memory that fits.

        Other unconsumed reservations' memory is held back, so two
        concurrent escrows cannot both be promised the same headroom.
        """
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
            reserved = sum(
                r["memory"]
                for other, r in self._reservations.items()
                if other != escrow_id and r["host"] == name
            )
            free = host.memory_free_mb(self.view.memory_of) - reserved
            if free < needed:
                continue
            if free > best_free:
                best_free = free
                best_name = name
        if best_name is None:
            return None, f"no host with {needed}MB free"
        return best_name, f"{best_free}MB free"

    def _handle_release(self, now: int, message: Dict[str, Any]) -> None:
        escrow_id = str(message["escrow_id"])
        self._reservations.pop(escrow_id, None)
        self._released.add(escrow_id)

    def _handle_attach(self, now: int, message: Dict[str, Any]) -> None:
        escrow_id = str(message["escrow_id"])
        cached = self._attach_replies.get(escrow_id)
        if cached is not None:
            self._send(
                make_message(
                    "escrow_attached",
                    self.clock.tick(),
                    escrow_id=escrow_id,
                    **cached,
                )
            )
            return
        if escrow_id in self._released:
            reply = {"ok": False, "note": "escrow released"}
        else:
            reply = self._attach(now, message)
        self._attach_replies[escrow_id] = reply
        self._reservations.pop(escrow_id, None)
        self._send(
            make_message(
                "escrow_attached",
                self.clock.tick(),
                escrow_id=escrow_id,
                **reply,
            )
        )

    def _attach(self, now: int, message: Dict[str, Any]) -> Dict[str, Any]:
        escrow_id = str(message["escrow_id"])
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
                target_host=str(message["host"]),
                enforce_allowed=False,
                note=f"escrow {escrow_id} attach from {message['source_domain']}",
            )
        except ActionError as exc:
            failure = str(exc)
        if outcome is None or not outcome.instance_id:
            self.view.bus.publish(
                EscrowEvent(
                    time=now,
                    phase=EscrowPhase.ABORT,
                    escrow_id=escrow_id,
                    service_name=spec.name,
                    instance_id="",
                    source_domain=str(message["source_domain"]),
                    target_domain=self.domain,
                    source_host=str(message["source_host"]),
                    target_host=str(message["host"]),
                    fencing_token=None,
                    note=f"attach failed: {failure}" if failure else "attach failed",
                )
            )
            return {"ok": False, "note": failure or "attach failed"}
        try:
            self.view.instance(outcome.instance_id).users = int(message["users"])
        except Exception:
            pass
        # the ATTACH event carries the *source domain's* fencing token:
        # AG301 scopes escrow phases to the source, and the token rode
        # along in the escrow_attach message for exactly this stamp
        self.view.bus.publish(
            EscrowEvent(
                time=now,
                phase=EscrowPhase.ATTACH,
                escrow_id=escrow_id,
                service_name=spec.name,
                instance_id=outcome.instance_id,
                source_domain=str(message["source_domain"]),
                target_domain=self.domain,
                source_host=str(message["source_host"]),
                target_host=str(message["host"]),
                fencing_token=int(message["token"]),
                note="",
            )
        )
        self._escrow_in_count += 1
        return {"ok": True, "note": ""}

    # -- the plane's part of the run snapshot, and of the run's end -----------------------

    def _snapshot_net(self) -> Dict[str, Any]:
        # the event rows must be committed before the snapshot that
        # points into them: resume keeps the rows up to its bus_seq
        self.events.flush()
        return {
            "clock": self.clock.time,
            "escrow_seq": self._escrow_seq,
            "incarnation": self._incarnation,
            "reservations": self._reservations,
            "released": sorted(self._released),
            "reserve_replies": self._reserve_replies,
            "attach_replies": self._attach_replies,
            "global_min": self._global_min,
        }

    def _restore_net(self, net: Dict[str, Any], now: int) -> None:
        """The ``net`` section of the snapshot the runner resumes from.

        Escrows that were mid-commit at the kill are deliberately *not*
        restored: the server's finalize synthesizes a coordinator abort
        for any escrow left without attach/abort, which keeps the merged
        trace AG302-clean (at the cost of the moved users, a documented
        double-fault loss).
        """
        self._minute = now
        self.clock.time = int(net["clock"])
        # cut the event log back to the snapshot, where the runner has
        # put the bus: everything after belongs to the abandoned
        # timeline between snapshot and kill
        self.events.truncate_after(self.view.bus.last_seq)
        self._escrow_seq = int(net["escrow_seq"])
        # a resumed process is a new incarnation: the handshake must
        # re-grant (and fence) rather than silently renew
        self._incarnation = int(net["incarnation"]) + 1
        self._reservations = dict(net.get("reservations", {}))
        self._released = set(net.get("released", []))
        self._reserve_replies = dict(net.get("reserve_replies", {}))
        self._attach_replies = dict(net.get("attach_replies", {}))
        self._global_min = int(net.get("global_min", self._global_min))

    def _close_session(self) -> None:
        """Deregister and hang up; the runner finalizes afterwards.

        In that order: an escrow attach (or a commit refusal's
        compensation) that still lands while the network is serviced is
        an action the result has to count.
        """
        self.events.flush()
        self._deregister(self._minute)
        self.events.close()  # what deregistering itself published
        if self._endpoint is not None:
            try:
                self._endpoint.close()
            except Exception:
                pass
        self._endpoint = None
        self._connected = False
        self._deregistered = True  # closed: a second close talks to nobody

    def _deregister(self, now: int, timeout: float = 5.0) -> None:
        """Tell the server this agent is done; bounded best-effort."""
        deadline = time.monotonic() + timeout
        last_deregister = 0.0
        while not self._deregistered and time.monotonic() < deadline:
            if not self._connected:
                self._next_connect = min(self._next_connect, deadline - 0.5)
                self._ensure_connected(now)
                if not self._connected:
                    time.sleep(0.02)
                    continue
            self._service_network(now)
            if time.monotonic() - last_deregister > 0.5:
                self._send(
                    make_message(
                        "deregister",
                        self.clock.tick(),
                        domain=self.domain,
                        minute=now,
                    )
                )
                last_deregister = time.monotonic()
            time.sleep(0.005)


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
