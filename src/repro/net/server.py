"""The coordinating federation server.

One server process (or thread — the CLI runs it in-process next to the
orchestrator) coordinates N per-domain agent processes:

* **sessions** — handshakes and heartbeats map onto per-domain
  :class:`~repro.core.state.LeaseStore` leases (see
  :mod:`repro.net.session`); a silent agent is deposed and its fencing
  token is bumped on the next handshake.
* **escrow brokering** — the two-phase cross-domain relocation protocol
  of :class:`repro.core.federation.FederatedControlPlane`, decomposed
  into RPCs.  Every escrow RPC is *idempotent*: replies are cached by
  escrow id, so chaos-duplicated or agent-retried requests re-send the
  original answer instead of double-applying.  Request and commit are
  *token-revalidated* against the source's live session, so a deposed
  agent's escrow is refused exactly like a fenced action.
* **finalization** — the wire carries control, the domain directory
  carries data: :meth:`FederationServer.finalize` reads each domain's
  ``summary.json`` and the Lamport-stamped ``events`` rows of its
  ``state.db`` (the file the server already holds open for the lease),
  merges the streams into one causally ordered trace and feeds it
  through the same :class:`~repro.analysis.verify.engine.TraceVerifier`
  the offline ``autoglobe verify`` front end uses.
* **wire chaos** — an optional :class:`~repro.net.chaos.NetFaultInjector`
  filters every message on both directions of every agent link.

Unresolved escrows — a source that committed into a partition and never
reached the target — are closed out at finalization with a synthesized
coordinator ABORT event, so merged traces of chaotic runs stay
AG302-complete: every prepared escrow reaches a terminal phase.
"""

from __future__ import annotations

import heapq
import itertools
import json
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.verify.engine import TraceVerifier, load_summary
from repro.core.state import STATE_FILE
from repro.net.chaos import NetChaosProfile, NetFaultInjector
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    ProtocolError,
    make_message,
    validate_message,
)
from repro.net.session import AgentSession, SessionManager
from repro.net.transport import EndpointClosed, TcpEndpoint
from repro.ops.store import TelemetryStore, read_store
from repro.telemetry.records import (
    TOPIC_ESCROW,
    EscrowEvent,
    EscrowPhase,
    record_to_dict,
)
from repro.telemetry.trace import (
    LamportClock,
    TraceEvent,
    merge_traces,
    write_trace,
)

__all__ = ["FederationServer", "merge_summaries"]

#: Wall-clock pause between sweeper passes (delayed chaos deliveries,
#: session expiry, escrow attach retries).
_SWEEP_SECONDS = 0.02
_ATTACH_RETRY_SECONDS = 0.5


class FederationServer:
    """Coordinates the multi-process federation for one run."""

    def __init__(
        self,
        domains: List[str],
        state_dir: Path,
        start_minute: int,
        horizon: int,
        net_chaos: Optional[NetChaosProfile] = None,
        sim_ttl_minutes: int = 30,
        wall_ttl_seconds: float = 10.0,
        wall_grace_seconds: float = 2.0,
        reserve_timeout: float = 2.0,
    ) -> None:
        self.domains = sorted(domains)
        self.state_dir = Path(state_dir)
        self.start_minute = start_minute
        self.horizon = horizon
        self.sessions = SessionManager(
            self.state_dir,
            start_minute,
            sim_ttl_minutes=sim_ttl_minutes,
            wall_ttl_seconds=wall_ttl_seconds,
            wall_grace_seconds=wall_grace_seconds,
        )
        self.clock = LamportClock()
        self.injector = (
            NetFaultInjector(net_chaos) if net_chaos is not None else None
        )
        self.reserve_timeout = reserve_timeout
        self._lock = threading.RLock()
        self._running = False
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        #: escrow_id -> ledger entry (state + fields for attach/abort)
        self._escrows: Dict[str, Dict[str, Any]] = {}
        #: (escrow_id, reply_kind) -> cached reply message (idempotency)
        self._replies: Dict[Tuple[str, str], Dict[str, Any]] = {}
        #: (reply_kind, escrow_id) -> [threading.Event, reply]
        self._waiters: Dict[Tuple[str, str], List[Any]] = {}
        #: escrow_id -> (target_domain, attach message, next retry wall)
        self._pending_attaches: Dict[str, List[Any]] = {}
        #: delayed chaos deliveries: (due, tiebreak, kind, payload)
        self._delayed: List[Tuple[float, int, str, Any]] = []
        self._delayed_counter = itertools.count()
        #: domain -> its ``summary.json``, as :meth:`finalize` read it
        self.domain_summaries: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        sweeper = threading.Thread(
            target=self._sweep_loop, name="federation-sweeper", daemon=True
        )
        sweeper.start()
        self._threads.append(sweeper)

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open a TCP listener; returns the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        listener.settimeout(0.5)
        self._listener = listener
        acceptor = threading.Thread(
            target=self._accept_loop, name="federation-acceptor", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        return listener.getsockname()[1]

    def serve_endpoint(self, endpoint: Any) -> None:
        """Serve one pre-connected endpoint (loopback tests)."""
        reader = threading.Thread(
            target=self._reader_loop, args=(endpoint,), daemon=True
        )
        reader.start()
        self._threads.append(reader)

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in accept();
                # where shutdown does not either, the accept timeout bounds it
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for session in list(self.sessions.sessions.values()):
            endpoint = session.endpoint
            if endpoint is not None:
                try:
                    endpoint.close()
                except Exception:
                    pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self.sessions.close()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                sock, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.serve_endpoint(TcpEndpoint(sock))

    # -- message plumbing --------------------------------------------------------------

    def _send(self, session: AgentSession, message: Dict[str, Any]) -> None:
        """Send to an agent, through the outbound chaos filter."""
        deliveries = [(message, 0.0)]
        if self.injector is not None:
            deliveries = self.injector.filter(
                session.domain, "out", session.minute, message
            )
        for payload, delay in deliveries:
            if delay > 0.0:
                with self._lock:
                    heapq.heappush(
                        self._delayed,
                        (
                            time.monotonic() + delay,
                            next(self._delayed_counter),
                            "send",
                            (session.domain, payload),
                        ),
                    )
            else:
                self._send_now(session, payload)

    def _send_now(self, session: AgentSession, message: Dict[str, Any]) -> None:
        endpoint = session.endpoint
        if endpoint is None:
            return
        try:
            endpoint.send(message)
        except (EndpointClosed, FrameError):
            pass  # the agent will reconnect and retry

    def _reader_loop(self, endpoint: Any) -> None:
        session: Optional[AgentSession] = None
        while self._running:
            try:
                message = endpoint.recv(timeout=0.5)
            except (EndpointClosed, FrameError):
                return
            if message is None:
                continue
            try:
                validate_message(message)
            except ProtocolError as exc:
                if not self._reject(endpoint, str(exc)):
                    return
                continue
            self.clock.witness(int(message["clock"]))
            domain = message.get("domain")
            minute = int(message.get("minute", self.start_minute))
            if self.injector is not None:
                # hello is filtered too: an "in"-partitioned agent must
                # not be able to void its partition by re-handshaking —
                # it stays degraded until the window passes
                link = domain if domain is not None else (
                    session.domain if session is not None else ""
                )
                deliveries = self.injector.filter(link, "in", minute, message)
            else:
                deliveries = [(message, 0.0)]
            for payload, delay in deliveries:
                if delay > 0.0:
                    with self._lock:
                        heapq.heappush(
                            self._delayed,
                            (
                                time.monotonic() + delay,
                                next(self._delayed_counter),
                                "handle",
                                (endpoint, payload),
                            ),
                        )
                else:
                    handled = self._dispatch(endpoint, payload)
                    if payload["kind"] == "hello" and handled is not None:
                        session = handled

    def _dispatch(
        self, endpoint: Any, message: Dict[str, Any]
    ) -> Optional[AgentSession]:
        kind = message["kind"]
        if kind == "hello":
            return self._handle_hello(endpoint, message)
        if kind in ("escrow_reserved", "escrow_attached"):
            # replies from the target side carry no domain field; they
            # are correlated purely by escrow id
            self._handle_reply(None, message)
            return None
        domain = str(message.get("domain", ""))
        session = self.sessions.sessions.get(domain)
        if session is None:
            self._reject(
                endpoint, f"no session for domain {domain!r}; handshake first"
            )
            return None
        handler = {
            "heartbeat": self._handle_heartbeat,
            "deregister": self._handle_deregister,
            "escrow_request": self._handle_escrow_request,
            "escrow_commit": self._handle_escrow_commit,
            "escrow_abort": self._handle_escrow_abort,
        }.get(kind)
        if handler is not None:
            handler(session, message)
        return None

    def _tick(self) -> int:
        with self._lock:
            return self.clock.tick()

    def _reject(self, endpoint: Any, reason: str) -> bool:
        """Refuse a message on its own connection; ``False``: it is gone."""
        try:
            endpoint.send(make_message("reject", self._tick(), reason=reason))
        except (EndpointClosed, FrameError):
            return False
        return True

    # -- handlers ----------------------------------------------------------------------

    def _handle_hello(
        self, endpoint: Any, message: Dict[str, Any]
    ) -> Optional[AgentSession]:
        domain = str(message["domain"])
        if message["schema_version"] < PROTOCOL_VERSION:
            # validate_message only knows a maximum: an older agent would
            # go on to send kinds this revision no longer has
            self._reject(
                endpoint,
                f"hello schema_version {message['schema_version']} is older "
                f"than this server's protocol version {PROTOCOL_VERSION}; "
                "upgrade the agent",
            )
            return None
        if domain not in self.domains:
            # the name becomes a directory under state_dir
            self._reject(endpoint, f"unknown domain {domain!r}")
            return None
        previous_token = self.sessions.current_token(domain)
        session = self.sessions.handshake(
            domain,
            int(message["incarnation"]),
            int(message["minute"]),
            endpoint=endpoint,
        )
        resumed = previous_token is not None and previous_token == session.token
        if not resumed:
            # the domain's epoch changed: every attach the old epoch
            # still has in flight must not land *after* the new epoch's
            # LEADER_EPOCH event, or the merged trace would show a
            # stale-token attach (AG301); the coordinator aborts them
            self._cancel_attaches_from(domain)
        # welcome.max_clock is the server's *global* Lamport time — it has
        # witnessed every message from every agent, so an agent rebasing
        # past it sorts its new epoch's events after everything already
        # delivered anywhere in the federation
        with self._lock:
            global_clock = self.clock.time
        # the welcome goes through the ordinary outbound filter: a lost
        # welcome is just a failed handshake the agent retries
        self._send(
            session,
            make_message(
                "welcome",
                self._tick(),
                token=session.token,
                session=session.holder,
                max_clock=global_clock,
                resumed=resumed,
            ),
        )
        # a reconnected agent may have missed its attach while partitioned
        self._kick_pending_attaches(domain)
        return session

    def _cancel_attaches_from(self, domain: str) -> None:
        """Abort unconfirmed attaches whose source epoch just changed."""
        releases = []
        with self._lock:
            for escrow_id in list(self._pending_attaches):
                entry = self._escrows.get(escrow_id, {})
                if entry.get("source_domain") != domain:
                    continue
                target_domain, __, __ = self._pending_attaches.pop(escrow_id)
                entry["state"] = "aborted"
                releases.append((escrow_id, target_domain))
        for escrow_id, target_domain in releases:
            target = self.sessions.sessions.get(target_domain)
            if target is not None:
                self._send(
                    target,
                    make_message(
                        "escrow_release",
                        self._tick(),
                        escrow_id=escrow_id,
                        note=f"source domain {domain} epoch changed mid-attach",
                    ),
                )

    def _handle_heartbeat(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        status = self.sessions.heartbeat(session.domain, int(message["minute"]))
        self._send(
            session,
            make_message(
                "heartbeat_ack",
                self._tick(),
                status=status,
                global_min=self.sessions.global_min_minute(self.domains),
            ),
        )

    def _handle_deregister(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        self.sessions.complete(session.domain)
        self._send_now(
            session, make_message("deregister_ack", self._tick())
        )

    # -- escrow brokering --------------------------------------------------------------

    def _cached_reply(
        self, session: AgentSession, escrow_id: str, kind: str
    ) -> bool:
        with self._lock:
            cached = self._replies.get((escrow_id, kind))
        if cached is not None:
            self._send(session, cached)
            return True
        return False

    def _reply_cached(
        self,
        session: AgentSession,
        escrow_id: str,
        message: Dict[str, Any],
    ) -> None:
        with self._lock:
            self._replies[(escrow_id, message["kind"])] = message
        self._send(session, message)

    def _handle_escrow_request(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        escrow_id = str(message["escrow_id"])
        if self._cached_reply(session, escrow_id, "escrow_prepared"):
            return
        token = int(message["token"])
        live_token = self.sessions.current_token(session.domain)
        if live_token is None or token != live_token:
            self._reply_cached(
                session,
                escrow_id,
                make_message(
                    "escrow_prepared",
                    self._tick(),
                    escrow_id=escrow_id,
                    ok=False,
                    target_domain="",
                    target_host="",
                    note="fenced: stale fencing token",
                ),
            )
            return
        target_domain, target_host, note = self._reserve_on_any_target(
            session.domain, escrow_id, message
        )
        ok = target_host != ""
        with self._lock:
            self._escrows[escrow_id] = {
                "state": "prepared" if ok else "refused",
                "source_domain": session.domain,
                "target_domain": target_domain,
                "target_host": target_host,
                "service": message["service"],
                "users": int(message["users"]),
                "token": token,
                "minute": int(message["minute"]),
                "service_name": str(message["service"].get("name", "")),
            }
        self._reply_cached(
            session,
            escrow_id,
            make_message(
                "escrow_prepared",
                self._tick(),
                escrow_id=escrow_id,
                ok=ok,
                target_domain=target_domain,
                target_host=target_host,
                note=note,
            ),
        )

    def _reserve_on_any_target(
        self, source_domain: str, escrow_id: str, message: Dict[str, Any]
    ) -> Tuple[str, str, str]:
        """Ask live peers (sorted order) to reserve a host; first ok wins."""
        notes = []
        for domain in self.domains:
            if domain == source_domain:
                continue
            target = self.sessions.sessions.get(domain)
            if target is None or target.deposed or target.completed:
                continue
            reply = self._rpc(
                target,
                make_message(
                    "escrow_reserve",
                    self._tick(),
                    escrow_id=escrow_id,
                    source_domain=source_domain,
                    service=message["service"],
                    users=int(message["users"]),
                    minute=int(message["minute"]),
                ),
                "escrow_reserved",
                escrow_id,
                timeout=self.reserve_timeout,
            )
            if reply is None:
                notes.append(f"{domain}: no answer")
                continue
            if reply.get("ok") and reply.get("host"):
                return domain, str(reply["host"]), f"reserved on {domain}"
            notes.append(f"{domain}: {reply.get('note', 'refused')}")
        return "", "", "; ".join(notes) if notes else "no live peer domains"

    def _handle_escrow_commit(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        escrow_id = str(message["escrow_id"])
        if self._cached_reply(session, escrow_id, "escrow_committed"):
            return
        with self._lock:
            entry = self._escrows.get(escrow_id)
        token = int(message["token"])
        live_token = self.sessions.current_token(session.domain)
        if entry is None or entry["state"] not in ("prepared", "committed"):
            ok, note = False, "unknown or unprepared escrow"
        elif live_token is None or token != live_token or token != entry["token"]:
            # a new epoch was granted between prepare and commit: the
            # commit is from a deposed leader, refuse it like a fenced
            # action — the source aborts and compensates locally
            ok, note = False, "fenced: session token changed since prepare"
        else:
            ok, note = True, "committed"
            with self._lock:
                entry["state"] = "committed"
                entry["source_host"] = str(message["source_host"])
                entry["instance_id"] = str(message["instance_id"])
        self._reply_cached(
            session,
            escrow_id,
            make_message(
                "escrow_committed",
                self._tick(),
                escrow_id=escrow_id,
                ok=ok,
                note=note,
            ),
        )
        if ok:
            self._queue_attach(escrow_id)

    def _queue_attach(self, escrow_id: str) -> None:
        with self._lock:
            entry = self._escrows[escrow_id]
            attach = make_message(
                "escrow_attach",
                self.clock.tick(),
                escrow_id=escrow_id,
                service=entry["service"],
                users=entry["users"],
                host=entry["target_host"],
                source_domain=entry["source_domain"],
                source_host=entry.get("source_host", ""),
                token=entry["token"],
                minute=entry["minute"],
            )
            self._pending_attaches[escrow_id] = [
                entry["target_domain"],
                attach,
                0.0,
            ]
        self._deliver_pending_attaches()

    def _kick_pending_attaches(self, domain: str) -> None:
        with self._lock:
            for pending in self._pending_attaches.values():
                if pending[0] == domain:
                    pending[2] = 0.0
        self._deliver_pending_attaches()

    def _deliver_pending_attaches(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [
                (escrow_id, pending)
                for escrow_id, pending in self._pending_attaches.items()
                if pending[2] <= now
            ]
            for __, pending in due:
                pending[2] = now + _ATTACH_RETRY_SECONDS
        for escrow_id, (target_domain, attach, __) in due:
            target = self.sessions.sessions.get(target_domain)
            if target is not None and not target.completed:
                self._send(target, attach)

    def _handle_escrow_abort(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        escrow_id = str(message["escrow_id"])
        if not self._cached_reply(session, escrow_id, "escrow_aborted"):
            target_session = None
            with self._lock:
                entry = self._escrows.get(escrow_id)
                if entry is not None and entry["state"] in ("prepared", "refused"):
                    entry["state"] = "aborted"
                    target_session = self.sessions.sessions.get(
                        entry["target_domain"]
                    )
            if target_session is not None:
                self._send(
                    target_session,
                    make_message(
                        "escrow_release",
                        self._tick(),
                        escrow_id=escrow_id,
                        note=str(message.get("note", "")),
                    ),
                )
            self._reply_cached(
                session,
                escrow_id,
                make_message(
                    "escrow_aborted", self._tick(), escrow_id=escrow_id
                ),
            )

    def _handle_reply(
        self, session: AgentSession, message: Dict[str, Any]
    ) -> None:
        if message["kind"] == "escrow_attached":
            escrow_id = str(message["escrow_id"])
            with self._lock:
                self._pending_attaches.pop(escrow_id, None)
                entry = self._escrows.get(escrow_id)
                if entry is not None:
                    entry["state"] = "attached" if message["ok"] else "aborted"
        self._resolve_waiter(message["kind"], message)

    # -- request/response correlation ---------------------------------------------------

    def _rpc(
        self,
        target: AgentSession,
        message: Dict[str, Any],
        reply_kind: str,
        escrow_id: str,
        timeout: float,
    ) -> Optional[Dict[str, Any]]:
        event = threading.Event()
        waiter: List[Any] = [event, None]
        key = (reply_kind, escrow_id)
        with self._lock:
            self._waiters[key] = waiter
        try:
            self._send(target, message)
            event.wait(timeout)
            return waiter[1]
        finally:
            with self._lock:
                self._waiters.pop(key, None)

    def _resolve_waiter(self, kind: str, message: Dict[str, Any]) -> None:
        key = (kind, str(message.get("escrow_id", "")))
        with self._lock:
            waiter = self._waiters.get(key)
        if waiter is not None:
            waiter[1] = message
            waiter[0].set()

    # -- background sweeper ------------------------------------------------------------

    def _sweep_loop(self) -> None:
        while self._running:
            now = time.monotonic()
            ready: List[Tuple[str, Any]] = []
            with self._lock:
                while self._delayed and self._delayed[0][0] <= now:
                    __, __, kind, payload = heapq.heappop(self._delayed)
                    ready.append((kind, payload))
            for kind, payload in ready:
                if kind == "send":
                    domain, message = payload
                    session = self.sessions.sessions.get(domain)
                    if session is not None:
                        self._send_now(session, message)
                else:
                    endpoint, message = payload
                    self._dispatch(endpoint, message)
            self.sessions.sweep()
            self._deliver_pending_attaches()
            time.sleep(_SWEEP_SECONDS)

    # -- finalization ------------------------------------------------------------------

    def _synthesize_aborts(
        self, merged: List[TraceEvent]
    ) -> List[TraceEvent]:
        """Coordinator ABORT events for escrows with no terminal phase.

        A source that committed into a partition (or died) may never
        reach its target: the merged trace would end with a prepared or
        committed escrow and no attach/abort, which AG302 rightly flags
        on a complete trace.  The coordinator owns the escrow outcome,
        so it closes such escrows with an abort carrying the escrow's
        own fencing token.
        """
        phases: Dict[str, set] = {}
        last_time = 0
        max_clock = 0
        for event in merged:
            record = event.record
            if event.clock is not None:
                max_clock = max(max_clock, event.clock)
            time_value = record.get("time")
            if isinstance(time_value, int):
                last_time = max(last_time, time_value)
            if "escrow_id" in record and "phase" in record:
                phases.setdefault(str(record["escrow_id"]), set()).add(
                    str(record["phase"])
                )
        synthesized: List[TraceEvent] = []
        with self._lock:
            for escrow_id in sorted(phases):
                seen = phases[escrow_id]
                if seen & {"attach", "abort"}:
                    continue
                entry = self._escrows.get(escrow_id, {})
                max_clock += 1
                record = record_to_dict(
                    EscrowEvent(
                        time=last_time,
                        phase=EscrowPhase.ABORT,
                        escrow_id=escrow_id,
                        service_name=str(entry.get("service_name", "")),
                        instance_id=str(entry.get("instance_id", "")),
                        source_domain=str(entry.get("source_domain", "")),
                        target_domain=str(entry.get("target_domain", "")),
                        source_host=str(entry.get("source_host", "")),
                        target_host=str(entry.get("target_host", "")),
                        fencing_token=entry.get("token"),
                        note="coordinator abort: escrow unresolved at run end",
                    )
                )
                synthesized.append(
                    TraceEvent(
                        seq=len(synthesized) + 1,
                        topic=TOPIC_ESCROW,
                        record=record,
                        clock=max_clock,
                    )
                )
                if entry:
                    entry["state"] = "aborted"
        return synthesized

    def finalize(
        self,
        out_dir: Path,
        ignore: Tuple[str, ...] = (),
        name: str = "multiproc",
        store_path: Optional[Path] = None,
    ):
        """Merge, verify and export the federation's run artifacts.

        Reads what each agent left in its domain directory —
        ``summary.json`` (kept as :attr:`domain_summaries`) and the
        ``events`` rows of ``state.db``, complete under any wire chaos
        because they never crossed the wire — and raises
        ``RuntimeError`` for a domain that wrote no summary.
        ``store_path`` additionally writes every per-source stream into
        one SQLite event store
        (:class:`repro.ops.store.TelemetryStore`); reading the store
        back merges the sources by Lamport clock into the same stream
        verified here.  Both outputs replace what an earlier run left
        at their paths.  Returns ``(report, merged_summary,
        merged_trace_path)``.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        complete = True
        sources = []
        for domain in self.domains:
            summary_path = self.state_dir / domain / "summary.json"
            if not summary_path.exists():
                raise RuntimeError(
                    f"agent {domain} finished without writing {summary_path}"
                )
            self.domain_summaries[domain] = load_summary(summary_path)
            header, events = read_store(self.state_dir / domain / STATE_FILE)
            complete = complete and header.complete
            sources.append((domain, events))
        merged = merge_traces(sources)
        synthesized = self._synthesize_aborts(merged)
        if synthesized:
            merged = merge_traces([("", merged), ("server", synthesized)])
        if store_path is not None:
            with TelemetryStore(store_path) as event_store:
                event_store.clear()
                for domain, events in [*sources, ("server", synthesized)]:
                    event_store.insert_events(
                        domain,
                        [
                            (e.seq, e.topic, e.record, e.clock)
                            for e in events
                        ],
                    )
                event_store.mark_complete(complete)
        merged_summary = merge_summaries(self.domain_summaries, self.horizon)
        verifier = TraceVerifier(ignore=ignore)
        for event in merged:
            verifier.feed(event)
        report = verifier.report(
            name, complete=complete, summary=merged_summary
        )
        trace_path = out_dir / "telemetry.jsonl"
        write_trace(trace_path, merged, complete=complete)
        (out_dir / "summary.json").write_text(
            json.dumps(merged_summary, indent=2), encoding="utf-8"
        )
        return report, merged_summary, trace_path


#: Summary keys that add up across domains.
_SUMMED_KEYS = (
    "total_overload_minutes",
    "episode_count",
    "action_count",
    "escalation_count",
    "total_down_minutes",
    "downtime_episode_count",
    "injected_fault_count",
    "retried_action_count",
    "compensated_action_count",
    "failed_action_count",
    "fenced_action_count",
    "controller_down_minutes",
    "controller_crash_count",
    "leader_partition_count",
    "expired_approval_count",
    "pending_approval_count",
)


def merge_summaries(
    summaries: Dict[str, Dict[str, Any]], horizon: int
) -> Dict[str, Any]:
    """Fold per-agent run summaries into one federation summary.

    Counters sum; per-service availability tables union (service homes
    are disjoint across domains, and an adopted service is accounted by
    exactly one agent — its adopter — after its source scales to zero);
    the headline availability figures are recomputed from the merged
    table.  The result satisfies the same AG305 accounting identities
    against the merged trace that each agent's summary satisfies against
    its own stream.
    """
    merged: Dict[str, Any] = {
        "schema": "multiproc-merged",
        "domains": sorted(summaries),
        "horizon_minutes": horizon,
    }
    per_domain = [summaries[d] for d in sorted(summaries)]
    if not per_domain:
        return merged
    first = per_domain[0]
    for key in ("scenario", "user_factor", "start_minute"):
        if key in first:
            merged[key] = first[key]
    for key in _SUMMED_KEYS:
        values = [s.get(key) for s in per_domain if key in s]
        if values:
            merged[key] = sum(values)
    action_counts: Dict[str, int] = {}
    availability: Dict[str, Dict[str, Any]] = {}
    host_down: Dict[str, int] = {}
    instance_counts: Dict[str, int] = {}
    expired_by_service: Dict[str, int] = {}
    for summary in per_domain:
        for action, count in (summary.get("action_counts") or {}).items():
            action_counts[action] = action_counts.get(action, 0) + int(count)
        for name, count in (
            summary.get("expired_approvals_by_service") or {}
        ).items():
            expired_by_service[name] = expired_by_service.get(name, 0) + int(
                count
            )
        for name, record in (summary.get("availability_by_service") or {}).items():
            if name in availability:
                down = availability[name]["down_minutes"] + int(
                    record.get("down_minutes", 0)
                )
                episodes = availability[name]["episode_count"] + int(
                    record.get("episode_count", 0)
                )
            else:
                down = int(record.get("down_minutes", 0))
                episodes = int(record.get("episode_count", 0))
            availability[name] = {
                "availability": (
                    (horizon - down) / horizon if horizon else 1.0
                ),
                "down_minutes": down,
                "episode_count": episodes,
                "mttr_minutes": (down / episodes) if episodes else 0.0,
            }
        for host, minutes in (summary.get("host_down_minutes") or {}).items():
            host_down[host] = host_down.get(host, 0) + int(minutes)
        for name, count in (summary.get("final_instance_counts") or {}).items():
            instance_counts[name] = instance_counts.get(name, 0) + int(count)
    merged["action_counts"] = action_counts
    merged["availability_by_service"] = availability
    merged["host_down_minutes"] = host_down
    merged["final_instance_counts"] = instance_counts
    merged["expired_approvals_by_service"] = dict(
        sorted(expired_by_service.items())
    )
    if availability:
        merged["mean_availability"] = sum(
            record["availability"] for record in availability.values()
        ) / len(availability)
    merged["violates_default_sla"] = any(
        s.get("violates_default_sla") for s in per_domain
    )
    return merged
