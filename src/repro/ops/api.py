"""The live management API: asyncio HTTP + WebSocket, stdlib only.

Two halves, meeting at a thread boundary:

* :class:`OpsBridge` lives on the *simulation* side.  The runner calls
  :meth:`OpsBridge.refresh` at every tick boundary, which rebuilds the
  lock-protected situations, approvals and summary snapshots and
  *captures* the landscape: fresh copies of the columnar
  :class:`~repro.serviceglobe.landscape_state.LandscapeState`'s load,
  count and users columns and of each service's priority, rendered to
  the ``/state`` dict by :meth:`OpsBridge.snapshot` once per tick
  somebody asks.  While anybody listens, the bridge also converts
  every envelope once and hands it to the listeners — still on the
  simulation thread, so the fan-out into the server's event loop is a
  single ``call_soon_threadsafe`` per envelope.
* :class:`OpsServer` runs an asyncio event loop on a background thread.
  GET endpoints serve the bridge's snapshots; ``/events`` upgrades to a
  WebSocket.  The server listens on the bridge while it has a
  subscriber, encodes each envelope to its frame once and queues the
  bytes: per-client bounded queues implement drop-counting
  backpressure (a stalled client loses events and is told how many, but
  can never block the simulation tick or starve other clients), and
  :meth:`OpsServer.stop` drains them.  The approve/reject POST
  endpoints validate against the approvals snapshot and post an
  :class:`~repro.core.alerts.ApprovalCommand` into the control plane's
  thread-safe command queue, drained at the next tick.  The bridge
  reads the run's :class:`~repro.core.federation.FederatedControlPlane`
  through its accessors only: ``leaders()`` for the situation and
  selector views, ``approvals()`` for the approval view.  The message
  view is the last alerts the bridge saw on the bus, whichever replica
  raised them; the action count is the run's result collector's.

The server never touches simulation state directly: snapshots flow
sim-thread -> bridge -> server, verdicts flow server -> command queue ->
tick.  With no verdicts posted, a served run is byte-identical to an
unserved one.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.alerts import ApprovalCommand
from repro.telemetry.bus import Envelope, EventBus, WILDCARD
from repro.telemetry.records import TOPIC_ALERTS, record_payload

__all__ = ["OpsBridge", "OpsServer"]

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Events a slow WebSocket client may have in flight before drops begin.
CLIENT_QUEUE_LIMIT = 256

#: Largest client frame the server reads; the stream is one-way, so a
#: longer one is answered with close 1009 instead of being buffered.
MAX_CLIENT_FRAME = 1 << 16

#: Header lines a request may carry before it is answered with 431.
MAX_HEADER_LINES = 100

#: Seconds :meth:`OpsServer.stop` gives reading clients to take their queue.
DRAIN_TIMEOUT_S = 1.0

#: What the server still reads of a request it refused before closing:
#: closing on unread bytes sends an RST, which can discard the answer.
REFUSED_DRAIN_BYTES = 1 << 20
REFUSED_DRAIN_S = 0.5

#: Administrative messages ``/situations`` carries, newest last (Figure 8).
MESSAGE_LIMIT = 20

Listener = Callable[[Dict[str, Any]], None]


def _ws_frame(text: str) -> bytes:
    """One unmasked RFC 6455 text frame."""
    data = text.encode("utf-8")
    length = len(data)
    if length < 126:
        header = struct.pack("!BB", 0x81, length)
    elif length < 1 << 16:
        header = struct.pack("!BBH", 0x81, 126, length)
    else:
        header = struct.pack("!BBQ", 0x81, 127, length)
    return header + data


def _render_landscape(capture: Tuple[Any, ...]) -> Dict[str, Any]:
    """The ``/state`` dict of one :meth:`OpsBridge.refresh` capture: Python
    floats and ``round`` (not ``np.round``), as ``LandscapeState``'s scalar reads."""
    (now, names, placement, up, cpu, mem,
     running, demand, loads, priorities, users) = capture
    _, hosts, services, _, _, categories, perf, kinds, _ = names
    _, instances, service_placement, service_rows = placement
    return {
        "time": now,
        "hosts": [
            {"name": name, "category": category, "perf_index": perf_index,
             "up": is_up, "cpu_load": round(cpu_load, 6),
             "mem_load": round(mem_load, 6), "instances": ids}
            for name, category, perf_index, is_up, cpu_load, mem_load, ids in zip(
                hosts, categories, perf, up.tolist(), cpu.tolist(), mem.tolist(),
                instances)
        ],
        "services": [
            {"name": name, "kind": kind, "priority": priority,
             "running_instances": count, "users": sum(users[row] for row in rows),
             "demand": round(total, 6),
             "load": round(load_sum / count if count else 0.0, 6),
             "placement": where}
            for name, kind, priority, count, rows, total, load_sum, where in zip(
                services, kinds, priorities, running.tolist(), service_rows,
                demand.tolist(), loads.tolist(), service_placement)
        ],
    }


class OpsBridge:
    """Thread-safe snapshot mirror and command router for one run.

    ``control_plane`` is the run's
    :class:`~repro.core.federation.FederatedControlPlane`: its leaders
    give the situation view, its approvals the approval view, and its
    thread-safe ``commands`` queue takes the verdicts.  The message view
    is the last :data:`MESSAGE_LIMIT` alerts published on the bus since
    :meth:`attach`.  ``collector`` is the run's
    :class:`~repro.sim.results.ResultCollector`, whose action count
    ``/summary`` shows (``None`` without one).
    """

    def __init__(
        self,
        platform: Any,
        control_plane: Any,
        run_info: Optional[Dict[str, Any]] = None,
        collector: Any = None,
    ) -> None:
        self.platform = platform
        self.control_plane = control_plane
        self.collector = collector
        self.run_info = dict(run_info or {})
        self._lock = threading.Lock()
        #: the last boundary's capture; the one ``/state`` was rendered from
        self._landscape: Tuple[Any, ...] = ()
        self._rendered = self._landscape
        #: names, ids and static identity by registry_version; instance
        #: ids, placement and user rows by topology_version
        self._names: Tuple[Any, ...] = (-1,)
        self._instances: Tuple[Any, ...] = (-1,)
        #: the message view: the last alerts published, formatted
        self._messages: Deque[str] = deque(maxlen=MESSAGE_LIMIT)
        self._snapshots: Dict[str, Any] = {
            "landscape": {"time": None, "hosts": [], "services": []},
            "situations": {"time": None, "open": [], "handled": 0, "recent": [],
                           "protected": [], "messages": []},
            "approvals": {"time": None, "requests": []},
            "summary": dict(self.run_info, time=None),
        }
        self._listeners: List[Listener] = []
        self._bus: Optional[EventBus] = None
        self.events_seen = 0
        self.commands_posted = 0

    # -- event fan-out (simulation thread) ------------------------------------------

    def attach(self, bus: EventBus) -> None:
        if self._bus is not None:
            raise RuntimeError("ops bridge is already attached")
        bus.subscribe(WILDCARD, self._on_envelope)
        self._bus = bus

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(WILDCARD, self._on_envelope)
            self._bus = None

    def add_listener(self, listener: Listener) -> None:
        with self._lock:
            self._listeners = self._listeners + [listener]

    def remove_listener(self, listener: Listener) -> None:
        with self._lock:
            self._listeners = [l for l in self._listeners if l != listener]

    def _on_envelope(self, envelope: Envelope) -> None:
        self.events_seen += 1
        if envelope.topic == TOPIC_ALERTS:
            self._messages.append(str(envelope.record))
        listeners = self._listeners
        if not listeners:
            return
        payload = {
            "seq": envelope.seq,
            "topic": envelope.topic,
            "record": record_payload(envelope.record),
        }
        for listener in listeners:
            listener(payload)

    # -- snapshots (rebuilt on the simulation thread) --------------------------------

    @staticmethod
    def _summed(counters: List[Dict[str, int]]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for counter in counters:
            for name, count in counter.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def _server_selectors(self) -> List[Any]:
        """The federation's own selector (control domains only), then the
        leaders'."""
        plane = self.control_plane
        own = [] if plane.server_selector is None else [plane.server_selector]
        return own + [leader.server_selector for leader in plane.leaders()]

    def server_selection_stats(self) -> Dict[str, int]:
        """``ServerSelector.stats`` summed over the run's controllers."""
        return self._summed([selector.stats for selector in self._server_selectors()])

    def fuzzy_stats(self) -> Dict[str, Dict[str, int]]:
        """The compiled-program counters of both fuzzy controllers."""
        return {
            "action": self._summed([
                leader.action_selector.fuzzy_stats
                for leader in self.control_plane.leaders()
            ]),
            "server": self._summed(
                [selector.fuzzy_stats for selector in self._server_selectors()]
            ),
        }

    def _capture_landscape(self, now: int) -> Tuple[Any, ...]:
        """Copies of the columns ``/state`` shows (fancy indexing copies)."""
        platform = self.platform
        state = platform.landscape_state
        if self._names[0] != state.registry_version:
            hosts, services = list(platform.hosts), sorted(platform.services)
            host_ids, service_ids = state.host_index.ids, state.service_index.ids
            definitions = [platform.services[name] for name in services]
            self._names = (
                state.registry_version, hosts, services,
                np.array([host_ids[name] for name in hosts], dtype=np.intp),
                np.array([service_ids[name] for name in services], dtype=np.intp),
                [host.spec.category for host in platform.hosts.values()],
                [host.performance_index for host in platform.hosts.values()],
                [definition.spec.kind.value for definition in definitions],
                definitions,
            )
        _, _, _, hids, sids, *_, definitions = self._names
        if self._instances[0] != state.topology_version:
            running = [definition.running_instances for definition in definitions]
            self._instances = (state.topology_version, [
                [instance.instance_id for instance in host.running_instances]
                for host in platform.hosts.values()
            ], [
                [f"{instance.instance_id}@{instance.host_name}" for instance in members]
                for members in running
            ], [[instance.state_id for instance in members] for members in running])
        return (
            now, self._names, self._instances, state.host_up[hids],
            np.minimum(state.host_demand[hids] / state.host_perf_index[hids], 1.0),
            np.minimum(state.host_mem_used[hids] / state.host_memory_mb[hids], 1.0),
            state.service_running[sids], state.service_demand_sum[sids],
            state.service_load_sum[sids],
            [definition.priority for definition in definitions],
            list(state.inst_users),
        )

    def _situations_snapshot(self, now: int) -> Dict[str, Any]:
        open_observations: List[Dict[str, Any]] = []
        handled = 0
        recent: List[str] = []
        protected: List[str] = []
        for controller in self.control_plane.leaders():
            open_observations.extend(controller.lms.snapshot_state())
            handled += controller.situations_handled
            recent.extend(str(situation) for situation in controller.recent_situations)
            protected.extend(controller.protection.protected_subjects(now))
        return {
            "time": now,
            "open": open_observations,
            "handled": handled,
            "recent": recent[-20:],
            "protected": sorted(set(protected)),
            "messages": list(self._messages),
        }

    def _approvals_snapshot(self, now: int) -> Dict[str, Any]:
        requests = [
            {
                "request_id": request.request_id,
                "time": request.time,
                "description": request.description,
                "status": request.status,
                "answered_at": request.answered_at,
                "service_name": request.service_name,
                "executed": request.executed,
                "action": request.action,
            }
            for request in self.control_plane.approvals()
        ]
        return {"time": now, "requests": requests}

    def _summary_snapshot(self, now: int) -> Dict[str, Any]:
        plane = self.control_plane
        summary = dict(self.run_info)
        summary.update(
            time=now,
            events_seen=self.events_seen,
            actions=(
                self.collector.action_count if self.collector is not None else None
            ),
            pending_approvals=len(plane.approvals("pending")),
            expired_approvals=len(plane.approvals("expired")),
            commands_posted=self.commands_posted,
        )
        return summary

    def refresh(self, now: int) -> None:
        """Capture the landscape, rebuild the rest; called at tick boundaries."""
        landscape = self._capture_landscape(now)
        situations = self._situations_snapshot(now)
        approvals = self._approvals_snapshot(now)
        summary = self._summary_snapshot(now)
        with self._lock:
            self._landscape = landscape
            self._snapshots["situations"] = situations
            self._snapshots["approvals"] = approvals
            self._snapshots["summary"] = summary

    def snapshot(self, name: str) -> Any:
        """The named snapshot as of the last tick boundary (any thread)."""
        with self._lock:
            capture = self._landscape
            if name != "landscape" or capture is self._rendered:
                return self._snapshots[name]
        rendered = _render_landscape(capture)  # once per boundary asked
        with self._lock:
            self._snapshots[name], self._rendered = rendered, capture
        return rendered

    # -- verdicts (any thread) --------------------------------------------------------

    def post_verdict(self, request_id: str, approve: bool) -> Tuple[bool, str]:
        """Validate a verdict against the approvals snapshot and post it.

        Validation races the simulation by design (the snapshot is one
        tick old at worst); the controller's own drain re-checks and
        ignores verdicts for answered or expired requests.
        """
        with self._lock:
            requests = self._snapshots["approvals"]["requests"]
        known = {entry["request_id"]: entry for entry in requests}
        entry = known.get(request_id)
        if entry is None:
            return False, f"unknown approval request: {request_id}"
        if entry["status"] != "pending":
            return False, f"request {request_id} is already {entry['status']}"
        self.control_plane.commands.post(ApprovalCommand(request_id, approve))
        self.commands_posted += 1
        verdict = "approve" if approve else "reject"
        return True, f"{verdict} {request_id} queued for the next tick"


class _WSClient:
    """One connected ``/events`` subscriber."""

    _ids = 0

    def __init__(
        self, writer: asyncio.StreamWriter, handler: "asyncio.Task[None]"
    ) -> None:
        _WSClient._ids += 1
        self.id = _WSClient._ids
        self.writer = writer
        #: the connection's handler task, awaited on shutdown
        self.handler = handler
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=CLIENT_QUEUE_LIMIT)
        #: drops not yet surfaced in-band (reset when the notice sends)
        self.dropped = 0
        #: lifetime drops, for ``/stats`` — never reset
        self.dropped_total = 0
        self.delivered = 0
        self.closed = False


class OpsServer:
    """The asyncio HTTP/WebSocket server on its background thread.

    Endpoints::

        GET  /                    endpoint index
        GET  /state               landscape snapshot (columnar read)
        GET  /situations          open observations + recently handled
        GET  /approvals           every approval request and its status
        GET  /summary             run summary counters
        GET  /stats               server + per-client backpressure stats
        POST /approvals/<id>/approve
        POST /approvals/<id>/reject
        GET  /events              WebSocket: live envelope stream

    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    after :meth:`start` returns.
    """

    def __init__(
        self, bridge: OpsBridge, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.bridge = bridge
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._clients: List[_WSClient] = []
        self.events_forwarded = 0

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "OpsServer":
        if self._thread is not None:
            raise RuntimeError("ops server already started")
        self._thread = threading.Thread(
            target=self._run, name="ops-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("ops server failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"ops server failed to start: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        self.bridge.remove_listener(self._on_event)
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup races
            self._startup_error = error
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_event.wait()
            await self._close_clients()

    async def _close_clients(self) -> None:
        """Drain and close every ``/events`` subscriber; let its handler finish.

        A client gets what its queue holds and then the close frame if
        it takes them within ``DRAIN_TIMEOUT_S``; one whose queue is
        full was stalled already and is aborted at once.  A handler
        still running when ``asyncio.run`` returns is cancelled, which
        the stream protocol logs as an error; closing the transport
        ends its read with EOF instead.
        """
        handlers = [client.handler for client in self._clients]
        for client in self._clients:
            client.closed = True  # its sender stops; the rest goes out here
            if client.queue.full():
                client.writer.transport.abort()
            else:
                going_away = struct.pack("!BBH", 0x88, 2, 1001)
                client.writer.write(self._take_queued(client, []) + going_away)
                client.writer.close()  # once the peer has taken all of it
        if handlers:
            await asyncio.wait(handlers, timeout=DRAIN_TIMEOUT_S)
            for client in self._clients:  # not taken in time: stalled after all
                client.writer.transport.abort()
            await asyncio.wait(handlers, timeout=5.0)

    # -- event fan-out ----------------------------------------------------------------

    def _on_event(self, payload: Dict[str, Any]) -> None:
        """Called on the simulation thread for every published envelope."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._fan_out, payload)
        except RuntimeError:
            pass  # server shutting down

    def _fan_out(self, payload: Dict[str, Any]) -> None:
        self.events_forwarded += 1
        frame = _ws_frame(json.dumps(payload))  # encoded once, for every client
        for client in self._clients:
            if client.closed:
                continue
            try:
                client.queue.put_nowait(frame)
            except asyncio.QueueFull:
                # backpressure: the stalled client loses this event and
                # is told how many it lost once it drains again
                client.dropped += 1
                client.dropped_total += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "events_forwarded": self.events_forwarded,
            "server_selection": self.bridge.server_selection_stats(),
            "fuzzy": self.bridge.fuzzy_stats(),
            "clients": [
                {
                    "id": client.id,
                    "queued": client.queue.qsize(),
                    "delivered": client.delivered,
                    "dropped": client.dropped_total,
                }
                for client in self._clients
            ],
        }

    # -- HTTP -------------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line = await reader.readline()
                if not request_line:
                    return
                headers: Dict[str, str] = {}
                for _n in range(MAX_HEADER_LINES + 1):
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                else:
                    raise ValueError("too many header lines")
            except ValueError:  # or a line over the stream's 64 KiB limit
                await self._refuse(reader, writer, 431, "header too large")
                return
            try:
                method, path, _ = request_line.decode("latin-1").split(" ", 2)
                length = int(headers.get("content-length") or "0")
                if length < 0:
                    raise ValueError("negative content length")
            except ValueError:
                await self._refuse(reader, writer, 400, "malformed request")
                return
            if length > MAX_CLIENT_FRAME:
                await self._refuse(reader, writer, 413, "body too large")
                return
            if length:
                await reader.readexactly(length)
            if (
                path == "/events"
                and "websocket" in headers.get("upgrade", "").lower()
            ):
                await self._websocket(reader, writer, headers)
                return
            await self._route(writer, method.upper(), path)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str
    ) -> None:
        if method == "GET":
            if path == "/":
                await self._respond(
                    writer,
                    200,
                    {
                        "endpoints": [
                            "/state",
                            "/situations",
                            "/approvals",
                            "/summary",
                            "/stats",
                            "/events (websocket)",
                            "POST /approvals/<id>/approve",
                            "POST /approvals/<id>/reject",
                        ]
                    },
                )
                return
            if path == "/state":
                await self._respond(writer, 200, self.bridge.snapshot("landscape"))
                return
            if path == "/situations":
                await self._respond(writer, 200, self.bridge.snapshot("situations"))
                return
            if path == "/approvals":
                await self._respond(writer, 200, self.bridge.snapshot("approvals"))
                return
            if path == "/summary":
                await self._respond(writer, 200, self.bridge.snapshot("summary"))
                return
            if path == "/stats":
                await self._respond(writer, 200, self.stats())
                return
        elif method == "POST":
            parts = path.strip("/").split("/")
            if (
                len(parts) == 3
                and parts[0] == "approvals"
                and parts[2] in ("approve", "reject")
            ):
                ok, message = self.bridge.post_verdict(
                    parts[1], parts[2] == "approve"
                )
                await self._respond(
                    writer, 200 if ok else 409, {"ok": ok, "message": message}
                )
                return
        await self._respond(writer, 404, {"error": f"no such endpoint: {path}"})

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        status: int,
        error: str,
    ) -> None:
        """Answer a request the server will not read to its end.

        The answer goes out, then the server half-closes and reads what
        the client still sends — until EOF, :data:`REFUSED_DRAIN_BYTES`
        or :data:`REFUSED_DRAIN_S` — so that its close is a FIN: a close
        with unread bytes is an RST, which can reach the client before
        the answer and discard it.
        """
        await self._respond(writer, status, {"error": error})
        try:
            writer.write_eof()
            remaining = REFUSED_DRAIN_BYTES
            deadline = asyncio.get_running_loop().time() + REFUSED_DRAIN_S
            while remaining > 0:
                left = deadline - asyncio.get_running_loop().time()
                if left <= 0:
                    break
                try:
                    chunk = await asyncio.wait_for(reader.read(min(remaining, 65536)), left)
                except asyncio.TimeoutError:
                    break
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:  # the peer reset first: shutdown() raises ENOTCONN
            pass

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
            413: "Payload Too Large", 431: "Request Header Fields Too Large",
        }
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- WebSocket --------------------------------------------------------------------

    async def _websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await self._respond(writer, 400, {"error": "missing websocket key"})
            return
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
        ).decode("latin-1")
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        client = _WSClient(writer, asyncio.current_task())
        self._clients.append(client)
        if len(self._clients) == 1:  # no subscriber, no per-envelope hand-off
            self.bridge.add_listener(self._on_event)
        sender = asyncio.ensure_future(self._ws_sender(client, writer))
        try:
            await self._ws_receiver(client, reader, writer)
        finally:
            client.closed = True
            sender.cancel()
            try:
                await sender
            except (asyncio.CancelledError, ConnectionError):
                pass
            self._clients.remove(client)
            if not self._clients:
                self.bridge.remove_listener(self._on_event)

    @staticmethod
    def _take_queued(client: _WSClient, frames: List[bytes]) -> bytes:
        """``frames`` and all the queue holds as one buffer, drop notice first."""
        frames.extend(client.queue.get_nowait() for _ in range(client.queue.qsize()))
        client.delivered += len(frames)
        if client.dropped:
            # surface the loss in-band before resuming the stream
            notice = {"type": "dropped", "count": client.dropped}
            client.dropped = 0
            frames.insert(0, _ws_frame(json.dumps(notice)))
        return b"".join(frames)

    async def _ws_sender(
        self, client: _WSClient, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(_ws_frame(json.dumps({"type": "hello", "endpoint": "/events"})))
        await writer.drain()
        while not client.closed:
            first = await client.queue.get()
            # one write for everything that queued up behind it
            writer.write(self._take_queued(client, [first]))
            await writer.drain()

    async def _ws_receiver(
        self,
        client: _WSClient,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not client.closed:
            try:
                first = await reader.readexactly(2)
                opcode = first[0] & 0x0F
                masked = bool(first[1] & 0x80)
                length = first[1] & 0x7F
                if length == 126:
                    length = struct.unpack("!H", await reader.readexactly(2))[0]
                elif length == 127:
                    length = struct.unpack("!Q", await reader.readexactly(8))[0]
                if length > MAX_CLIENT_FRAME:
                    writer.write(struct.pack("!BBH", 0x88, 2, 1009))  # too big
                    await writer.drain()
                    return
                mask = await reader.readexactly(4) if masked else b""
                payload = await reader.readexactly(length) if length else b""
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # the peer went away, possibly in the middle of a frame
            if masked:
                payload = bytes(
                    byte ^ mask[i % 4] for i, byte in enumerate(payload)
                )
            if opcode == 0x8:  # close
                writer.write(struct.pack("!BB", 0x88, 0))
                await writer.drain()
                return
            if opcode == 0x9:  # ping -> pong
                header = struct.pack("!BB", 0x8A, len(payload))
                writer.write(header + payload)
                await writer.drain()
            # text/binary/pong frames from clients are ignored: the
            # stream is one-way, verdicts go over POST
