"""The asyncio HTTP/WebSocket ops API and its operator console client.

Acceptance: GET endpoints serve tick-boundary snapshots without touching
simulation state; verdict POSTs route through the thread-safe command
queue; a stalled ``/events`` WebSocket client loses events (and is told
how many) but can never block the publishing thread or starve healthy
clients.
"""

import io
import logging
import socket
import struct
import threading
import time

import pytest

import repro.ops.api as api
from repro.ops.api import OpsBridge, OpsServer
from repro.ops.console import OpsClient, render_snapshot, run_console
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario
from repro.telemetry.records import AlertEvent

T0 = 12 * 60


@pytest.fixture(scope="class")
def harness():
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=60,
        seed=7,
        semi_automatic=True,
    )
    bridge = OpsBridge(
        runner.platform,
        runner.controller,
        run_info={"scenario": "full-mobility", "seed": 7},
    )
    bridge.attach(runner.platform.bus)
    bridge.refresh(T0)
    server = OpsServer(bridge, port=0).start()
    client = OpsClient("127.0.0.1", server.port)
    yield runner, bridge, server, client
    server.stop()
    bridge.detach()


class TestHttpEndpoints:
    def test_index_lists_endpoints(self, harness):
        _, _, _, client = harness
        index = client.get("/")
        assert "/state" in index["endpoints"]
        assert "/events (websocket)" in index["endpoints"]

    def test_state_snapshot_mirrors_landscape(self, harness):
        runner, _, _, client = harness
        state = client.state()
        assert state["time"] == T0
        names = {host["name"] for host in state["hosts"]}
        assert names == set(runner.platform.hosts)
        for host in state["hosts"]:
            assert set(host) == {"name", "up", "cpu_load", "mem_load", "instances"}
        services = [service["name"] for service in state["services"]]
        assert services == sorted(runner.platform.services)

    def test_situations_snapshot(self, harness):
        _, _, _, client = harness
        situations = client.situations()
        assert situations["handled"] == 0
        assert situations["open"] == []

    def test_summary_carries_run_info_and_counters(self, harness):
        _, _, _, client = harness
        summary = client.summary()
        assert summary["scenario"] == "full-mobility"
        assert summary["seed"] == 7
        for key in ("events_seen", "actions", "pending_approvals",
                    "expired_approvals", "commands_posted"):
            assert key in summary

    def test_unknown_path_is_404(self, harness):
        _, _, _, client = harness
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_stats_endpoint(self, harness):
        runner, _, _, client = harness
        stats = client.get("/stats")
        assert "events_forwarded" in stats
        assert isinstance(stats["clients"], list)
        assert stats["server_selection"] == runner.controller.server_selector.stats
        assert set(stats["server_selection"]) == {
            "table_rebuilds", "hosts_rescored", "rank_calls",
            "scalar_fallbacks", "ranked_materialised",
        }


class TestVerdicts:
    def test_approve_routes_through_command_queue(self, harness):
        runner, bridge, _, client = harness
        queue = runner.controller.alerts.approvals
        request = queue.submit(T0, "start one FI instance", service_name="FI")
        bridge.refresh(T0)
        ok, message = client.approve(request.request_id)
        assert ok, message
        [command] = runner.controller.commands.drain()
        assert command.request_id == request.request_id
        assert command.approve is True

    def test_reject_routes_through_command_queue(self, harness):
        runner, bridge, _, client = harness
        queue = runner.controller.alerts.approvals
        request = queue.submit(T0, "stop one LES instance", service_name="LES")
        bridge.refresh(T0)
        ok, _ = client.reject(request.request_id)
        assert ok
        [command] = runner.controller.commands.drain()
        assert (command.request_id, command.approve) == (request.request_id, False)

    def test_unknown_request_conflicts(self, harness):
        _, _, _, client = harness
        ok, message = client.approve("apr-999999")
        assert not ok
        assert "unknown" in message

    def test_answered_request_conflicts(self, harness):
        runner, bridge, _, client = harness
        queue = runner.controller.alerts.approvals
        request = queue.submit(T0, "already handled", service_name="FI")
        queue.answer(request.request_id, True, T0 + 1)
        bridge.refresh(T0 + 1)
        ok, message = client.approve(request.request_id)
        assert not ok
        assert "already approved" in message
        runner.controller.commands.drain()


class TestWebSocket:
    def test_live_stream_delivers_published_events(self, harness):
        runner, _, _, client = harness
        received = []
        ready = threading.Event()

        def consume():
            for message in client.events(max_events=4):
                received.append(message)
                if message.get("type") == "hello":
                    ready.set()

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        assert ready.wait(timeout=10)
        for i in range(3):
            runner.platform.bus.publish(
                AlertEvent(time=T0 + i, severity="info", message=f"ws-{i}")
            )
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0]["type"] == "hello"
        envelopes = [m for m in received if "record" in m]
        assert len(envelopes) == 3
        assert [m["record"]["message"] for m in envelopes] == [
            "ws-0", "ws-1", "ws-2",
        ]
        assert all(m["topic"] == "alerts" for m in envelopes)

    def test_stalled_client_drops_but_never_blocks_publisher(
        self, harness, monkeypatch
    ):
        """The ISSUE's backpressure criterion.

        One client completes the WebSocket handshake and then never
        reads.  Pumping far more bytes than every buffer in the path can
        absorb must (a) return promptly on the publishing thread, (b)
        increment the stalled client's drop counter, and (c) leave a
        healthy client fully live.
        """
        runner, _, server, client = harness
        # small queues so the storm overflows them long before it ends;
        # kernel socket buffers (not the queue) bound what a stalled
        # peer can absorb, so the payload is sized to overrun those too
        monkeypatch.setattr(api, "CLIENT_QUEUE_LIMIT", 16)

        # -- stalled client: handshake, then silence --------------------
        stalled = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.sendall(
            (
                "GET /events HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{server.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                "Sec-WebSocket-Key: c3RhbGxlZC1jbGllbnQhIQ==\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        # wait for the 101 so the server has registered the client
        assert b"101" in stalled.recv(1024)

        # -- healthy client keeps reading -------------------------------
        healthy_seen = []
        marker_seen = threading.Event()

        def consume():
            for message in client.events():
                healthy_seen.append(message)
                record = message.get("record") or {}
                if record.get("message") == "MARKER":
                    marker_seen.set()
                    return

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        time.sleep(0.2)  # let the healthy subscriber finish its handshake

        # -- the storm: ~13 MB of events at full speed ------------------
        payload = "x" * 32768
        began = time.monotonic()
        for i in range(400):
            runner.platform.bus.publish(
                AlertEvent(time=T0 + i, severity="info", message=payload)
            )
        elapsed = time.monotonic() - began
        assert elapsed < 20.0  # the publisher never blocked on a client

        # -- the stalled client dropped, and is accounted ---------------
        deadline = time.monotonic() + 20
        dropped = 0
        while time.monotonic() < deadline:
            stats = client.get("/stats")
            dropped = max(
                (entry["dropped"] for entry in stats["clients"]), default=0
            )
            if dropped > 0:
                break
            time.sleep(0.1)
        assert dropped > 0

        # -- the healthy client is still live ---------------------------
        deadline = time.monotonic() + 20
        while not marker_seen.is_set() and time.monotonic() < deadline:
            runner.platform.bus.publish(
                AlertEvent(time=T0 + 999, severity="info", message="MARKER")
            )
            time.sleep(0.1)
        assert marker_seen.is_set()
        reader.join(timeout=10)
        stalled.close()

    def test_fan_out_drop_counter_unit(self, harness, monkeypatch):
        """Queue overflow increments ``dropped`` instead of blocking."""
        _, _, server, _ = harness
        monkeypatch.setattr(api, "CLIENT_QUEUE_LIMIT", 2)
        client = api._WSClient(writer=None, handler=None)  # never closed here
        server._clients.append(client)
        try:
            for i in range(5):
                server._fan_out({"seq": i})
        finally:
            server._clients.remove(client)
        assert client.queue.qsize() == 2
        assert client.dropped == 3  # pending in-band notice
        assert client.dropped_total == 3  # lifetime, what /stats reports


def _upgrade(port: int) -> socket.socket:
    """A raw socket past the ``/events`` handshake and the hello frame."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(
        (
            "GET /events HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Key: cmF3LXNvY2tldC1jbGllbnQ=\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    received = b""
    while b"hello" not in received:
        chunk = sock.recv(4096)
        assert chunk, "server closed during the handshake"
        received += chunk
    return sock


def _read_until_closed(sock: socket.socket) -> bytes:
    received = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return received
        received += chunk


def _wait_for_no_clients(server: OpsServer) -> None:
    deadline = time.monotonic() + 10
    while server._clients and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server._clients == []


class TestClientFrames:
    def test_truncated_frame_header_is_end_of_stream(self, harness, caplog):
        _, _, server, client = harness
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            sock = _upgrade(server.port)
            # a masked text frame announcing a 16-bit length, cut after
            # the first length byte
            sock.sendall(b"\x81\xfe\x01")
            sock.close()
            _wait_for_no_clients(server)
        assert caplog.records == []
        assert client.get("/stats")["clients"] == []

    def test_oversized_frame_is_refused_with_1009(self, harness):
        _, _, server, _ = harness
        sock = _upgrade(server.port)
        # header only: a masked binary frame announcing 1 MiB
        sock.sendall(struct.pack("!BBQ", 0x82, 0x80 | 127, 1 << 20))
        received = _read_until_closed(sock)
        sock.close()
        assert received.endswith(struct.pack("!BBH", 0x88, 2, 1009))
        _wait_for_no_clients(server)

    def test_frame_at_the_limit_is_read_and_ignored(self, harness):
        _, _, server, _ = harness
        sock = _upgrade(server.port)
        sock.sendall(
            struct.pack("!BBQ", 0x82, 0x80 | 127, api.MAX_CLIENT_FRAME)
            + bytes(4 + api.MAX_CLIENT_FRAME)
            + struct.pack("!BB", 0x88, 0x80)  # then a masked close
            + bytes(4)
        )
        assert _read_until_closed(sock) == struct.pack("!BB", 0x88, 0)
        sock.close()


class TestShutdown:
    def test_stop_with_live_subscriber_closes_it_cleanly(self, caplog, capfd):
        """``stop()`` says goodbye instead of cancelling the handler.

        A handler cancelled by the closing event loop is logged by
        asyncio as ``Exception in callback ... CancelledError``.
        """
        runner = SimulationRunner(Scenario.STATIC, horizon=10, seed=7)
        bridge = OpsBridge(runner.platform, runner.controller, run_info={})
        bridge.attach(runner.platform.bus)
        bridge.refresh(T0)
        server = OpsServer(bridge, port=0).start()
        client = OpsClient("127.0.0.1", server.port)
        seen = []
        ready = threading.Event()

        def consume():
            try:
                for message in client.events():
                    seen.append(message["type"])
                    ready.set()
                seen.append("closed by a close frame")
            except ConnectionError as error:
                seen.append(repr(error))

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        try:
            assert ready.wait(timeout=10)
            capfd.readouterr()
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                server.stop()
            reader.join(timeout=10)
        finally:
            server.stop()
            bridge.detach()
        assert not reader.is_alive()
        assert seen == ["hello", "closed by a close frame"]
        assert caplog.records == []
        assert capfd.readouterr().err == ""
        assert server._clients == []


class TestBridgeLifecycle:
    def test_double_attach_rejected(self, harness):
        runner, bridge, _, _ = harness
        with pytest.raises(RuntimeError, match="already attached"):
            bridge.attach(runner.platform.bus)

    def test_snapshot_reads_are_lock_protected_copies(self, harness):
        _, bridge, _, _ = harness
        assert bridge.snapshot("landscape")["time"] is not None
        with pytest.raises(KeyError):
            bridge.snapshot("nope")


class TestConsole:
    def test_run_console_once_renders_snapshot(self, harness):
        _, _, server, _ = harness
        out = io.StringIO()
        code = run_console("127.0.0.1", server.port, once=True, stream=out)
        assert code == 0
        text = out.getvalue()
        assert "== landscape @ t=" in text
        assert "== approvals:" in text

    def test_run_console_unreachable_endpoint_fails(self):
        out = io.StringIO()
        # bind-then-close guarantees a dead port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = run_console("127.0.0.1", port, once=True, stream=out)
        assert code == 1
        assert "cannot reach ops API" in out.getvalue()

    def test_render_snapshot_shows_pending_approvals(self):
        state = {"time": 720, "hosts": [], "services": []}
        situations = {"open": [], "handled": 0}
        approvals = {
            "requests": [
                {
                    "request_id": "apr-000001",
                    "description": "start one FI instance",
                    "status": "pending",
                },
                {
                    "request_id": "apr-000002",
                    "description": "done",
                    "status": "approved",
                },
            ]
        }
        text = render_snapshot(state, situations, approvals)
        assert "== approvals: 1 pending ==" in text
        assert "apr-000001" in text
        assert "apr-000002" not in text
