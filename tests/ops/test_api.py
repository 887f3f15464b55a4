"""The asyncio HTTP/WebSocket ops API and its operator console client.

Acceptance: GET endpoints serve tick-boundary snapshots without touching
simulation state, also while a tick is running; verdict POSTs route
through the thread-safe command queue; a stalled ``/events`` WebSocket
client loses events (and is told how many) but can never block the
publishing thread or starve healthy clients; every client gets the same
bytes, encoded once; a run nobody subscribes to hands nothing off;
``stop()`` drains; hostile request bytes get a status line or a closed
socket, never a traceback.
"""

import asyncio
import hashlib
import io
import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ops.api as api
from repro.config.builtin import paper_landscape, partition_landscape
from repro.config.model import Action
from repro.ops.api import OpsBridge, OpsServer
from repro.ops.console import MalformedResponse, OpsClient, render_snapshot, run_console
from repro.serviceglobe.actions import ActionOutcome
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos, default_chaos
from repro.telemetry.bus import WILDCARD
from repro.telemetry.records import (
    ActionEvent,
    AlertEvent,
    LoadReportBatch,
    SupervisionEvent,
    SupervisionEventKind,
    record_to_dict,
    topic_of,
)

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
        collector=runner.collector,
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
            assert set(host) == {
                "name", "category", "perf_index", "up", "cpu_load", "mem_load",
                "instances",
            }
        services = [service["name"] for service in state["services"]]
        assert services == sorted(runner.platform.services)
        for service in state["services"]:
            assert set(service) == {
                "name", "kind", "priority", "running_instances", "users", "demand",
                "load", "placement",
            }

    def test_situations_snapshot(self, harness):
        _, _, _, client = harness
        situations = client.situations()
        assert situations["handled"] == 0
        assert situations["open"] == []
        assert situations["protected"] == [] and situations["messages"] == []

    def test_situations_json_of_a_seeded_run(self):
        """A controller keeps a count and its last ten handled situations,
        not every one: the ``/situations`` JSON of a seeded two-domain
        chaos run is the one the full lists gave, byte for byte."""
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=6 * 60, seed=7,
            collect_host_series=False, chaos=default_chaos(),
            landscape=partition_landscape(paper_landscape(), 2),
        )
        bridge = OpsBridge(runner.platform, runner.controller, collector=runner.collector)
        bridge.attach(runner.platform.bus)
        runner.run()
        bridge.detach()
        situations = bridge._situations_snapshot(runner.platform.current_time)
        assert situations["handled"] == 139 and len(situations["recent"]) == 20
        text = json.dumps(situations, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "779b28d4a7e2f5fdb9f599fb5c6fc2460a66a8affbc9a75b32944b50babd98f6"
        )

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
        [controller] = runner.controller.leaders()
        assert stats["server_selection"] == controller.server_selector.stats
        assert set(stats["server_selection"]) == {
            "table_rebuilds", "hosts_rescored", "rank_calls", "ranked_materialised",
        }
        assert stats["fuzzy"] == {
            "action": controller.action_selector.fuzzy_stats,
            "server": controller.server_selector.fuzzy_stats,
        }
        assert set(stats["fuzzy"]["server"]) == {
            "programs_compiled", "batches", "contexts",
        }


class TestVerdicts:
    def test_approve_routes_through_command_queue(self, harness):
        runner, bridge, _, client = harness
        queue = runner.controller.leaders()[0].alerts.approvals
        request = queue.submit(T0, "start one FI instance", service_name="FI")
        bridge.refresh(T0)
        ok, message = client.approve(request.request_id)
        assert ok, message
        [command] = runner.controller.commands.drain()
        assert command.request_id == request.request_id
        assert command.approve is True

    def test_reject_routes_through_command_queue(self, harness):
        runner, bridge, _, client = harness
        queue = runner.controller.leaders()[0].alerts.approvals
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
        queue = runner.controller.leaders()[0].alerts.approvals
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
    chunks = []  # joined once: += on a megabyte stream is quadratic
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _wait_for_no_clients(server: OpsServer) -> None:
    deadline = time.monotonic() + 10
    while server._clients and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server._clients == []


def _frames(data: bytes):
    """``(opcode, payload)`` of every unmasked server frame in ``data``."""
    frames, at = [], 0
    while at < len(data):
        opcode, length = data[at] & 0x0F, data[at + 1] & 0x7F
        at += 2
        if length == 126:
            (length,) = struct.unpack("!H", data[at:at + 2])
            at += 2
        elif length == 127:
            (length,) = struct.unpack("!Q", data[at:at + 8])
            at += 8
        assert at + length <= len(data), "stream ends inside a frame"
        frames.append((opcode, data[at:at + length]))
        at += length
    return frames


class _Reader(threading.Thread):
    """Reads one raw socket to EOF, so the peer never stalls."""

    def __init__(self, sock):
        super().__init__(daemon=True)
        self.sock, self.data = sock, b""
        self.start()

    def run(self):
        self.data = _read_until_closed(self.sock)

    def frames(self):
        self.join(timeout=10)
        assert not self.is_alive()
        self.sock.close()
        return _frames(self.data)


def _served_runner(**kwargs):
    return SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, seed=7,
        serve=("127.0.0.1", 0), **kwargs,
    )


class TestListenerLifecycle:
    """The server listens on the bridge only while somebody subscribes."""

    def test_unsubscribed_served_run_hands_nothing_off(self):
        runner = _served_runner(horizon=60)
        bridge, server, bus = runner.ops_bridge, runner.ops_server, runner.platform.bus
        polled = []
        bus.subscribe(
            "reports",
            lambda envelope: envelope.record.time % 20
            or polled.append(OpsClient("127.0.0.1", server.port).summary()),
        )
        runner.run()
        assert len(polled) == 3  # HTTP alone registers no listener
        assert bridge._listeners == []
        assert server.events_forwarded == 0
        assert bridge.events_seen == bus.last_seq > 60

    def test_client_connecting_mid_run_sees_every_later_seq(self):
        runner = _served_runner(horizon=60)
        bridge, server, bus = runner.ops_bridge, runner.ops_server, runner.platform.bus
        readers, joined_at = [], []

        def join_mid_run(envelope):
            if envelope.record.time == T0 + 30 and not readers:
                assert bridge._listeners == []  # nobody was listening so far
                readers.append(_Reader(_upgrade(server.port)))
                joined_at.append(envelope.seq)

        bus.subscribe("reports", join_mid_run)
        runner.run()
        frames = readers[0].frames()
        assert frames[-1] == (0x8, struct.pack("!H", 1001))
        seqs = [json.loads(payload)["seq"] for _, payload in frames[:-1]]
        # from the envelope it joined under (topic subscribers run before
        # the bridge's wildcard one) gaplessly through the last tick:
        # stop() drains
        assert seqs == list(range(joined_at[0], bus.last_seq + 1))
        assert server.events_forwarded == len(seqs)
        assert bridge._listeners == []

    def test_last_subscriber_leaving_unregisters_the_listener(self, harness):
        runner, bridge, server, _ = harness
        first, second = _upgrade(server.port), _upgrade(server.port)
        assert bridge._listeners == [server._on_event]  # once, not per client
        first.close()
        deadline = time.monotonic() + 10
        while len(server._clients) > 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert bridge._listeners == [server._on_event]
        second.close()
        _wait_for_no_clients(server)
        assert bridge._listeners == []
        seen, forwarded = bridge.events_seen, server.events_forwarded
        runner.platform.bus.publish(AlertEvent(time=T0, severity="info", message="-"))
        assert bridge.events_seen == seen + 1
        assert server.events_forwarded == forwarded


#: three envelopes and the frames they are sent as (``json.dumps`` of
#: ``{"seq", "topic", "record": record_to_dict(...)}``, default
#: separators; an action's record is its outcome's one codec) — the
#: bench suite's subscriber parses the prefix
GOLDEN = [
    (
        LoadReportBatch(
            time=725,
            series=(("Blade1", "cpu"), ("FI", "load"), ("FI#1", "cpu")),
            values=np.array([0.1 + 0.2, 2 / 3, 1e-07]),
        ),
        '{"seq": %d, "topic": "reports", "record": {"type": "LoadReportBatch", '
        '"time": 725, "rows": [["Blade1", "cpu", 725, 0.30000000000000004], '
        '["FI", "load", 725, 0.6666666666666666], ["FI#1", "cpu", 725, 1e-07]], '
        '"domain": ""}}',
    ),
    (
        ActionEvent(
            time=726,
            outcome=ActionOutcome(
                time=726, action=Action.SCALE_OUT, service_name="FI",
                instance_id="FI#7", source_host=None, target_host="Blade3",
                applicability=0.8125, note="caf\u00e9", status="ok", attempts=2,
                duration=1.5,
            ),
            fencing_token=3,
        ),
        '{"seq": %d, "topic": "actions", "record": {"type": "ActionEvent", '
        '"time": 726, "action": "scaleOut", "service_name": "FI", '
        '"instance_id": "FI#7", "source_host": null, "target_host": "Blade3", '
        '"applicability": 0.8125, "note": "caf\\u00e9", "status": "ok", '
        '"attempts": 2, "duration": 1.5, "domain": "", "fencing_token": 3}}',
    ),
    (
        AlertEvent(time=727, severity="escalation", message='no action for "LES"'),
        '{"seq": %d, "topic": "alerts", "record": {"type": "AlertEvent", '
        '"time": 727, "severity": "escalation", '
        '"message": "no action for \\"LES\\""}}',
    ),
]


class TestWireBytes:
    def test_two_clients_get_identical_bytes_encoded_once(self, harness, monkeypatch):
        runner, _, server, _ = harness
        bus = runner.platform.bus
        encoded = []
        dumps = json.dumps

        def counting_dumps(value, *args, **kwargs):
            if isinstance(value, dict) and "seq" in value:
                encoded.append(value["seq"])
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(api.json, "dumps", counting_dumps)
        readers = [_Reader(_upgrade(server.port)) for _ in range(2)]
        first = bus.last_seq + 1
        for record, _ in GOLDEN:
            bus.publish(record)
        deadline = time.monotonic() + 10
        while len(encoded) < len(GOLDEN) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # the frames are on their way out
        for reader in readers:
            reader.sock.shutdown(socket.SHUT_WR)  # EOF ends the handler
        one, two = (reader.frames() for reader in readers)
        assert one == two and len(one) == len(GOLDEN)
        assert encoded == [first, first + 1, first + 2]  # once each, not per client
        for seq, (opcode, payload), (record, golden) in zip(encoded, one, GOLDEN):
            assert opcode == 0x1
            assert payload.decode("utf-8") == golden % seq
            assert payload.decode("utf-8") == dumps(
                {"seq": seq, "topic": topic_of(record), "record": record_to_dict(record)}
            )
        _wait_for_no_clients(server)


class TestMidTick:
    def test_get_during_a_held_tick_answers_from_the_last_boundary(self):
        """No wait-for-the-tick, no read-under-a-tick-lock: a GET sent
        while minute T0+10 is stuck for half a second is answered at
        once, with minute T0+9."""
        runner = _served_runner(horizon=20)
        client = OpsClient("127.0.0.1", runner.ops_server.port)
        answers = []

        def ask():
            began = time.monotonic()
            state, summary = client.state(), client.summary()
            answers.append((time.monotonic() - began, state, summary))

        def hold(envelope):
            if envelope.record.time == T0 + 10:
                asker = threading.Thread(target=ask, daemon=True)
                began = time.monotonic()
                asker.start()
                while time.monotonic() - began < 0.5:
                    time.sleep(0.01)
                asker.join(timeout=10)

        runner.platform.bus.subscribe("reports", hold)
        runner.run()
        [(elapsed, state, summary)] = answers
        assert elapsed < 0.05 * 2  # two GETs, 50 ms each
        assert state["time"] == summary["time"] == T0 + 9
        assert len(state["hosts"]) == len(runner.platform.hosts)


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


    def test_stop_drains_what_is_queued_before_the_close_frame(self):
        """K envelopes published, ``stop()`` at once: a client that keeps
        reading gets all K, then the 1001 close frame."""
        runner = SimulationRunner(Scenario.STATIC, horizon=10, seed=7)
        bridge = OpsBridge(runner.platform, runner.controller, run_info={})
        bridge.attach(runner.platform.bus)
        server = OpsServer(bridge, port=0).start()
        try:
            reader = _Reader(_upgrade(server.port))
            count = 200  # under CLIENT_QUEUE_LIMIT: nothing may be dropped
            for i in range(count):
                runner.platform.bus.publish(
                    AlertEvent(time=T0, severity="info", message=f"tail-{i}")
                )
            began = time.monotonic()
            server.stop()
            assert time.monotonic() - began < 5.0
        finally:
            server.stop()
            bridge.detach()
        frames = reader.frames()
        assert frames[-1] == (0x8, struct.pack("!H", 1001))
        messages = [json.loads(payload)["record"]["message"] for _, payload in frames[:-1]]
        assert messages == [f"tail-{i}" for i in range(count)]
        assert server.events_forwarded == count


    def test_close_sends_the_queue_before_the_close_frame(self, caplog):
        """Frames still queued when the server closes — fanned out and
        closed in one breath of the loop, so the sender had no turn —
        reach a reading client ahead of the 1001; a bare close frame is
        a fail.  A pending drop notice goes first."""
        runner = SimulationRunner(Scenario.STATIC, horizon=10, seed=7)
        bridge = OpsBridge(runner.platform, runner.controller, run_info={})
        server = OpsServer(bridge, port=0).start()
        count = 50

        async def fan_out_then_close():
            [client] = server._clients
            client.dropped = client.dropped_total = 3
            for seq in range(count):
                server._fan_out({"seq": seq})
            assert client.queue.qsize() == count
            await server._close_clients()

        try:
            reader = _Reader(_upgrade(server.port))
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                asyncio.run_coroutine_threadsafe(
                    fan_out_then_close(), server._loop
                ).result(timeout=10)
        finally:
            server.stop()
        frames = reader.frames()
        assert frames[-1] == (0x8, struct.pack("!H", 1001))
        assert [json.loads(payload) for _, payload in frames[:-1]] == [
            {"type": "dropped", "count": 3}
        ] + [{"seq": seq} for seq in range(count)]
        assert caplog.records == [] and server._clients == []


def _send_raw(port: int, data: bytes) -> bytes:
    """Send ``data``, half-close, return what comes back within a second."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except (ConnectionResetError, BrokenPipeError):
            pass  # closed on us: unread request bytes turn FIN into RST
    return received


def _status(response: bytes) -> int:
    assert response.startswith(b"HTTP/1.1 "), response[:80]
    return int(response.split(b" ", 2)[1])


_header_names = st.sampled_from(
    [b"Content-Length", b"Upgrade", b"Sec-WebSocket-Key", b"Host", b"X", b""]
)
_header_values = st.one_of(
    st.sampled_from([b"x", b"-1", b"0", b"7", b"1e3", b"99999999999999999999",
                     b"websocket", b"", b" ", b"\xff\xfe"]),
    st.binary(max_size=40).filter(lambda value: b"\n" not in value),
)
hostile_requests = st.one_of(
    st.binary(max_size=4096),
    st.builds(
        lambda line, headers, end, body: line + b"\r\n" + b"".join(
            name + b": " + value + b"\r\n" for name, value in headers
        ) + end + body,
        st.sampled_from([b"GET /state HTTP/1.1", b"GET /events HTTP/1.1",
                         b"POST /approvals/apr-1/approve HTTP/1.1", b"GET", b"", b"\x00 \x00 \x00"]),
        st.lists(st.tuples(_header_names, _header_values), max_size=120),
        st.sampled_from([b"\r\n", b"\n", b""]),
        st.binary(max_size=64),
    ),
)


class TestHostileHttp:
    """ROADMAP item 6: the request parser against hostile input."""

    GET = b"GET /summary HTTP/1.1\r\n%s\r\n"

    def test_malformed_content_length_is_400(self, harness, caplog):
        _, _, server, _ = harness
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            for value in (b"x", b"-1", b"1e3", b"0x10", b"\xff"):
                response = _send_raw(
                    server.port, self.GET % (b"Content-Length: " + value + b"\r\n")
                )
                assert _status(response) == 400, value
        assert caplog.records == []

    def test_oversized_body_is_413_and_never_read(self, harness):
        _, _, server, _ = harness
        for length in (api.MAX_CLIENT_FRAME + 1, 10**30):
            response = _send_raw(
                server.port, self.GET % (b"Content-Length: %d\r\n" % length)
            )
            assert _status(response) == 413
        at_the_limit = self.GET % (
            b"Content-Length: %d\r\n" % api.MAX_CLIENT_FRAME
        ) + bytes(api.MAX_CLIENT_FRAME)
        assert _status(_send_raw(server.port, at_the_limit)) == 200

    def test_a_refused_request_is_closed_with_a_fin(self, harness):
        """Bytes still arriving after the 431 are read, not left unread: a
        close on unread bytes is an RST, which resets the client's socket
        and can discard the answer before the client reads it."""
        _, _, server, _ = harness
        too_many = b"GET /summary HTTP/1.1\r\n" + b"X: y\r\n" * (api.MAX_HEADER_LINES + 5)
        with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as sock:
            sock.sendall(too_many)
            time.sleep(0.05)  # the server has answered by now
            sock.sendall(b"X: y\r\n" * 100)
            time.sleep(0.05)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert _status(received) == 431

    def test_a_client_that_resets_after_a_refused_request_is_not_logged(
        self, harness, caplog
    ):
        """A client that sends too many headers and resets at once: the
        half-close after the 431 meets a reset socket, which is the
        client's doing, not an unhandled error of the server."""
        _, _, server, _ = harness
        too_many = b"GET /summary HTTP/1.1\r\n" + b"X: y\r\n" * (api.MAX_HEADER_LINES + 5)
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            for __ in range(5):
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.sendall(too_many)
                sock.close()
            _wait_for_no_clients(server)
            time.sleep(0.1)
        assert caplog.records == []

    def test_too_many_or_too_long_header_lines_are_431(self, harness, caplog):
        _, _, server, _ = harness
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            fits = self.GET % (b"X: y\r\n" * api.MAX_HEADER_LINES)
            assert _status(_send_raw(server.port, fits)) == 200
            too_many = self.GET % (b"X: y\r\n" * (api.MAX_HEADER_LINES + 1))
            assert _status(_send_raw(server.port, too_many)) == 431
            endless = b"GET /summary HTTP/1.1\r\n" + b"X: y\r\n" * 20_000
            assert _status(_send_raw(server.port, endless)) == 431
            long_line = self.GET % (b"X: " + b"y" * (70 * 1024) + b"\r\n")
            assert _send_raw(server.port, long_line)[:12] in (b"", b"HTTP/1.1 431")
            long_request_line = b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
            assert _send_raw(server.port, long_request_line)[:12] in (
                b"", b"HTTP/1.1 431",
            )
        assert caplog.records == []

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=hostile_requests)
    def test_random_bytes_get_a_status_line_or_a_closed_socket(
        self, harness, caplog, capfd, data
    ):
        _, _, server, client = harness
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            began = time.monotonic()
            response = _send_raw(server.port, data)  # recv times out after 1 s
            assert time.monotonic() - began < 1.0
            assert response == b"" or response.startswith(b"HTTP/1.1 ")
            # whatever that was, the server is still serving
            assert client.summary()["time"] == T0
        _wait_for_no_clients(server)
        assert caplog.records == []
        assert capfd.readouterr().err == ""


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

    def test_the_frame_is_the_same_after_the_http_round_trip(self):
        """One renderer: the offline console's frame and ``--connect``'s
        frame of the same bridge are the same bytes."""
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=120, seed=7,
            chaos=default_chaos(), semi_automatic=True, collect_host_series=False,
        )
        # the message view is the alerts the bridge sees: attached first
        bridge = OpsBridge(runner.platform, runner.controller, collector=runner.collector)
        bridge.attach(runner.platform.bus)
        runner.run()
        last = runner.start_minute + runner.horizon - 1
        runner.controller.leaders()[0].execute_manually(
            Action.SCALE_OUT, "FI", target_host="Blade3", now=last
        )
        bridge.refresh(last)
        direct = render_snapshot(
            *map(bridge.snapshot, ("landscape", "situations", "approvals"))
        )
        server = OpsServer(bridge, port=0).start()
        try:
            out = io.StringIO()
            assert run_console("127.0.0.1", server.port, once=True, stream=out) == 0
        finally:
            server.stop()
        assert out.getvalue() == direct + "\n"
        # every view has something to show
        blade3 = next(line for line in direct.splitlines() if " Blade3 " in line)
        assert blade3.endswith("yes") and "FI#" in blade3
        assert "@Blade3" in direct and "manual action: " in direct
        assert "(no messages)" not in direct
        assert "== approvals: 0 pending ==" not in direct


class TestMessagesAndActionsOutliveTheirProducers:
    """The message view is the alerts the bridge saw, whichever replica
    raised them; ``/summary.actions`` is the result collector's count."""

    def test_a_crashed_leaders_last_alert_stays_in_the_messages(self):
        # seed 122 crashes controller-1 at 794; the standby leads from 798
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=80, seed=7,
            collect_host_series=False, chaos=controller_chaos(122), standby=True,
        )
        bridge = OpsBridge(runner.platform, runner.controller, collector=runner.collector)
        bridge.attach(runner.platform.bus)
        stream = []
        runner.platform.bus.subscribe(
            WILDCARD, lambda envelope: stream.append(envelope.record)
        )
        result = runner.run()
        crash = next(
            index for index, record in enumerate(stream)
            if isinstance(record, SupervisionEvent)
            and record.kind is SupervisionEventKind.CONTROLLER_CRASH
        )
        assert stream[crash].detail == "controller-1"
        last = [r for r in stream[:crash] if isinstance(r, AlertEvent)][-1]
        [leader] = runner.controller.leaders()
        assert leader.executor.name != "controller-1"
        bridge.refresh(runner.start_minute + runner.horizon - 1)
        server = OpsServer(bridge, port=0).start()
        try:
            client = OpsClient("127.0.0.1", server.port)
            messages, summary = client.situations()["messages"], client.summary()
        finally:
            server.stop()
            bridge.detach()
        assert str(last) in messages
        assert summary["actions"] == len(result.actions)

    def test_a_resumed_run_counts_the_actions_before_its_snapshot(self, tmp_path):
        def durable(**kwargs):
            return SimulationRunner(
                Scenario.FULL_MOBILITY, user_factor=1.15, horizon=240, seed=7,
                collect_host_series=False, chaos=default_chaos(115),
                state_dir=tmp_path, **kwargs,
            )

        stopped = durable()

        def stop_at_899(envelope):
            if getattr(envelope.record, "time", None) == 899:
                stopped.request_stop()  # snapshots there; the directory resumes

        stopped.platform.bus.subscribe(WILDCARD, stop_at_899)
        before = len(stopped.run().actions)
        assert before > 0
        resumed = durable(resume=True)
        bridge = OpsBridge(resumed.platform, resumed.controller, collector=resumed.collector)
        bridge.attach(resumed.platform.bus)
        result = resumed.run()
        bridge.refresh(resumed.start_minute + resumed.horizon - 1)
        bridge.detach()
        assert len(result.actions) > before
        assert bridge.snapshot("summary")["actions"] == len(result.actions)


class _ScriptedPeer(threading.Thread):
    """A listener that answers each of ``connections`` requests with
    ``reply`` and closes its end — a server that is not the ops API."""

    def __init__(self, reply: bytes, connections: int) -> None:
        super().__init__(daemon=True)
        self.reply, self.connections = reply, connections
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self) -> None:
        with self.listener:
            for _ in range(self.connections):
                connection, _ = self.listener.accept()
                with connection:
                    connection.recv(65536)
                    connection.sendall(self.reply)


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html>hi</html>",
            id="html-200",
        ),
        pytest.param(b"SSH-2.0-OpenSSH_9.6\r\n", id="no-status-line"),
        pytest.param(b"", id="closed-without-reply"),
    ],
)
def test_a_reply_that_is_not_the_ops_api_is_one_typed_error(reply):
    peer = _ScriptedPeer(reply, connections=2)
    peer.start()
    with pytest.raises(MalformedResponse):
        OpsClient("127.0.0.1", peer.port).request("GET", "/state")
    out = io.StringIO()
    code = run_console("127.0.0.1", peer.port, once=True, stream=out)
    peer.join(timeout=10)
    assert code == 1
    assert out.getvalue().startswith(f"cannot reach ops API at 127.0.0.1:{peer.port}: ")
    assert out.getvalue().count("\n") == 1
