"""The ops-plane load: an open-loop HTTP poller and a WebSocket subscriber.

Both are the suite's own code over plain sockets, one thread each, so the
client under test (``repro.ops.console.OpsClient``) is free to change.

The poller is an **open loop**: request *k* is due at ``start + k/rate``
whether or not earlier requests have completed, and its latency is timed
from that due time, so a stall in the served process shows up in every
request it delayed.  How late the generator itself ran is reported too.
Every request sent is counted, also the one in flight when the poller is
told to stop: the server is still up then (see ``workloads._OpsLoad``).
"""

from __future__ import annotations

import base64
import json
import os
import socket
import struct
import threading
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

__all__ = ["HttpPoller", "WsSubscriber", "POLL_PATHS", "POLL_RATE"]

POLL_PATHS = ("/state", "/situations", "/summary", "/stats")
#: requests per second; a human dashboard refreshing a handful of panels
POLL_RATE = 50.0
_TIMEOUT = 10.0
#: how the server's ``json.dumps`` starts every envelope frame
_SEQ_PREFIX = b'{"seq": '


class HttpPoller(threading.Thread):
    """Round-robin GETs on a fixed schedule until :meth:`stop`."""

    def __init__(self, host: str, port: int, rate: float = POLL_RATE) -> None:
        super().__init__(name="bench-http-poller", daemon=True)
        self.address = (host, port)
        self.interval = 1.0 / rate
        self._halt = threading.Event()
        #: per completed request, milliseconds from its due time
        self.latency_ms: List[float] = []
        #: per attempted request, milliseconds the send started late
        self.late_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def stop(self) -> None:
        self._halt.set()

    def _get(self, path: str) -> None:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(self.address, timeout=_TIMEOUT) as conn:
            conn.sendall(request)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        if " 200 " not in status_line + " ":
            raise ValueError(f"{path}: {status_line!r}")
        headers = dict(
            (k.strip().lower(), v.strip())
            for k, _, v in (line.partition(":") for line in header_lines)
        )
        if len(body) != int(headers.get("content-length", "-1")):
            raise ValueError(f"{path}: truncated body ({len(body)} bytes)")
        json.loads(body)

    def run(self) -> None:
        start = perf_counter()
        index = 0
        while not self._halt.is_set():
            due = start + index * self.interval
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
                if self._halt.is_set():
                    break
            path = POLL_PATHS[index % len(POLL_PATHS)]
            index += 1
            sent = perf_counter()
            try:
                self._get(path)
                error = None
            except (OSError, ValueError) as caught:
                error = f"{type(caught).__name__}: {caught}"
            done = perf_counter()
            self.attempted += 1
            self.late_ms.append((sent - due) * 1e3)
            if error is None:
                self.latency_ms.append((done - due) * 1e3)
            else:
                self.failed += 1
                self.errors.append(error)


class WsSubscriber(threading.Thread):
    """One ``/events`` subscriber; keeps the receipt time of every seq."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="bench-ws-subscriber", daemon=True)
        self.address = (host, port)
        #: set once the server's hello frame arrived: from then on the
        #: server holds a queue for this client and every publish reaches it
        self.ready = threading.Event()
        self.received: Dict[int, float] = {}
        self.dropped_notices = 0
        self.error: Optional[str] = None
        self._conn: Optional[socket.socket] = None

    def _read_exact(self, conn: socket.socket, count: int) -> bytes:
        data = bytearray()
        while len(data) < count:
            chunk = conn.recv(count - len(data))
            if not chunk:
                raise EOFError
            data.extend(chunk)
        return bytes(data)

    def _read_frame(self, conn: socket.socket) -> Tuple[int, bytes]:
        first = self._read_exact(conn, 2)
        opcode = first[0] & 0x0F
        length = first[1] & 0x7F
        if length == 126:
            length = struct.unpack("!H", self._read_exact(conn, 2))[0]
        elif length == 127:
            length = struct.unpack("!Q", self._read_exact(conn, 8))[0]
        return opcode, self._read_exact(conn, length) if length else b""

    def run(self) -> None:
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        try:
            conn = socket.create_connection(self.address, timeout=_TIMEOUT)
        except OSError as caught:
            self.error = f"connect: {caught}"
            return
        self._conn = conn
        try:
            conn.sendall(
                (
                    "GET /events HTTP/1.1\r\nHost: bench\r\n"
                    "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("latin-1")
            )
            head = bytearray()
            while not head.endswith(b"\r\n\r\n"):
                head.extend(self._read_exact(conn, 1))
            if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
                self.error = f"handshake refused: {bytes(head[:60])!r}"
                return
            conn.settimeout(None)
            while True:
                opcode, payload = self._read_frame(conn)
                now = perf_counter()
                if opcode == 0x8:
                    return
                if opcode != 0x1:
                    continue
                if payload.startswith(_SEQ_PREFIX):
                    # an envelope: only its seq matters here, and parsing
                    # every load-report batch would make the generator
                    # the heaviest thread in the process under test
                    end = payload.index(b",", len(_SEQ_PREFIX))
                    self.received[int(payload[len(_SEQ_PREFIX):end])] = now
                    continue
                message = json.loads(payload)
                if message.get("type") == "dropped":
                    self.dropped_notices += int(message["count"])
                elif message.get("type") == "hello":
                    self.ready.set()
        except EOFError:
            pass  # the server closed the stream: the run is over
        except (OSError, ValueError) as caught:
            self.error = f"{type(caught).__name__}: {caught}"
        finally:
            conn.close()

    def accounted(self) -> int:
        """Seqs received plus seqs the server announced it dropped."""
        return len(self.received) + self.dropped_notices

    def close(self) -> None:
        """Unblock a reader the server never closed."""
        if self._conn is not None:
            try:
                self._conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
