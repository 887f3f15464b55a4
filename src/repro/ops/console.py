"""The controller console: one frame, and a stdlib client for the ops API.

:func:`render_snapshot` is the console's only frame — the server,
service and message views of the paper's Figure 8, then open situations
and pending approvals — rendered from the snapshot dicts an
:class:`~repro.ops.api.OpsBridge` serves.  ``autoglobe console`` takes
them straight from a bridge over its finished run; ``--connect``
fetches the same dicts over HTTP with :class:`OpsClient`, which also
wraps the ``/events`` WebSocket (client side of the RFC 6455 handshake,
masked frames as the spec requires), so :func:`run_console` can tail
the event stream after the frame — the human half of the paper's
semi-automatic mode, pointed at a live run::

    autoglobe run scenario.json --serve 127.0.0.1:8642 &
    autoglobe console --connect 127.0.0.1:8642
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import socket
import struct
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

__all__ = ["MalformedResponse", "OpsClient", "render_snapshot", "run_console"]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class MalformedResponse(ValueError):
    """The peer's reply is not an ops API response (no status line, no
    JSON body, or no reply at all)."""


class OpsClient:
    """Minimal HTTP + WebSocket client for one ops API endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- HTTP -------------------------------------------------------------------------

    def request(
        self, method: str, path: str
    ) -> Tuple[int, Any]:
        """One HTTP exchange; returns (status, decoded JSON body).

        Raises :class:`MalformedResponse` when the reply is not one.
        """
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Connection: close\r\n"
                    "Content-Length: 0\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        if not raw:
            raise MalformedResponse(f"{method} {path}: connection closed without a reply")
        head, _, body = raw.partition(b"\r\n\r\n")
        fields = head.split(b"\r\n", 1)[0].split(b" ")
        if len(fields) < 2 or not fields[0].startswith(b"HTTP/") or not fields[1].isdigit():
            raise MalformedResponse(f"{method} {path}: reply has no HTTP status line")
        status = int(fields[1])
        try:
            return status, json.loads(body) if body else None
        except ValueError:  # JSONDecodeError or UnicodeDecodeError
            raise MalformedResponse(
                f"{method} {path} -> {status}: body is not JSON"
            ) from None

    def get(self, path: str) -> Any:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {payload}")
        return payload

    def state(self) -> Dict[str, Any]:
        return self.get("/state")

    def situations(self) -> Dict[str, Any]:
        return self.get("/situations")

    def approvals(self) -> Dict[str, Any]:
        return self.get("/approvals")

    def summary(self) -> Dict[str, Any]:
        return self.get("/summary")

    def approve(self, request_id: str) -> Tuple[bool, str]:
        status, payload = self.request(
            "POST", f"/approvals/{request_id}/approve"
        )
        return status == 200, str((payload or {}).get("message", ""))

    def reject(self, request_id: str) -> Tuple[bool, str]:
        status, payload = self.request(
            "POST", f"/approvals/{request_id}/reject"
        )
        return status == 200, str((payload or {}).get("message", ""))

    # -- WebSocket --------------------------------------------------------------------

    def events(
        self, max_events: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield decoded ``/events`` messages until the peer closes.

        ``max_events`` bounds the tail (tests and ``--once`` runs);
        ``None`` streams until the server goes away or the caller stops
        iterating (closing the generator sends a clean close frame).
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        try:
            sock.sendall(
                (
                    "GET /events HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            handshake = b""
            while b"\r\n\r\n" not in handshake:
                chunk = sock.recv(4096)
                if not chunk:
                    raise ConnectionError("server closed during handshake")
                handshake += chunk
            head, _, buffered = handshake.partition(b"\r\n\r\n")
            if b"101" not in head.split(b"\r\n", 1)[0]:
                raise ConnectionError(
                    f"websocket upgrade refused: {head.decode('latin-1')!r}"
                )
            expected = base64.b64encode(
                hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
            ).decode("latin-1")
            if f"sec-websocket-accept: {expected}".lower() not in (
                head.decode("latin-1").lower()
            ):
                raise ConnectionError("websocket accept key mismatch")
            count = 0
            buffer = bytearray(buffered)

            def read_exact(n: int) -> bytes:
                while len(buffer) < n:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("server closed the stream")
                    buffer.extend(chunk)
                out = bytes(buffer[:n])
                del buffer[:n]
                return out

            while max_events is None or count < max_events:
                first = read_exact(2)
                opcode = first[0] & 0x0F
                length = first[1] & 0x7F
                if length == 126:
                    length = struct.unpack("!H", read_exact(2))[0]
                elif length == 127:
                    length = struct.unpack("!Q", read_exact(8))[0]
                payload = read_exact(length) if length else b""
                if opcode == 0x8:  # server close
                    return
                if opcode != 0x1:  # ignore ping/pong/continuation
                    continue
                message = json.loads(payload.decode("utf-8"))
                yield message
                count += 1
        finally:
            try:
                # masked close frame, as RFC 6455 requires of clients
                mask = os.urandom(4)
                sock.sendall(struct.pack("!BB", 0x88, 0x80) + mask)
                sock.close()
            except OSError:
                pass


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    lines = [headers, ["-" * width for width in widths], *rows]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
        for cells in lines
    )


def render_snapshot(
    state: Dict[str, Any],
    situations: Dict[str, Any],
    approvals: Dict[str, Any],
) -> str:
    """One text frame of the controller console: the server, service and
    message views of Figure 8, then open situations and pending approvals."""
    protected = set(situations.get("protected", ()))
    hosts = sorted(
        state.get("hosts", []), key=lambda host: (host["category"], host["name"])
    )
    servers = _table(
        ["category", "server", "perf", "status", "cpu", "mem", "instances",
         "protected"],
        [
            [host["category"], host["name"], f"{host['perf_index']:g}",
             "up" if host["up"] else "DOWN", f"{host['cpu_load']:.0%}",
             f"{host['mem_load']:.0%}", ", ".join(host["instances"]) or "-",
             "yes" if host["name"] in protected else ""]
            for host in hosts
        ],
    )
    services = _table(
        ["service", "kind", "prio", "instances", "users", "load", "placement"],
        [
            [service["name"], service["kind"], str(service["priority"]),
             str(service["running_instances"]), str(service["users"]),
             f"{service['load']:.0%}", ", ".join(service["placement"]) or "-"]
            for service in state.get("services", [])
        ],
    )
    messages = "\n".join(situations.get("messages", ())) or "(no messages)"
    lines = [
        f"== landscape @ t={state.get('time')} ==",
        "",
        "== Servers ==",
        servers,
        "",
        "== Services ==",
        services,
        "",
        "== Messages ==",
        messages,
        "",
        f"== situations: {len(situations.get('open', []))} open, "
        f"{situations.get('handled', 0)} handled ==",
    ]
    for descriptor in situations.get("open", []):
        lines.append(
            f"  watching {descriptor.get('subject')} "
            f"({descriptor.get('kind')}) since t={descriptor.get('started_at')}"
        )
    pending = [
        request
        for request in approvals.get("requests", [])
        if request.get("status") == "pending"
    ]
    lines.append(f"== approvals: {len(pending)} pending ==")
    for request in pending:
        lines.append(
            f"  {request['request_id']}  {request['description']}"
        )
    return "\n".join(lines)


def run_console(
    host: str,
    port: int,
    once: bool = False,
    max_events: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Snapshot view, then (unless ``once``) tail the live event stream."""
    import sys

    out = stream if stream is not None else sys.stdout
    client = OpsClient(host, port)
    try:
        snapshot = render_snapshot(
            client.state(), client.situations(), client.approvals()
        )
    except (OSError, RuntimeError, MalformedResponse) as error:
        print(f"cannot reach ops API at {host}:{port}: {error}", file=out)
        return 1
    print(snapshot, file=out)
    if once:
        return 0
    print("== live events (ctrl-c to stop) ==", file=out)
    try:
        for message in client.events(max_events=max_events):
            kind = message.get("type")
            if kind == "hello":
                continue
            if kind == "dropped":
                print(f"  ... {message['count']} events dropped ...", file=out)
                continue
            record = message.get("record", {})
            print(
                f"  #{message.get('seq', '?'):<7}[{message.get('topic')}] "
                f"{record.get('type')} t={record.get('time')}",
                file=out,
            )
    except KeyboardInterrupt:
        pass
    except ConnectionError:
        print("  (stream closed by server)", file=out)
    return 0
