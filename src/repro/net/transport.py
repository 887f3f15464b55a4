"""Framed message endpoints over a stream socket.

One class, :class:`TcpEndpoint`, carries the federation protocol both
across processes (a TCP connection: :func:`connect_tcp`, the server's
listener) and inside one process (an AF_UNIX :func:`socket.socketpair`:
:func:`loopback_pair`, the tests), so the server's selector loop and
the agent's pump wait on a file descriptor either way.
:meth:`TcpEndpoint.recv` blocks for up to ``timeout`` seconds, or with
``timeout=0`` only takes what has already arrived.  An endpoint is used
by one thread at a time: the one that drives its protocol machine.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Any, Dict, Optional, Tuple

from repro.net.protocol import FrameDecoder, encode_frame

__all__ = ["EndpointClosed", "TcpEndpoint", "loopback_pair", "connect_tcp"]


class EndpointClosed(ConnectionError):
    """The peer closed the connection (or the local side was shut down)."""


class TcpEndpoint:
    """One framed-message connection over a stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._inbox: deque = deque()
        self._closed = False
        # keep small control messages from waiting on Nagle (an AF_UNIX
        # socketpair has no such option)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise EndpointClosed("endpoint is closed")
        frame = encode_frame(message)
        try:
            self._sock.settimeout(None)
            self._sock.sendall(frame)
        except OSError as exc:
            raise EndpointClosed(str(exc)) from exc

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next decoded message, or ``None`` if ``timeout`` elapses.

        Raises :class:`EndpointClosed` when the peer disconnects and
        :class:`~repro.net.protocol.FrameError` on a corrupt stream.
        """
        if self._inbox:
            return self._inbox.popleft()
        if self._closed:
            raise EndpointClosed("endpoint is closed")
        while True:
            try:
                self._sock.settimeout(timeout)
                data = self._sock.recv(65536)
            except (socket.timeout, BlockingIOError):
                return None
            except OSError as exc:
                raise EndpointClosed(str(exc)) from exc
            if not data:
                raise EndpointClosed("peer closed the connection")
            messages = self._decoder.feed(data)
            if messages:
                self._inbox.extend(messages)
                return self._inbox.popleft()

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair() -> Tuple[TcpEndpoint, TcpEndpoint]:
    """A connected (client, server) endpoint pair in this process."""
    a, b = socket.socketpair()
    return TcpEndpoint(a), TcpEndpoint(b)


def connect_tcp(host: str, port: int, timeout: float = 5.0) -> TcpEndpoint:
    """Dial a federation server; raises ``OSError`` on failure."""
    sock = socket.create_connection((host, port), timeout=timeout)
    return TcpEndpoint(sock)
