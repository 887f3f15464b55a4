"""Wire framing and the versioned federation message schema.

Framing is deliberately minimal: every frame is a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON encoding one
message object.  Messages are dictionaries with three universal keys —
``schema_version`` (the protocol revision that produced the message),
``kind`` (one of :data:`MESSAGE_KINDS`) and ``clock`` (the sender's
Lamport clock: the happens-before edges by which the agents' event
logs merge into one causally consistent trace) — plus kind-specific,
typed fields.  The wire carries control only — sessions, heartbeats,
escrow; an agent's events and run summary stay in its domain directory,
where the server reads them.

Version negotiation mirrors the trace format: a peer accepts messages
whose ``schema_version`` is at or below its own :data:`PROTOCOL_VERSION`
and rejects newer ones with :class:`ProtocolError` instead of guessing
at unknown semantics; the server refuses a ``hello`` from an older
revision at the handshake.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MESSAGE_KINDS",
    "FrameError",
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "make_message",
    "validate_message",
]

#: Current protocol revision.  Bump on any incompatible schema change.
#: 2: the wire carries control only — ``telemetry``/``telemetry_ack``
#: and ``deregister.summary`` are gone (the server reads the agent's
#: domain directory); a version-1 ``hello`` is refused at the handshake.
PROTOCOL_VERSION = 2

#: Upper bound on a single frame.  Every message is a small control
#: message; the largest, an ``escrow_attach`` carrying a service
#: specification, is well under a kilobyte.
MAX_FRAME_BYTES = 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed or oversized wire frame."""


class ProtocolError(ValueError):
    """A structurally invalid or incompatibly versioned message."""


#: Message kinds and the type of each required kind-specific field
#: (exact JSON types: a ``bool`` is not an ``int``).  ``clock`` and
#: ``schema_version`` are required on every message and checked
#: separately.
MESSAGE_KINDS: Dict[str, Dict[str, type]] = {
    # session lifecycle
    "hello": {"domain": str, "incarnation": int, "minute": int},
    "welcome": {"token": int, "session": str, "max_clock": int, "resumed": bool},
    "reject": {"reason": str},
    "heartbeat": {"domain": str, "minute": int},
    "heartbeat_ack": {"status": str, "global_min": int},
    "deregister": {"domain": str, "minute": int},
    "deregister_ack": {},
    # cross-domain escrow (two-phase, server-brokered)
    "escrow_request": {
        "escrow_id": str, "domain": str, "service": dict, "users": int, "minute": int,
        "token": int,
    },
    "escrow_reserve": {
        "escrow_id": str, "source_domain": str, "service": dict, "users": int, "minute": int,
    },
    "escrow_reserved": {"escrow_id": str, "ok": bool, "host": str, "note": str},
    "escrow_prepared": {
        "escrow_id": str, "ok": bool, "target_domain": str, "target_host": str, "note": str,
    },
    "escrow_commit": {
        "escrow_id": str, "domain": str, "instance_id": str, "source_host": str, "minute": int,
        "token": int,
    },
    "escrow_committed": {"escrow_id": str, "ok": bool, "note": str},
    "escrow_attach": {
        "escrow_id": str, "service": dict, "users": int, "host": str, "source_domain": str,
        "source_host": str, "token": int, "minute": int,
    },
    "escrow_attached": {"escrow_id": str, "ok": bool, "note": str},
    "escrow_abort": {"escrow_id": str, "domain": str, "minute": int, "note": str},
    "escrow_aborted": {"escrow_id": str},
    "escrow_release": {"escrow_id": str, "note": str},
}


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds the protocol maximum")
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder: feed raw bytes, collect complete messages.

    Tolerates arbitrary fragmentation — a frame may arrive one byte at a
    time or many frames in a single read — which is exactly what TCP
    delivers.  Raises :class:`FrameError` on oversized or non-JSON
    frames; the connection should be dropped after that, as framing sync
    is lost.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame of {length} bytes exceeds the protocol maximum"
                )
            if len(self._buffer) < _LENGTH.size + length:
                return messages
            payload = bytes(self._buffer[_LENGTH.size : _LENGTH.size + length])
            del self._buffer[: _LENGTH.size + length]
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise FrameError(f"undecodable frame: {exc}") from exc
            if not isinstance(decoded, dict):
                raise FrameError("frame payload is not a JSON object")
            messages.append(decoded)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def make_message(kind: str, clock: int, **fields: Any) -> Dict[str, Any]:
    """Build a schema-stamped message of ``kind``.

    Fields are validated against :data:`MESSAGE_KINDS` at construction so
    a malformed message fails at the producer, not on the peer.
    """
    message: Dict[str, Any] = {
        "schema_version": PROTOCOL_VERSION,
        "kind": kind,
        "clock": int(clock),
    }
    message.update(fields)
    return validate_message(message)


def validate_message(message: Any) -> Dict[str, Any]:
    """Check a decoded object against the schema; return it unchanged.

    Raises :class:`ProtocolError` on a missing/unknown kind, a required
    field that is missing or not of its declared type, or a
    ``schema_version`` newer than this build understands.
    """
    if not isinstance(message, dict):
        raise ProtocolError("message is not an object")
    version = message.get("schema_version")
    if type(version) is not int:
        raise ProtocolError("message lacks an integer schema_version")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"message schema_version {version} is newer than the supported "
            f"version {PROTOCOL_VERSION}; upgrade this peer"
        )
    kind = message.get("kind")
    if not isinstance(kind, str) or kind not in MESSAGE_KINDS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    clock = message.get("clock")
    if type(clock) is not int or clock < 0:
        raise ProtocolError(f"message kind {kind!r}: missing or negative clock")
    fields = MESSAGE_KINDS[kind]
    missing = [f for f in fields if f not in message]
    if missing:
        raise ProtocolError(
            f"message kind {kind!r}: missing required fields {missing}"
        )
    for field, expected in fields.items():
        if type(message[field]) is not expected:
            raise ProtocolError(
                f"message kind {kind!r}: field {field!r} must be "
                f"{expected.__name__}, not {type(message[field]).__name__}"
            )
    return message
