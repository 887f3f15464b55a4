"""Multi-process federation: agent/server control plane over a wire protocol.

The package splits :class:`repro.core.federation.FederatedControlPlane`
across real OS processes: one coordinating :class:`FederationServer` and
one :class:`DomainAgent` process per control domain, speaking a small
versioned length-prefixed JSON RPC protocol.  The wire carries control
(sessions, heartbeats, escrow); an agent's events and run summary stay
in its domain directory, which the server reads at finalization.

Modules
-------
``protocol``
    Wire framing (4-byte big-endian length prefix + UTF-8 JSON) and the
    versioned, typed message schema.
``transport``
    :class:`TcpEndpoint` over a stream socket: TCP across processes, a
    socketpair in tests.
``chaos``
    :class:`NetFaultInjector` — deterministic per-link wire faults
    (drop / duplicate / reorder / delay / one-way partition).
``session``
    Server-side heartbeat sessions backed by the per-domain
    :class:`repro.core.state.LeaseStore` fencing semantics.
``coordinator``
    Everything the server decides, without I/O: sessions, the escrow
    ledger and its reserve fan-out, reply caches, attach retries, chaos.
``agent_session``
    Everything an agent decides about the wire, without I/O: handshake,
    heartbeats, pacing, degraded mode, backoff, both sides' escrow.
``server``
    The coordinator's one-thread selector loop, and the merge and
    verification of the agents' event logs.
``agent``
    The per-domain agent process: a runner over a sub-landscape whose
    control plane drives its session through one wait.
``orchestrator``
    Process supervision for ``autoglobe run --multiproc``.
"""

from repro.net.protocol import (  # noqa: F401
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    encode_frame,
    make_message,
    validate_message,
)

__all__ = [
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "FrameError",
    "ProtocolError",
    "encode_frame",
    "make_message",
    "validate_message",
]
