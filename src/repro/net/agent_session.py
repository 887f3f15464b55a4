"""The agent's side of the federation protocol, as one pure state machine.

An :class:`AgentSession` is everything a domain agent decides about the
wire — handshake and fencing token, heartbeat schedule, pacing floor,
ack-gap degraded mode, reconnect backoff, both sides' escrow states and
reply caches, the Lamport clock — without a socket, a thread or a
clock.  Its driver (:meth:`repro.net.agent.DomainAgent._pump`, or a
test) dials when :meth:`~AgentSession.dial_due` and reports the outcome,
feeds arrived messages to :meth:`~AgentSession.receive` and a broken
connection to :meth:`~AgentSession.lost`, runs :meth:`~AgentSession.poll`
no later than :meth:`~AgentSession.deadline`, sends
:attr:`~AgentSession.outbox` and hangs up whenever
:attr:`~AgentSession.link` is :data:`DOWN`.  Entry points take ``now``,
wall seconds on any monotonic origin; the driver moves
:attr:`~AgentSession.minute`.  What touches the domain is the *plane's*:
``adopt_token(minute, token)``, ``record_net_event(minute, kind,
detail)``, ``find_capacity(service, held) -> (host or None, memory_mb,
note)`` (``held``: memory other reservations keep, per host),
``attach(message, minute) -> (ok, note)`` and ``compensate(commit, note,
minute)`` for a commit refused after the detach.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.protocol import ProtocolError, make_message, validate_message
from repro.telemetry.trace import LamportClock

__all__ = ["AgentSession", "DOWN", "HELLO", "UP"]

#: the link: no connection, a hello awaiting its welcome, a live session
DOWN, HELLO, UP = "down", "hello", "up"

#: a connected agent holds still while it is more than this many
#: simulated minutes ahead of the slowest live peer
SIM_LEAD_MINUTES = 30
#: a heartbeat unacknowledged this long: degraded mode
ACK_TIMEOUT_SECONDS = 1.5
#: a hello unanswered this long: the dial failed
HANDSHAKE_SECONDS = 2.0
#: a heartbeat every this many simulated minutes or wall seconds,
#: whichever comes first — every PACE_SECONDS while held by the floor
HEARTBEAT_MINUTES = 5
HEARTBEAT_SECONDS = 0.25
PACE_SECONDS = 0.01
#: reconnect backoff, doubling from the first to the second
BACKOFF_SECONDS = (0.05, 2.0)
#: an unanswered ``escrow_commit`` or ``deregister`` is re-sent this often
RESEND_SECONDS = 0.5

#: message kinds that count as the server acknowledging us; used by the
#: degraded-mode detector.  ``escrow_reserve`` / ``escrow_attach`` are
#: *not* in here — during a one-way (inbound-open) partition the server
#: can still reach us while our requests vanish, and those pushes must
#: not mask the silence.
_ACK_KINDS = frozenset(
    {"heartbeat_ack", "deregister_ack", "escrow_prepared", "escrow_committed", "escrow_aborted"}
)


class AgentSession:
    """One domain agent's protocol state: messages in, messages out."""

    def __init__(self, domain: str, plane: Any, minute: int) -> None:
        self.domain = domain
        self.plane = plane
        self.minute = minute
        self.clock = LamportClock()
        #: messages for the driver to send, in order
        self.outbox: List[Dict[str, Any]] = []
        self.link = DOWN
        self.token: Optional[int] = None
        self.incarnation = 1
        #: the pacing floor: the slowest live peer's minute
        self.global_min = minute
        self.degraded = False
        #: deregistration asked for, and over (nothing is dialled after)
        self.deregistering = False
        self.deregistered = False
        #: escrow attaches wait while this is set: the plane is mid-minute
        self.hold_attaches = False
        self.counts = {
            "degraded_count": 0,
            "resync_count": 0,
            "escrow_out": 0,
            "escrow_in": 0,
        }
        # -- escrow, source side
        self.escrow_seq = 0
        #: escrow_id -> its escrow_prepared, once it arrived
        self.prepared: Dict[str, Optional[Dict[str, Any]]] = {}
        #: escrow_id -> a detached instance's commit, until answered
        self.commits: Dict[str, Dict[str, Any]] = {}
        # -- escrow, target side
        self.reservations: Dict[str, Dict[str, Any]] = {}
        self.released: set = set()
        self.reserve_replies: Dict[str, Dict[str, Any]] = {}
        self.attach_replies: Dict[str, Dict[str, Any]] = {}
        self._attaches: List[Dict[str, Any]] = []
        # -- timers
        self._backoff = BACKOFF_SECONDS[0]
        self._dial_at = float("-inf")
        self._hello_due = 0.0
        self._backlog: List[Dict[str, Any]] = []
        self._ack_since: Optional[float] = None
        self._beat_minute = minute - HEARTBEAT_MINUTES
        self._beat_wall = float("-inf")
        self._deregister_at = float("-inf")

    # -- the link ----------------------------------------------------------------------

    def dial_due(self, now: float) -> bool:
        return self.link == DOWN and not self.deregistered and now >= self._dial_at

    def dialled(self, now: float) -> None:
        """A fresh connection: say hello."""
        self.link = HELLO
        self._hello_due = now + HANDSHAKE_SECONDS
        self.outbox.append(
            make_message(
                "hello",
                self.clock.tick(),
                domain=self.domain,
                incarnation=self.incarnation,
                minute=self.minute,
            )
        )

    def dial_failed(self, now: float) -> None:
        """No connection, or no welcome on it: back off, then dial again."""
        self._hang_up()
        self._dial_at = now + self._backoff
        self._backoff = min(self._backoff * 2, BACKOFF_SECONDS[1])

    def lost(self, now: float, reason: str) -> None:
        """The connection broke (or carried what cannot be followed)."""
        if self.link == HELLO:
            self.dial_failed(now)
        elif self.link == UP:
            self.degrade(reason)

    def degrade(self, reason: str) -> None:
        """Administer the domain alone until a welcome comes back."""
        self._hang_up()
        if not self.degraded:
            self.degraded = True
            self.counts["degraded_count"] += 1
            self.plane.record_net_event(self.minute, "net-degraded", reason)

    def _hang_up(self) -> None:
        self.link = DOWN
        self.outbox.clear()
        self._backlog.clear()
        self._ack_since = None

    def _redial(self) -> None:
        """The server expired our session: re-handshake at once.

        Not a degraded transition — the wire works, only the session is
        stale; the fresh handshake bumps the fencing token.
        """
        self._hang_up()
        self._dial_at = float("-inf")

    def ahead(self) -> bool:
        """Connected and too far ahead of the slowest live peer.

        Only a connected agent paces itself: a partitioned one cannot
        learn the floor and must keep administering its domain — that
        is the degraded-mode contract.
        """
        return self.link == UP and self.minute - self.global_min > SIM_LEAD_MINUTES

    def deregister(self) -> None:
        """Ask the server to end the session; over when :attr:`deregistered`."""
        self.deregistering = True

    def close(self) -> None:
        """Hang up for good: nothing is sent or dialled after this."""
        self._hang_up()
        self.deregistered = True

    # -- messages in -------------------------------------------------------------------

    def receive(self, message: Any, now: float) -> None:
        try:
            validate_message(message)
        except ProtocolError as exc:
            # a peer that sends this cannot be followed: drop the link
            self.lost(now, f"malformed message: {exc}")
            return
        self.clock.witness(message["clock"])
        if self.link == UP:
            self._dispatch(message)
        elif self.link == HELLO:
            self._handshake(message, now)

    def _handshake(self, message: Dict[str, Any], now: float) -> None:
        kind = message["kind"]
        if kind == "reject":
            self.dial_failed(now)
        elif kind != "welcome":
            self._backlog.append(message)
        else:
            backlog, self._backlog = self._backlog, []
            self.link = UP
            self._backoff = BACKOFF_SECONDS[0]
            self._resync(message)
            for queued in backlog:
                if self.link == UP:
                    self._dispatch(queued)

    def _resync(self, welcome: Dict[str, Any]) -> None:
        """Adopt the session: token, clock rebase, degraded-mode exit."""
        # rebase past everything the server (and through it, every peer)
        # has seen, so post-resync events — the new LEADER_EPOCH first —
        # sort after all in-flight cross-domain chains in the merge
        self.clock.witness(welcome["max_clock"])
        self.token = welcome["token"]
        self.plane.adopt_token(self.minute, self.token)
        if self.degraded:
            self.degraded = False
            self.counts["resync_count"] += 1
            self.plane.record_net_event(
                self.minute, "net-resynced", welcome["session"]
            )
        self._ack_since = None

    def _dispatch(self, message: Dict[str, Any]) -> None:
        kind = message["kind"]
        if kind in _ACK_KINDS:
            self._ack_since = None
        if kind == "heartbeat_ack":
            self.global_min = message["global_min"]
            if message["status"] == "deposed":
                self._redial()
        elif kind == "deregister_ack":
            self.deregistered = True
        elif kind == "escrow_reserve":
            self._reserve(message)
        elif kind == "escrow_release":
            self.reservations.pop(message["escrow_id"], None)
            self.released.add(message["escrow_id"])
        elif kind == "escrow_attach":
            self._attaches.append(message)
            if not self.hold_attaches:
                self._run_attaches()
        elif kind == "escrow_committed":
            self._committed(message)
        elif kind == "escrow_prepared":
            if message["escrow_id"] in self.prepared:
                self.prepared[message["escrow_id"]] = message
        elif kind == "reject":
            self._redial()

    # -- timers ------------------------------------------------------------------------

    def poll(self, now: float) -> None:
        """Whatever is due: handshake timeout, held attaches, resends,
        the ack-gap check, the heartbeat or the deregister."""
        if self.link == HELLO and now >= self._hello_due:
            self.dial_failed(now)  # the handshake timed out
        if self.link != UP:
            return
        if not self.hold_attaches:
            self._run_attaches()
        for commit in self.commits.values():
            if now >= commit["due"]:
                commit["due"] = now + RESEND_SECONDS
                self._send_commit(commit)
        if self._ack_since is not None and now >= self._ack_since + ACK_TIMEOUT_SECONDS:
            self.degrade("no acknowledgements from server")
        elif self.deregistering:
            if now >= self._deregister_at:
                self._deregister_at = now + RESEND_SECONDS
                self._send("deregister", domain=self.domain, minute=self.minute)
        elif (
            self.minute - self._beat_minute >= HEARTBEAT_MINUTES
            or now >= self._next_beat()
        ):
            self._beat_minute, self._beat_wall = self.minute, now
            self._send("heartbeat", domain=self.domain, minute=self.minute)
            if self._ack_since is None:
                self._ack_since = now

    def deadline(self) -> Optional[float]:
        """The wall time :meth:`poll` (or a dial) next has work."""
        if self.link == DOWN:
            return None if self.deregistered else self._dial_at
        if self.link == HELLO:
            return self._hello_due
        times = [commit["due"] for commit in self.commits.values()]
        if self._ack_since is not None:
            times.append(self._ack_since + ACK_TIMEOUT_SECONDS)
        times.append(self._deregister_at if self.deregistering else self._next_beat())
        return min(times)

    def _next_beat(self) -> float:
        # held by the floor, the agent asks for it often: only a heartbeat
        # ack tells it the floor has moved
        return self._beat_wall + (PACE_SECONDS if self.ahead() else HEARTBEAT_SECONDS)

    # -- messages out ------------------------------------------------------------------

    def _send(self, kind: str, **fields: Any) -> bool:
        if self.link != UP:
            return False
        self.outbox.append(make_message(kind, self.clock.tick(), **fields))
        return True

    # -- escrow, source side -----------------------------------------------------------

    def request_escrow(self, service: Dict[str, Any], users: int) -> Optional[str]:
        """Ask the server to reserve a peer host; the escrow id, if sent.

        Its ``escrow_prepared`` lands in :attr:`prepared`.
        """
        self.escrow_seq += 1
        escrow_id = f"{self.domain}-esc-{self.escrow_seq:05d}"
        if not self._send(
            "escrow_request",
            escrow_id=escrow_id,
            domain=self.domain,
            service=service,
            users=users,
            minute=self.minute,
            token=self.token,
        ):
            return None
        self.prepared[escrow_id] = None
        return escrow_id

    def abort_escrow(self, escrow_id: str, note: str) -> None:
        self.prepared.pop(escrow_id, None)
        self._send(
            "escrow_abort",
            escrow_id=escrow_id,
            domain=self.domain,
            minute=self.minute,
            note=note,
        )

    def commit_escrow(self, commit: Dict[str, Any], now: float) -> None:
        """The instance is detached: commit, re-sent until answered.

        ``commit`` carries ``escrow_id``, ``instance_id``,
        ``source_host``, ``minute`` and ``token`` for the message, and
        whatever the plane's ``compensate`` needs back.
        """
        commit["due"] = now + RESEND_SECONDS
        self.commits[commit["escrow_id"]] = commit
        self._send_commit(commit)

    def _send_commit(self, commit: Dict[str, Any]) -> None:
        self._send(
            "escrow_commit",
            escrow_id=commit["escrow_id"],
            domain=self.domain,
            instance_id=commit["instance_id"],
            source_host=commit["source_host"],
            minute=commit["minute"],
            token=commit["token"],
        )

    def _committed(self, reply: Dict[str, Any]) -> None:
        commit = self.commits.pop(reply["escrow_id"], None)
        if commit is None:
            return  # duplicate reply; already resolved
        if reply["ok"]:
            self.counts["escrow_out"] += 1
        else:
            self.plane.compensate(commit, reply["note"], self.minute)

    # -- escrow, target side -----------------------------------------------------------

    def _reserve(self, message: Dict[str, Any]) -> None:
        escrow_id = message["escrow_id"]
        reply = self.reserve_replies.get(escrow_id)
        if reply is None:
            if escrow_id in self.released:
                reply = {"ok": False, "host": "", "note": "escrow released"}
            else:
                held: Dict[str, int] = {}
                for other, reservation in self.reservations.items():
                    if other != escrow_id:
                        host = reservation["host"]
                        held[host] = held.get(host, 0) + reservation["memory"]
                host, memory, note = self.plane.find_capacity(message["service"], held)
                if host is None:
                    reply = {"ok": False, "host": "", "note": note}
                else:
                    self.reservations[escrow_id] = {"host": host, "memory": memory}
                    reply = {"ok": True, "host": host, "note": note}
            self.reserve_replies[escrow_id] = reply
        self._send("escrow_reserved", escrow_id=escrow_id, **reply)

    def _run_attaches(self) -> None:
        while self._attaches and self.link == UP:
            self._attach(self._attaches.pop(0))

    def _attach(self, message: Dict[str, Any]) -> None:
        escrow_id = message["escrow_id"]
        reply = self.attach_replies.get(escrow_id)
        if reply is None:
            if escrow_id in self.released:
                reply = {"ok": False, "note": "escrow released"}
            else:
                ok, note = self.plane.attach(message, self.minute)
                reply = {"ok": ok, "note": note}
                if ok:
                    self.counts["escrow_in"] += 1
            self.attach_replies[escrow_id] = reply
            self.reservations.pop(escrow_id, None)
        self._send("escrow_attached", escrow_id=escrow_id, **reply)

    # -- the run snapshot --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "clock": self.clock.time,
            "escrow_seq": self.escrow_seq,
            "incarnation": self.incarnation,
            "reservations": self.reservations,
            "released": sorted(self.released),
            "reserve_replies": self.reserve_replies,
            "attach_replies": self.attach_replies,
            "global_min": self.global_min,
        }

    def restore(self, net: Dict[str, Any]) -> None:
        """The ``net`` section a snapshot holds.

        Escrows that were mid-commit at a kill are deliberately *not*
        restored: the server's finalize synthesizes a coordinator abort
        for any escrow left without attach/abort, which keeps the merged
        trace AG302-clean (at the cost of the moved users, a documented
        double-fault loss).
        """
        self.clock.time = net["clock"]
        self.escrow_seq = net["escrow_seq"]
        # a resumed process is a new incarnation: the handshake must
        # re-grant (and fence) rather than silently renew
        self.incarnation = net["incarnation"] + 1
        self.reservations = dict(net.get("reservations", {}))
        self.released = set(net.get("released", []))
        self.reserve_replies = dict(net.get("reserve_replies", {}))
        self.attach_replies = dict(net.get("attach_replies", {}))
        self.global_min = net.get("global_min", self.global_min)
