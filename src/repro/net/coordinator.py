"""Everything the federation server decides, as one pure state machine.

A :class:`Coordinator` is the server's half of the protocol without a
socket, a thread or a clock.  Its driver — the
:class:`~repro.net.server.FederationServer` loop, or a test — names each
connection by a *link* (any hashable) and calls :meth:`~Coordinator.receive`
for each message that arrived on one and :meth:`~Coordinator.poll` for
the timers, no later than :meth:`~Coordinator.deadline`; both take
``now`` (wall seconds, any monotonic origin) and return the messages to
send now as ``(link, message)`` pairs.  It owns:

* **sessions** — handshakes and heartbeats on per-domain leases
  (:class:`~repro.net.session.SessionManager`); a silent agent is
  deposed and its fencing token bumped on the next handshake;
* **the escrow ledger** — the two-phase relocation of
  :class:`repro.core.federation.FederatedControlPlane` as messages.  A
  request asks every live peer at once and is decided by one deadline,
  :data:`RESERVE_SECONDS`: the first peer in sorted order that accepted
  wins as soon as every peer before it has refused, and peers that
  reserved in vain are released — one silent peer costs an escrow at
  most the deadline, never a willing peer's reservation;
* **reply caches** — escrow replies are cached by escrow id, so
  duplicated or retried requests get the original answer; request and
  commit are *token-revalidated* against the source's live session;
* **attach retries** — every :data:`ATTACH_RETRY_SECONDS` until the
  target answers;
* **wire chaos** — an optional :class:`~repro.net.chaos.NetFaultInjector`
  on both directions of every agent link.
"""

from __future__ import annotations

import heapq
import itertools
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.net.chaos import NetChaosProfile, NetFaultInjector
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    make_message,
    validate_message,
)
from repro.net.session import DomainSession, SessionManager
from repro.telemetry.trace import LamportClock

__all__ = ["Coordinator"]

#: one deadline per escrow for the whole reserve fan-out; an agent
#: waits longer for its ``escrow_prepared``
RESERVE_SECONDS = 2.0
#: an unacknowledged ``escrow_attach`` is re-sent this often
ATTACH_RETRY_SECONDS = 0.5

Outgoing = List[Tuple[Hashable, Dict[str, Any]]]


class Coordinator:
    """The federation server's decisions: messages in, messages out."""

    def __init__(
        self,
        domains: List[str],
        state_dir: Path,
        start_minute: int,
        net_chaos: Optional[NetChaosProfile] = None,
    ) -> None:
        self.domains = sorted(domains)
        self.start_minute = start_minute
        self.sessions = SessionManager(state_dir, start_minute)
        self.clock = LamportClock()
        self.injector = (
            NetFaultInjector(net_chaos) if net_chaos is not None else None
        )
        #: escrow_id -> ledger entry (state + fields for attach/abort)
        self.escrows: Dict[str, Dict[str, Any]] = {}
        #: escrow_id -> wall deadline of its reserve fan-out
        self._reserving: Dict[str, float] = {}
        #: (escrow_id, reply_kind) -> cached reply message (idempotency)
        self._replies: Dict[Tuple[str, str], Dict[str, Any]] = {}
        #: escrow_id -> [target_domain, attach message, next send wall]
        self._attaches: Dict[str, List[Any]] = {}
        #: delayed chaos deliveries: (due, tiebreak, inbound, link or domain, message)
        self._delayed: List[Tuple[float, int, bool, Any, Dict[str, Any]]] = []
        self._tiebreak = itertools.count()
        #: link -> the domain whose hello it carried
        self._links: Dict[Hashable, str] = {}
        self._out: Outgoing = []
        #: the ``now`` of the entry point being run
        self._now = 0.0

    def close(self) -> None:
        """Close the leases (on the thread that used them)."""
        self.sessions.close()

    # -- entry points ------------------------------------------------------------------

    def receive(self, link: Hashable, message: Any, now: float) -> Outgoing:
        """One message that arrived on ``link``; returns what to send."""
        self._now = now
        try:
            validate_message(message)
        except ProtocolError as exc:
            self._reject(link, str(exc))
            return self._flush()
        self.clock.witness(message["clock"])
        if self.injector is None:
            deliveries = [(message, 0.0)]
        else:
            # hello is filtered too: an "in"-partitioned agent must not
            # be able to void its partition by re-handshaking — it stays
            # degraded until the window passes.  Kinds whose schema has
            # no domain or minute are filed under the link's
            domain, minute = message.get("domain"), message.get("minute")
            deliveries = self.injector.filter(
                domain if isinstance(domain, str) else self._links.get(link, ""),
                "in",
                minute if type(minute) is int else self.start_minute,
                message,
            )
        for payload, delay in deliveries:
            if delay > 0.0:
                self._hold(delay, True, link, payload)
            else:
                self._dispatch(link, payload)
        return self._flush()

    def poll(self, now: float) -> Outgoing:
        """Run every timer that is due; returns what to send."""
        self._now = now
        while self._delayed and self._delayed[0][0] <= now:
            __, __, inbound, key, message = heapq.heappop(self._delayed)
            if inbound:
                self._dispatch(key, message)
            elif key in self.sessions.sessions:
                self._out.append((self.sessions.sessions[key].link, message))
        self.sessions.sweep(now)
        for escrow_id, due in list(self._reserving.items()):
            if due <= now:
                self._settle(escrow_id, expired=True)
        self._deliver_attaches()
        return self._flush()

    def deadline(self) -> Optional[float]:
        """The wall time :meth:`poll` next has work, or ``None``."""
        times = [pending[2] for pending in self._attaches.values()]
        times.extend(self._reserving.values())
        if self._delayed:
            times.append(self._delayed[0][0])
        expiry = self.sessions.deadline()
        if expiry is not None:
            times.append(expiry)
        return min(times, default=None)

    # -- message plumbing --------------------------------------------------------------

    def _flush(self) -> Outgoing:
        out, self._out = self._out, []
        return out

    def _hold(self, delay: float, inbound: bool, key: Any, message: Dict[str, Any]) -> None:
        heapq.heappush(
            self._delayed,
            (self._now + delay, next(self._tiebreak), inbound, key, message),
        )

    def _message(self, kind: str, **fields: Any) -> Dict[str, Any]:
        return make_message(kind, self.clock.tick(), **fields)

    def _send(self, domain: str, message: Dict[str, Any]) -> None:
        """Send to a domain's agent, through the outbound chaos filter."""
        session = self.sessions.sessions.get(domain)
        if session is None:
            return
        deliveries = [(message, 0.0)]
        if self.injector is not None:
            deliveries = self.injector.filter(domain, "out", session.minute, message)
        for payload, delay in deliveries:
            if delay > 0.0:
                self._hold(delay, False, domain, payload)
            else:
                self._out.append((session.link, payload))

    def _reject(self, link: Hashable, reason: str) -> None:
        """Refuse a message on its own connection, past the chaos filter."""
        self._out.append((link, self._message("reject", reason=reason)))

    def _dispatch(self, link: Hashable, message: Dict[str, Any]) -> None:
        kind = message["kind"]
        if kind == "hello":
            self._on_hello(link, message)
            return
        if kind == "escrow_reserved":
            # replies from the target side carry no domain field: the
            # link says who answered, the escrow id what
            self._on_reserved(self._links.get(link), message)
            return
        if kind == "escrow_attached":
            self._on_attached(message)
            return
        domain = str(message.get("domain", ""))
        session = self.sessions.sessions.get(domain)
        if session is None:
            self._reject(link, f"no session for domain {domain!r}; handshake first")
            return
        handler = {
            "heartbeat": self._on_heartbeat,
            "deregister": self._on_deregister,
            "escrow_request": self._on_escrow_request,
            "escrow_commit": self._on_escrow_commit,
            "escrow_abort": self._on_escrow_abort,
        }.get(kind)
        if handler is not None:
            handler(session, message)

    # -- sessions ----------------------------------------------------------------------

    def _on_hello(self, link: Hashable, message: Dict[str, Any]) -> None:
        domain = message["domain"]
        if message["schema_version"] < PROTOCOL_VERSION:
            # validate_message only knows a maximum: an older agent would
            # go on to send kinds this revision no longer has
            self._reject(
                link,
                f"hello schema_version {message['schema_version']} is older "
                f"than this server's protocol version {PROTOCOL_VERSION}; "
                "upgrade the agent",
            )
            return
        if domain not in self.domains:
            # the name becomes a directory under state_dir
            self._reject(link, f"unknown domain {domain!r}")
            return
        previous_token = self.sessions.current_token(domain)
        session = self.sessions.handshake(
            domain, message["incarnation"], message["minute"], self._now, link=link
        )
        self._links[link] = domain
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
        # delivered anywhere in the federation.  The welcome goes through
        # the ordinary outbound filter: a lost welcome is just a failed
        # handshake the agent retries
        max_clock = self.clock.time
        self._send(
            domain,
            self._message(
                "welcome",
                token=session.token,
                session=session.holder,
                max_clock=max_clock,
                resumed=resumed,
            ),
        )
        # a reconnected agent may have missed its attach while partitioned
        for pending in self._attaches.values():
            if pending[0] == domain:
                pending[2] = self._now
        self._deliver_attaches()

    def _on_heartbeat(self, session: DomainSession, message: Dict[str, Any]) -> None:
        status = self.sessions.heartbeat(session.domain, message["minute"], self._now)
        global_min = self.sessions.global_min_minute(self.domains)
        self._send(
            session.domain,
            self._message("heartbeat_ack", status=status, global_min=global_min),
        )

    def _on_deregister(self, session: DomainSession, message: Dict[str, Any]) -> None:
        self.sessions.complete(session.domain)
        self._out.append((session.link, self._message("deregister_ack")))

    # -- the escrow ledger -------------------------------------------------------------

    def _resend_cached(self, domain: str, escrow_id: str, kind: str) -> bool:
        cached = self._replies.get((escrow_id, kind))
        if cached is not None:
            self._send(domain, cached)
        return cached is not None

    def _reply_cached(self, domain: str, kind: str, **fields: Any) -> None:
        message = self._message(kind, **fields)
        self._replies[(fields["escrow_id"], kind)] = message
        self._send(domain, message)

    def _release(self, domain: str, escrow_id: str, note: str) -> None:
        self._send(domain, self._message("escrow_release", escrow_id=escrow_id, note=note))

    def _on_escrow_request(
        self, session: DomainSession, message: Dict[str, Any]
    ) -> None:
        source, escrow_id = session.domain, message["escrow_id"]
        if self._resend_cached(source, escrow_id, "escrow_prepared"):
            return
        if escrow_id in self.escrows:
            return  # a duplicate of a request whose peers are still asked
        if message["token"] != self.sessions.current_token(source):
            self._reply_cached(
                source, "escrow_prepared", escrow_id=escrow_id, ok=False,
                target_domain="", target_host="", note="fenced: stale fencing token",
            )
            return
        peers = self.sessions.sessions
        asked = [
            domain
            for domain in self.domains
            if domain != source
            and domain in peers
            and not peers[domain].deposed
            and not peers[domain].completed
        ]
        self.escrows[escrow_id] = {
            "state": "reserving",
            "source_domain": source,
            "target_domain": "",
            "target_host": "",
            "service": message["service"],
            "users": message["users"],
            "token": message["token"],
            "minute": message["minute"],
            "service_name": str(message["service"].get("name", "")),
            "asked": asked,
            "answers": {},
        }
        self._reserving[escrow_id] = self._now + RESERVE_SECONDS
        for domain in asked:
            self._send(
                domain,
                self._message(
                    "escrow_reserve",
                    escrow_id=escrow_id,
                    source_domain=source,
                    service=message["service"],
                    users=message["users"],
                    minute=message["minute"],
                ),
            )
        self._settle(escrow_id, expired=False)

    def _on_reserved(self, domain: Optional[str], message: Dict[str, Any]) -> None:
        entry = self.escrows.get(message["escrow_id"])
        if (
            entry is None
            or entry["state"] != "reserving"
            or domain not in entry["asked"]
            or domain in entry["answers"]
        ):
            return  # late, duplicated or unasked
        entry["answers"][domain] = message
        self._settle(message["escrow_id"], expired=False)

    def _settle(self, escrow_id: str, expired: bool) -> None:
        """Decide a reserving escrow if its answers (or its deadline) allow."""
        entry = self.escrows[escrow_id]
        target_domain = target_host = ""
        notes = []
        for domain in entry["asked"]:
            reply = entry["answers"].get(domain)
            if reply is None:
                if not expired:
                    return  # a peer before any winner may still accept
                notes.append(f"{domain}: no answer")
            elif reply["ok"] and reply["host"]:
                target_domain, target_host = domain, reply["host"]
                break
            else:
                notes.append(f"{domain}: {reply['note']}")
        del self._reserving[escrow_id]
        ok = target_host != ""
        entry.update(
            state="prepared" if ok else "refused",
            target_domain=target_domain,
            target_host=target_host,
        )
        for domain in entry["asked"]:
            reply = entry["answers"].get(domain)
            if domain != target_domain and (reply is None or reply["ok"]):
                self._release(domain, escrow_id, "reserved elsewhere or too late")
        if ok:
            note = f"reserved on {target_domain}"
        else:
            note = "; ".join(notes) if notes else "no live peer domains"
        self._reply_cached(
            entry["source_domain"], "escrow_prepared", escrow_id=escrow_id, ok=ok,
            target_domain=target_domain, target_host=target_host, note=note,
        )

    def _on_escrow_commit(self, session: DomainSession, message: Dict[str, Any]) -> None:
        source, escrow_id = session.domain, message["escrow_id"]
        if self._resend_cached(source, escrow_id, "escrow_committed"):
            return
        entry = self.escrows.get(escrow_id)
        token = message["token"]
        if entry is None or entry["state"] not in ("prepared", "committed"):
            ok, note = False, "unknown or unprepared escrow"
        elif token != self.sessions.current_token(source) or token != entry["token"]:
            # a new epoch was granted between prepare and commit: the
            # commit is from a deposed leader, refuse it like a fenced
            # action — the source aborts and compensates locally
            ok, note = False, "fenced: session token changed since prepare"
        else:
            ok, note = True, "committed"
            entry.update(
                state="committed",
                source_host=message["source_host"],
                instance_id=message["instance_id"],
            )
        self._reply_cached(
            source, "escrow_committed", escrow_id=escrow_id, ok=ok, note=note
        )
        if ok:
            attach = self._message(
                "escrow_attach",
                escrow_id=escrow_id,
                service=entry["service"],
                users=entry["users"],
                host=entry["target_host"],
                source_domain=source,
                source_host=entry["source_host"],
                token=token,
                minute=entry["minute"],
            )
            self._attaches[escrow_id] = [entry["target_domain"], attach, self._now]
            self._deliver_attaches()

    def _deliver_attaches(self) -> None:
        for pending in self._attaches.values():
            if pending[2] > self._now:
                continue
            pending[2] = self._now + ATTACH_RETRY_SECONDS
            target = self.sessions.sessions.get(pending[0])
            if target is not None and not target.completed:
                self._send(pending[0], pending[1])

    def _cancel_attaches_from(self, domain: str) -> None:
        """Abort unconfirmed attaches whose source epoch just changed."""
        for escrow_id in list(self._attaches):
            entry = self.escrows[escrow_id]
            if entry["source_domain"] == domain:
                entry["state"] = "aborted"
                self._release(
                    self._attaches.pop(escrow_id)[0],
                    escrow_id,
                    f"source domain {domain} epoch changed mid-attach",
                )

    def _on_escrow_abort(self, session: DomainSession, message: Dict[str, Any]) -> None:
        source, escrow_id = session.domain, message["escrow_id"]
        if self._resend_cached(source, escrow_id, "escrow_aborted"):
            return
        entry = self.escrows.get(escrow_id)
        if entry is not None and entry["state"] in ("reserving", "prepared", "refused"):
            if entry["state"] == "reserving":
                del self._reserving[escrow_id]
                targets = entry["asked"]
            else:
                targets = [entry["target_domain"]]
            entry["state"] = "aborted"
            for domain in targets:
                self._release(domain, escrow_id, message["note"])
        self._reply_cached(source, "escrow_aborted", escrow_id=escrow_id)

    def _on_attached(self, message: Dict[str, Any]) -> None:
        escrow_id = message["escrow_id"]
        self._attaches.pop(escrow_id, None)
        entry = self.escrows.get(escrow_id)
        if entry is not None:
            entry["state"] = "attached" if message["ok"] else "aborted"
