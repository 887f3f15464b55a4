"""Server-side heartbeat sessions over the per-domain lease store.

A :class:`SessionManager` owns one :class:`repro.core.state.LeaseStore`
per control domain, opened on ``state_dir/<domain>/state.db`` — the
very file the domain's agent journals, snapshots and archives into, so
fencing tokens stay monotonic across agent restarts *and* server
restarts (WAL mode lets the two processes write side by side).  The
protocol mapping:

* **handshake** — a new agent incarnation releases any stale lease and
  acquires a fresh one, bumping the fencing token; a reconnecting,
  still-live incarnation renews and keeps its token.
* **heartbeat** — renews the lease and records the agent's simulated
  minute plus a wall-clock receipt time.
* **expiry** — a silent agent is *deposed*: its lease is released so
  the next handshake (its own resurrection or a replacement) fences the
  old token, exactly the :class:`LeaseStore` takeover semantics the
  in-process supervisor uses.

Expiry is hybrid.  Simulated time is only loosely synchronized across
agents (they pause when too far ahead of the slowest peer), so a
session is deposed when it falls :data:`SIM_TTL_MINUTES` behind the
fastest live session *and* has been wall-silent for
:data:`WALL_GRACE_SECONDS` — or when it is wall-silent outright for
:data:`WALL_TTL_SECONDS`, which catches a dead process even if every
agent is paused at the same minute.

Sans-IO: the manager reads no clock — every method that depends on wall
time takes it as ``now`` (seconds on any monotonic origin) — and it is
part of the :class:`~repro.net.coordinator.Coordinator`, so one thread,
the server's loop, opens, uses and closes every lease.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.state import STATE_FILE, LeaseStore

__all__ = ["DomainSession", "SessionManager"]

#: simulated minutes a live session may lag the fastest one ...
SIM_TTL_MINUTES = 30
#: ... once it has also been wall-silent this long
WALL_GRACE_SECONDS = 2.0
#: wall silence that deposes a session whatever its minute
WALL_TTL_SECONDS = 10.0
#: lease term, in simulated minutes, from the grant or the latest renewal
LEASE_TTL_MINUTES = 60


@dataclass
class DomainSession:
    """Mutable server-side record of one domain's agent session."""

    domain: str
    incarnation: int
    token: int
    holder: str
    minute: int
    last_heartbeat_wall: float
    deposed: bool = False
    completed: bool = False
    #: the server's name for the connection it pushes messages on
    link: Optional[int] = None


class SessionManager:
    """Heartbeat sessions with lease-backed fencing, one per domain."""

    def __init__(self, state_dir: Path, start_minute: int) -> None:
        self.state_dir = Path(state_dir)
        self.start_minute = start_minute
        self._leases: Dict[str, LeaseStore] = {}
        self.sessions: Dict[str, DomainSession] = {}
        self._grant_sequence = 0
        self.deposed_count = 0

    def close(self) -> None:
        for lease in self._leases.values():
            lease.close()
        self._leases.clear()

    def _lease_for(self, domain: str) -> LeaseStore:
        lease = self._leases.get(domain)
        if lease is None:
            directory = self.state_dir / domain
            directory.mkdir(parents=True, exist_ok=True)
            lease = LeaseStore(directory / STATE_FILE)
            self._leases[domain] = lease
        return lease

    # -- lifecycle ---------------------------------------------------------------------

    def handshake(
        self,
        domain: str,
        incarnation: int,
        minute: int,
        now: float,
        link: Optional[int] = None,
    ) -> DomainSession:
        """Grant (or resume) the domain's session; returns the record.

        A pure reconnect — same incarnation, session never deposed —
        renews the existing lease and keeps the fencing token.  Anything
        else (first contact, a restarted agent, a deposed agent coming
        back after a partition) releases the stale lease and acquires a
        fresh one, so the token is bumped and everything the old epoch
        still has in flight is fenced.
        """
        lease = self._lease_for(domain)
        existing = self.sessions.get(domain)
        if (
            existing is not None
            and existing.incarnation == incarnation
            and not existing.deposed
            and not existing.completed
        ):
            token = lease.acquire(existing.holder, minute, LEASE_TTL_MINUTES)
            if token is not None:
                existing.minute = max(existing.minute, minute)
                existing.last_heartbeat_wall = now
                if link is not None:
                    existing.link = link
                return existing
            # somebody else took the lease: fall through to re-grant
        if existing is not None:
            lease.release(existing.holder)
        row = lease.current()
        if row is not None:
            # a previous server instance may have granted sessions to
            # this store; resume numbering past its last holder so a
            # fresh grant never collides with (and silently renews)
            # an old epoch's lease, which would hand out a duplicate
            # fencing token
            prefix = f"{domain}/session-"
            if row[0].startswith(prefix):
                try:
                    self._grant_sequence = max(
                        self._grant_sequence, int(row[0][len(prefix):])
                    )
                except ValueError:
                    pass
        self._grant_sequence += 1
        holder = f"{domain}/session-{self._grant_sequence}"
        token = lease.acquire(holder, minute, LEASE_TTL_MINUTES)
        if token is None:
            # an unexpired foreign lease (e.g. a single-process run's
            # supervisor once owned this store): force the handover
            row = lease.current()
            if row is not None:
                lease.release(row[0])
            token = lease.acquire(holder, minute, LEASE_TTL_MINUTES)
        assert token is not None
        session = DomainSession(
            domain=domain,
            incarnation=incarnation,
            token=token,
            holder=holder,
            minute=minute,
            last_heartbeat_wall=now,
            link=link,
        )
        self.sessions[domain] = session
        return session

    def heartbeat(self, domain: str, minute: int, now: float) -> str:
        """Renew the session; returns ``"ok"`` or ``"deposed"``."""
        session = self.sessions.get(domain)
        if session is None or session.deposed:
            return "deposed"
        session.last_heartbeat_wall = now
        if minute > session.minute:
            # the lease term runs in minutes: a heartbeat of a minute
            # already renewed would rewrite the same expiry
            session.minute = minute
            self._lease_for(domain).renew(session.holder, minute, LEASE_TTL_MINUTES)
        return "ok"

    def complete(self, domain: str) -> None:
        """The agent deregistered cleanly; release its lease."""
        session = self.sessions.get(domain)
        if session is not None:
            session.completed = True
            self._lease_for(domain).release(session.holder)

    # -- expiry ------------------------------------------------------------------------

    def _live(self) -> List[DomainSession]:
        return [
            s for s in self.sessions.values() if not s.deposed and not s.completed
        ]

    def _expiry(self, session: DomainSession, global_max: int) -> float:
        """The wall time at which ``session``, silent from now on, is deposed."""
        lagging = global_max - session.minute > SIM_TTL_MINUTES
        silence = WALL_GRACE_SECONDS if lagging else WALL_TTL_SECONDS
        return session.last_heartbeat_wall + silence

    def sweep(self, now: float) -> List[DomainSession]:
        """Depose silent sessions; returns the freshly deposed ones."""
        live = self._live()
        global_max = max((s.minute for s in live), default=self.start_minute)
        deposed: List[DomainSession] = []
        for session in live:
            if now >= self._expiry(session, global_max):
                session.deposed = True
                self._lease_for(session.domain).release(session.holder)
                self.deposed_count += 1
                deposed.append(session)
        return deposed

    def deadline(self) -> Optional[float]:
        """When :meth:`sweep` next deposes someone, if nobody speaks."""
        live = self._live()
        global_max = max((s.minute for s in live), default=self.start_minute)
        return min((self._expiry(s, global_max) for s in live), default=None)

    # -- loose sim-time synchronization ------------------------------------------------

    def global_min_minute(self, expected_domains: List[str]) -> int:
        """Slowest live minute; the pacing floor agents sync against.

        Domains that have not connected yet (or were deposed — a deposed
        agent must not hold everyone else back) do not contribute, but
        until every expected domain has completed or connected at least
        once the floor stays at the start minute so early agents cannot
        run away from late starters.
        """
        minutes = []
        for domain in expected_domains:
            session = self.sessions.get(domain)
            if session is None:
                minutes.append(self.start_minute)
            elif not session.deposed and not session.completed:
                minutes.append(session.minute)
        return min(minutes, default=self.start_minute)

    def current_token(self, domain: str) -> Optional[int]:
        session = self.sessions.get(domain)
        if session is None or session.deposed:
            return None
        return session.token
