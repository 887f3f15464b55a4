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
session is deposed when it falls ``sim_ttl_minutes`` behind the fastest
live session *and* has been wall-silent briefly — or when it is
wall-silent outright for ``wall_ttl_seconds``, which catches a dead
process even if every agent is paused at the same minute.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.state import STATE_FILE, LeaseStore

__all__ = ["AgentSession", "SessionManager"]


@dataclass
class AgentSession:
    """Mutable server-side record of one domain's agent session."""

    domain: str
    incarnation: int
    token: int
    holder: str
    minute: int
    last_heartbeat_wall: float
    deposed: bool = False
    completed: bool = False
    #: transport handle the server uses to push messages; opaque here
    endpoint: object = None


class SessionManager:
    """Heartbeat sessions with lease-backed fencing, one per domain."""

    def __init__(
        self,
        state_dir: Path,
        start_minute: int,
        sim_ttl_minutes: int = 30,
        wall_ttl_seconds: float = 10.0,
        wall_grace_seconds: float = 2.0,
        lease_ttl_minutes: int = 60,
        clock: Optional[object] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.start_minute = start_minute
        self.sim_ttl_minutes = sim_ttl_minutes
        self.wall_ttl_seconds = wall_ttl_seconds
        self.wall_grace_seconds = wall_grace_seconds
        self.lease_ttl_minutes = lease_ttl_minutes
        self._wall = time.monotonic if clock is None else clock  # type: ignore[assignment]
        self._lock = threading.RLock()
        self._leases: Dict[str, LeaseStore] = {}
        self.sessions: Dict[str, AgentSession] = {}
        self._grant_sequence = 0
        self.deposed_count = 0

    def close(self) -> None:
        with self._lock:
            for lease in self._leases.values():
                lease.close()
            self._leases.clear()

    def _lease_for(self, domain: str) -> LeaseStore:
        lease = self._leases.get(domain)
        if lease is None:
            directory = self.state_dir / domain
            directory.mkdir(parents=True, exist_ok=True)
            lease = LeaseStore(directory / STATE_FILE, cross_thread=True)
            self._leases[domain] = lease
        return lease

    # -- lifecycle ---------------------------------------------------------------------

    def handshake(
        self, domain: str, incarnation: int, minute: int, endpoint: object = None
    ) -> AgentSession:
        """Grant (or resume) the domain's session; returns the record.

        A pure reconnect — same incarnation, session never deposed —
        renews the existing lease and keeps the fencing token.  Anything
        else (first contact, a restarted agent, a deposed agent coming
        back after a partition) releases the stale lease and acquires a
        fresh one, so the token is bumped and everything the old epoch
        still has in flight is fenced.
        """
        with self._lock:
            lease = self._lease_for(domain)
            existing = self.sessions.get(domain)
            if (
                existing is not None
                and existing.incarnation == incarnation
                and not existing.deposed
                and not existing.completed
            ):
                token = lease.acquire(
                    existing.holder, minute, self.lease_ttl_minutes
                )
                if token is not None:
                    existing.minute = max(existing.minute, minute)
                    existing.last_heartbeat_wall = self._wall()
                    if endpoint is not None:
                        existing.endpoint = endpoint
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
            token = lease.acquire(holder, minute, self.lease_ttl_minutes)
            if token is None:
                # an unexpired foreign lease (e.g. a single-process run's
                # supervisor once owned this store): force the handover
                row = lease.current()
                if row is not None:
                    lease.release(row[0])
                token = lease.acquire(holder, minute, self.lease_ttl_minutes)
            assert token is not None
            session = AgentSession(
                domain=domain,
                incarnation=incarnation,
                token=token,
                holder=holder,
                minute=minute,
                last_heartbeat_wall=self._wall(),
                endpoint=endpoint,
            )
            self.sessions[domain] = session
            return session

    def heartbeat(self, domain: str, minute: int) -> str:
        """Renew the session; returns ``"ok"`` or ``"deposed"``."""
        with self._lock:
            session = self.sessions.get(domain)
            if session is None or session.deposed:
                return "deposed"
            session.minute = max(session.minute, minute)
            session.last_heartbeat_wall = self._wall()
            self._lease_for(domain).renew(
                session.holder, minute, self.lease_ttl_minutes
            )
            return "ok"

    def complete(self, domain: str) -> None:
        """The agent deregistered cleanly; release its lease."""
        with self._lock:
            session = self.sessions.get(domain)
            if session is not None:
                session.completed = True
                self._lease_for(domain).release(session.holder)

    # -- expiry ------------------------------------------------------------------------

    def sweep(self) -> List[AgentSession]:
        """Depose silent sessions; returns the freshly deposed ones."""
        now_wall = self._wall()
        deposed: List[AgentSession] = []
        with self._lock:
            live = [
                s
                for s in self.sessions.values()
                if not s.deposed and not s.completed
            ]
            global_max = max((s.minute for s in live), default=self.start_minute)
            for session in live:
                silent = now_wall - session.last_heartbeat_wall
                lagging = (
                    global_max - session.minute > self.sim_ttl_minutes
                    and silent > self.wall_grace_seconds
                )
                if silent > self.wall_ttl_seconds or lagging:
                    session.deposed = True
                    self._lease_for(session.domain).release(session.holder)
                    self.deposed_count += 1
                    deposed.append(session)
        return deposed

    # -- loose sim-time synchronization ------------------------------------------------

    def global_min_minute(self, expected_domains: List[str]) -> int:
        """Slowest live minute; the pacing floor agents sync against.

        Domains that have not connected yet (or were deposed — a deposed
        agent must not hold everyone else back) do not contribute, but
        until every expected domain has completed or connected at least
        once the floor stays at the start minute so early agents cannot
        run away from late starters.
        """
        with self._lock:
            minutes = []
            for domain in expected_domains:
                session = self.sessions.get(domain)
                if session is None:
                    minutes.append(self.start_minute)
                elif not session.deposed and not session.completed:
                    minutes.append(session.minute)
            return min(minutes, default=self.start_minute)

    def current_token(self, domain: str) -> Optional[int]:
        with self._lock:
            session = self.sessions.get(domain)
            if session is None or session.deposed:
                return None
            return session.token
