"""Deterministic simulation of the federation protocol, seeded.

The two pure machines — one :class:`Coordinator` and 2-4
:class:`AgentSession`\\ s on fake planes (hosts with free memory) — are
wired by a simulated network that passes every message through a
:class:`NetFaultInjector` (drop, duplicate, delay, one-way partition),
under a fake clock that a seeded scheduler moves.  Every timing
constant is scaled by :data:`SCALE`, so a schedule is a few simulated
seconds: a chaotic phase in which agents request escrows, a heal phase
without faults, then the deregistration.  Each schedule is checked for

* every prepared escrow attached or aborted, once healed;
* no escrow attached twice, after its release, or besides a compensation;
* no commit accepted, and no attach sent, under a token older than the
  source's latest grant;
* every grant raising the domain's token;
* a duplicate request answered by the identical cached reply;
* no willing peer losing an escrow to a silent one: a reserve fan-out
  is decided within its one deadline, and never refused once a peer
  had accepted.

A failing seed prints its schedule.
"""

import dataclasses
import heapq
import itertools
import random

import pytest

import repro.net.agent
import repro.net.agent_session
import repro.net.coordinator
import repro.net.session
from repro.net.agent_session import DOWN, UP, AgentSession
from repro.net.chaos import LinkFaults, NetChaosProfile, NetFaultInjector, PartitionWindow
from repro.net.coordinator import Coordinator

START = 720
SCHEDULES = 1000
#: every timing constant of both machines, scaled by the same factor
SCALE = 0.2
_TIMING = {
    repro.net.agent_session: (
        "ACK_TIMEOUT_SECONDS", "HANDSHAKE_SECONDS", "HEARTBEAT_SECONDS", "RESEND_SECONDS",
    ),
    repro.net.coordinator: ("RESERVE_SECONDS", "ATTACH_RETRY_SECONDS"),
    repro.net.session: ("WALL_GRACE_SECONDS", "WALL_TTL_SECONDS", "SIM_TTL_MINUTES"),
}


class Violation(AssertionError):
    pass


def check(condition, what):
    if not condition:
        raise Violation(what)


class FakeLease:
    """:class:`~repro.core.state.LeaseStore` semantics without SQLite."""

    def __init__(self, path):
        self.row = None

    def current(self):
        return self.row

    def acquire(self, holder, now, ttl):
        if self.row is None:
            self.row = (holder, 1, now + ttl)
            return 1
        current, token, expires = self.row
        if current == holder:
            self.row = (holder, token, now + ttl)
            return token
        if expires <= now:
            self.row = (holder, token + 1, now + ttl)
            return token + 1
        return None

    def renew(self, holder, now, ttl):
        if self.row is None or self.row[0] != holder:
            return None
        return self.acquire(holder, now, ttl)

    def release(self, holder):
        if self.row is not None and self.row[0] == holder:
            self.row = (holder, self.row[1], 0)

    def close(self):
        pass


class FakePlane:
    """A domain of two hosts with free memory; records what it is asked."""

    def __init__(self, domain, rng, attached):
        self.domain = domain
        self.free = {f"{domain}-h{i}": rng.choice((512, 1024, 2048)) for i in range(2)}
        #: escrow_id -> (target domain, token), shared by every plane
        self.attached = attached
        self.compensated = set()
        #: escrows this domain was told to release
        self.released = set()

    def adopt_token(self, minute, token):
        pass

    def record_net_event(self, minute, kind, detail):
        pass

    def find_capacity(self, service, held):
        needed = service["memory"]
        free = {host: mb - held.get(host, 0) for host, mb in sorted(self.free.items())}
        host = max(free, key=free.get)
        if free[host] < needed:
            return None, needed, f"no host with {needed}MB free"
        return host, needed, f"{free[host]}MB free"

    def attach(self, message, minute):
        escrow_id = message["escrow_id"]
        check(escrow_id not in self.attached, f"{escrow_id} attached twice")
        check(escrow_id not in self.released, f"{escrow_id} attached after its release")
        self.attached[escrow_id] = (self.domain, message["token"])
        self.free[message["host"]] -= message["service"]["memory"]
        return True, ""

    def compensate(self, commit, note, minute):
        self.compensated.add(commit["escrow_id"])


class Agent:
    def __init__(self, domain, plane):
        self.domain = domain
        self.plane = plane
        self.session = AgentSession(domain, plane, START)
        #: the connection it holds, or None
        self.link = None
        self.next_tick = 0.0
        #: escrow_id -> (prepare deadline, token, service) of its requests
        self.waiting = {}


class Simulation:
    def __init__(self, seed, state_dir):
        self.rng = rng = random.Random(seed)
        self.log = []
        self.domains = [f"domain-{i}" for i in range(1, rng.randint(2, 4) + 1)]
        noisy = LinkFaults(
            drop_probability=rng.uniform(0.0, 0.15),
            duplicate_probability=rng.uniform(0.0, 0.15),
            delay_probability=rng.uniform(0.0, 0.3),
            delay_seconds=(0.005, 0.06),
        )
        links = {}
        for domain in self.domains:
            if rng.random() < 0.45:
                begin = START + rng.randint(2, 16)
                window = PartitionWindow(
                    rng.choice(("in", "out")), begin, begin + rng.randint(3, 20)
                )
                links[domain] = dataclasses.replace(noisy, partitions=(window,))
        self.injector = NetFaultInjector(NetChaosProfile(seed, links, noisy))
        self.silent = (
            rng.choice(self.domains)
            if len(self.domains) > 2 and rng.random() < 0.5
            else None
        )
        self.coordinator = Coordinator(self.domains, state_dir, START)
        self.attached = {}
        self.agents = [
            Agent(d, FakePlane(d, rng, self.attached)) for d in self.domains
        ]
        self.prepare_seconds = repro.net.agent.PREPARE_SECONDS * SCALE
        self.now = 0.0
        self.chaos = True
        self._events = []
        self._order = itertools.count()
        self._link_ids = itertools.count(1)
        self._fifo = {}
        # what the checks remember
        self.grants = {}
        self.replies = {}
        self.requested_at = {}
        #: escrow_id -> {peer domain: its escrow_reserved's ok}, as delivered
        self.answers = {}
        self.prepared = {}

    # -- the scheduler --------------------------------------------------------------

    def at(self, when, action, *args):
        heapq.heappush(self._events, (when, next(self._order), action, args))

    def run(self):
        for agent in self.agents:
            agent.next_tick = self.rng.uniform(0.0, 0.01)
        self._until(0.65)
        self.chaos = False
        self.log.append((self.now, "", "heal", ""))
        self._until(self.now + 3.0, self.settled)
        self.check_settled()
        for agent in self.agents:
            agent.session.deregister()
        self._until(self.now + 2.0, lambda: all(a.session.deregistered for a in self.agents))
        for agent in self.agents:
            check(agent.session.deregistered, f"{agent.domain} never deregistered")
            check(
                self.coordinator.sessions.sessions[agent.domain].completed,
                f"{agent.domain}'s session was not completed",
            )

    def _until(self, end, done=lambda: False):
        for __ in range(200_000):
            if self.now >= end or done():
                return
            self._advance()
        raise Violation("livelock: the schedule stopped advancing")

    def _advance(self):
        """Move the clock to the next due thing and run all that is due."""
        inf = float("inf")
        server_due = self.coordinator.deadline()
        agent_dues = [a.session.deadline() for a in self.agents]
        self.now = max(
            self.now,
            min(
                self._events[0][0] if self._events else inf,
                inf if server_due is None else server_due,
                *(inf if due is None else due for due in agent_dues),
                *(a.next_tick for a in self.agents),
            ),
        )
        while self._events and self._events[0][0] <= self.now:
            __, __, action, args = heapq.heappop(self._events)
            action(*args)
        if server_due is not None and server_due <= self.now:
            self.from_coordinator(self.coordinator.poll(self.now))
        for agent, due in zip(self.agents, agent_dues):
            if agent.next_tick <= self.now:
                self.tick(agent)
            elif due is not None and due <= self.now:
                self.step(agent)

    # -- the network ----------------------------------------------------------------

    def wire(self, domain, direction, minute, message, deliver, *args):
        """One message onto the wire: faults, latency, FIFO unless delayed."""
        if self.chaos:
            deliveries = self.injector.filter(domain, direction, minute, message)
        else:
            deliveries = [(message, 0.0)]
        key = (domain, direction)
        for payload, delay in deliveries:
            when = self.now + self.rng.uniform(0.0005, 0.003)
            if delay > 0.0:
                when += delay  # overtaken by what follows: reordered
            else:
                when = self._fifo[key] = max(when, self._fifo.get(key, 0.0))
            self.at(when, deliver, *args, payload)

    def flush(self, agent):
        session = agent.session
        outbox, session.outbox = session.outbox, []
        for message in outbox:
            self.log.append((self.now, agent.domain, "->", message))
            self.check_agent_reply(agent, message)
            self.wire(
                agent.domain, "in", session.minute, message,
                self.to_coordinator, agent, agent.link,
            )
        if session.link == DOWN:
            agent.link = None

    def to_coordinator(self, agent, link, message):
        self.observe(agent, message)
        self.from_coordinator(self.coordinator.receive(link, message, self.now))

    def from_coordinator(self, out):
        for link, message in out:
            owner = next((a for a in self.agents if a.link == link), None)
            self.check_coordinator_message(message)
            if owner is not None:
                self.wire(
                    owner.domain, "out", owner.session.minute, message,
                    self.to_agent, owner, link,
                )

    def to_agent(self, agent, link, message):
        if agent.link != link:
            return  # that connection is gone
        if message["kind"] == "escrow_reserve" and agent.domain == self.silent:
            return
        self.log.append((self.now, agent.domain, "<-", message))
        if message["kind"] == "escrow_release":
            agent.plane.released.add(message["escrow_id"])
        agent.session.receive(message, self.now)
        self.resolve(agent)

    # -- an agent -------------------------------------------------------------------

    def step(self, agent):
        session = agent.session
        session.poll(self.now)
        if session.dial_due(self.now):
            agent.link = next(self._link_ids)
            session.dialled(self.now)
        self.resolve(agent)

    def tick(self, agent):
        session = agent.session
        session.minute += 1
        agent.next_tick = self.now + self.rng.uniform(0.02, 0.05)
        if self.chaos and session.link == UP and self.rng.random() < 0.15:
            service = {
                "name": f"svc-{agent.domain}-{session.escrow_seq + 1}",
                "memory": self.rng.choice((256, 512, 1024)),
            }
            token = session.token
            escrow_id = session.request_escrow(service, self.rng.randint(1, 40))
            if escrow_id is not None:
                deadline = self.now + self.prepare_seconds
                agent.waiting[escrow_id] = (deadline, token, service)
        self.step(agent)

    def resolve(self, agent):
        """The source side of ``DomainAgent._escrow_out``, without the wait."""
        session = agent.session
        for escrow_id, (deadline, token, service) in list(agent.waiting.items()):
            reply = session.prepared.get(escrow_id)
            if reply is None and session.link == UP and self.now < deadline:
                continue
            del agent.waiting[escrow_id]
            session.prepared.pop(escrow_id, None)
            if reply is None:
                session.abort_escrow(escrow_id, "prepare timed out")
            elif reply["ok"]:
                self.prepared[escrow_id] = agent
                session.commit_escrow(
                    {
                        "escrow_id": escrow_id,
                        "instance_id": f"{escrow_id}-instance",
                        "source_host": f"{agent.domain}-h0",
                        "minute": session.minute,
                        "token": token,
                        "service": service["name"],
                    },
                    self.now,
                )
        self.flush(agent)

    # -- the checks -----------------------------------------------------------------

    def observe(self, agent, message):
        kind = message.get("kind")
        if kind == "escrow_request":
            self.requested_at.setdefault(message["escrow_id"], self.now)
        elif kind == "escrow_reserved":
            escrow_id = message["escrow_id"]
            self.answers.setdefault(escrow_id, {}).setdefault(agent.domain, message["ok"])
            prepared = self.replies.get((escrow_id, "escrow_prepared"))
            in_time = self.now <= (
                self.requested_at[escrow_id] + repro.net.coordinator.RESERVE_SECONDS
            )
            check(
                not (message["ok"] and in_time and prepared and not prepared["ok"]),
                f"{escrow_id}: {agent.domain} accepted in time, but the escrow "
                f"was already refused ({prepared and prepared['note']})",
            )

    def check_agent_reply(self, agent, message):
        if message["kind"] in ("escrow_reserved", "escrow_attached"):
            body = {k: v for k, v in message.items() if k != "clock"}
            key = (agent.domain, message["escrow_id"], message["kind"])
            first = self.replies.setdefault(key, body)
            check(first == body, f"{key}: cached reply changed: {first} / {body}")

    def check_coordinator_message(self, message):
        kind = message["kind"]
        if kind == "welcome":
            domain = message["session"].split("/")[0]
            grants = self.grants.setdefault(domain, [])
            if message["resumed"]:
                check(grants and grants[-1] == message["token"], f"resumed {message}")
            else:
                check(
                    not grants or message["token"] > grants[-1],
                    f"{domain} granted {message['token']} after {grants}",
                )
                grants.append(message["token"])
        elif kind == "escrow_attach":
            latest = self.grants[message["source_domain"]][-1]
            check(
                message["token"] == latest,
                f"{message['escrow_id']} attach sent under token "
                f"{message['token']}, source granted {latest}",
            )
        elif kind in ("escrow_prepared", "escrow_committed", "escrow_aborted"):
            key = (message["escrow_id"], kind)
            if key in self.replies:
                check(self.replies[key] == message, f"{key}: cached reply changed")
                return
            self.replies[key] = message
            if kind == "escrow_committed" and message["ok"]:
                entry = self.coordinator.escrows[message["escrow_id"]]
                latest = self.grants[entry["source_domain"]][-1]
                check(
                    entry["token"] == latest,
                    f"{key} accepted under {entry['token']}, granted {latest}",
                )
            elif kind == "escrow_prepared":
                self.check_fan_out(message)

    def check_fan_out(self, prepared):
        escrow_id = prepared["escrow_id"]
        if prepared["note"].startswith("fenced"):
            return
        took = self.now - self.requested_at[escrow_id]
        expired = took >= repro.net.coordinator.RESERVE_SECONDS - 1e-9
        check(
            took <= repro.net.coordinator.RESERVE_SECONDS + 1e-9,
            f"{escrow_id} decided after {took:.3f}s",
        )
        answers = self.answers.get(escrow_id, {})
        winner = prepared["target_domain"] if prepared["ok"] else None
        for domain in self.coordinator.escrows[escrow_id]["asked"]:
            if domain == winner:
                break
            answer = answers.get(domain)
            check(
                answer is False or (answer is None and expired),
                f"{escrow_id} went to {winner} ({prepared['note']}) "
                f"while {domain} answered {answer} after {took:.3f}s",
            )

    def settled(self):
        return all(
            escrow_id in self.attached
            or escrow_id in source.plane.compensated
            or self.coordinator.escrows[escrow_id]["state"] == "aborted"
            for escrow_id, source in self.prepared.items()
        )

    def check_settled(self):
        for escrow_id, source in self.prepared.items():
            attached = escrow_id in self.attached
            compensated = escrow_id in source.plane.compensated
            aborted = self.coordinator.escrows[escrow_id]["state"] == "aborted"
            check(
                not (attached and compensated),
                f"{escrow_id} attached and compensated",
            )
            check(
                attached or compensated or aborted,
                f"{escrow_id} prepared but neither attached nor aborted",
            )

    def schedule(self):
        lines = [
            f"domains {self.domains}, silent {self.silent}, "
            f"faults {self.injector.profile}"
        ]
        for when, who, what, message in self.log:
            if isinstance(message, dict):
                message = {k: v for k, v in message.items() if k != "schema_version"}
            lines.append(f"{when:9.4f} {who:9} {what} {message}")
        return "\n".join(lines)


@pytest.fixture
def scaled_timing(monkeypatch):
    for module, names in _TIMING.items():
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name) * SCALE)
    monkeypatch.setattr(
        repro.net.agent_session,
        "BACKOFF_SECONDS",
        tuple(b * SCALE for b in repro.net.agent_session.BACKOFF_SECONDS),
    )
    monkeypatch.setattr(repro.net.session, "LeaseStore", FakeLease)


def test_seeded_schedules_keep_the_protocols_invariants(scaled_timing, tmp_path):
    for seed in range(SCHEDULES):
        simulation = Simulation(seed, tmp_path)
        try:
            simulation.run()
        except Violation as violation:
            pytest.fail(
                f"seed {seed}: {violation}\n{simulation.schedule()}", pytrace=False
            )
