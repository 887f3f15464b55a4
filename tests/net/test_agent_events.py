"""A domain agent's events are state: rows of its own ``state.db``.

A lone agent nobody answers (its endpoint factory raises ``OSError``)
runs degraded from the first minute and is therefore deterministic.
Run to the end, and SIGKILLed mid-horizon and resumed, it leaves the
same event log — complete, gapless, Lamport-stamped; a resume is
``truncate_after(bus_seq)`` and nothing else, also from a snapshot the
previous revision wrote.
Every finish waits out the 5 s deregistration bound, hence the short horizon.

An agent facing a *scripted* server (a loopback peer that answers from a
function) shows the two things only a peer can provoke: the summary is
written after deregistration and counts an action that lands in it, and
a malformed message degrades the agent instead of ending its process.
"""

import dataclasses
import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
import repro.net.agent
from repro.analysis import verify_traces
from repro.config.builtin import (
    domain_sublandscape,
    paper_landscape,
    partition_landscape,
)
from repro.config.model import ServiceKind, service_spec_to_dict
from repro.core.failover import ControllerSupervisor
from repro.net.agent import DomainAgent
from repro.net.protocol import make_message
from repro.net.transport import EndpointClosed, loopback_pair
from repro.ops.store import read_store
from repro.sim.runner import SimulationRunner, make_executor_factory
from repro.sim.scenarios import Scenario, default_chaos

START = 12 * 60
HORIZON = 45
KILL_AT = START + 27  # between the snapshots at :19 and :29


def _nobody_answers():
    raise OSError("no federation server")


@pytest.fixture(autouse=True)
def _no_connect_grace(monkeypatch):
    monkeypatch.setattr(repro.net.agent, "CONNECT_GRACE_SECONDS", 0.0)


def _agent(state_dir, endpoint_factory=_nobody_answers, horizon=HORIZON, **kwargs):
    return DomainAgent(
        "domain-1", 2, endpoint_factory, state_dir, user_factor=1.15,
        horizon=horizon, seed=7, start_minute=START, **kwargs,
    )


def _scripted_server(respond):
    """An endpoint factory whose peer answers each message of the agent
    with ``respond(message, reply)``'s list of messages, where
    ``reply(kind, **fields)`` stamps one after the message it answers."""

    def factory():
        client, server_side = loopback_pair()

        def serve():
            try:
                while True:
                    message = server_side.recv(timeout=0.5)
                    if message is None:
                        continue

                    def reply(kind, **fields):
                        return make_message(kind, message["clock"] + 1, **fields)

                    for answer in respond(message, reply):
                        server_side.send(answer)
            except EndpointClosed:
                return
            finally:
                server_side.close()

        threading.Thread(target=serve, daemon=True).start()
        return client

    return factory


def _session(message, reply):
    """The script every scripted server shares: welcome, heartbeat ack,
    and no peer domain to relocate to."""
    if message["kind"] == "hello":
        return [
            reply(
                "welcome", token=1, session="script",
                max_clock=message["clock"], resumed=False,
            )
        ]
    if message["kind"] == "heartbeat":
        return [reply("heartbeat_ack", status="ok", global_min=message["minute"])]
    if message["kind"] == "escrow_request":
        return [
            reply(
                "escrow_prepared", escrow_id=message["escrow_id"], ok=False,
                target_domain="", target_host="", note="no live peer domains",
            )
        ]
    return []


def _in_thread(function):
    """Agents own SQLite handles: build and use one on a single thread."""
    outcome = {}

    def target():
        try:
            outcome["value"] = function()
        except BaseException as error:  # re-raised by the caller
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "agent hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _kill_mid_horizon(state_dir, seconds_per_call):
    """SIGKILL the agent at ``KILL_AT`` under a fake wall clock that
    advances by ``seconds_per_call``: 0.3 ages every batch past the
    commit policy at every tick boundary, 0.0 never does."""
    child = textwrap.dedent(
        """
        import sys, time
        import repro.net.agent
        from repro.net.agent import DomainAgent

        repro.net.agent.CONNECT_GRACE_SECONDS = 0.0

        def nobody_answers():
            raise OSError("no federation server")

        now = [0.0]
        def monotonic():
            now[0] += %r
            return now[0]
        time.monotonic = monotonic

        DomainAgent(
            "domain-1", 2, nobody_answers, sys.argv[1], user_factor=1.15,
            horizon=%d, seed=7, start_minute=%d, kill_at=%d,
        ).run()
        """
        % (seconds_per_call, HORIZON, START, KILL_AT)
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", child, str(state_dir)],
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert result.returncode == -signal.SIGKILL


def _assert_a_whole_log(path):
    header, events = read_store(path)
    assert header.complete is True
    assert [event.seq for event in events] == list(range(1, len(events) + 1))
    clocks = [event.clock for event in events]
    assert None not in clocks and clocks == sorted(clocks)
    assert max(event.record["time"] for event in events) == START + HORIZON - 1
    return events


def test_a_killed_and_resumed_agent_leaves_the_uninterrupted_log(tmp_path):
    _in_thread(lambda: _agent(tmp_path / "whole").run())
    expected = _assert_a_whole_log(tmp_path / "whole" / "domain-1" / "state.db")

    state_db = tmp_path / "killed" / "domain-1" / "state.db"
    _kill_mid_horizon(tmp_path / "killed", seconds_per_call=0.3)
    _, survived = read_store(state_db)
    snapshot_minute = START + 19
    # every tick committed: rows of the abandoned timeline survive
    assert snapshot_minute < max(e.record["time"] for e in survived) <= KILL_AT

    # the snapshot as the previous revision wrote it: its ``net`` section
    # also carried the telemetry outbox cursors, which resume ignores
    with sqlite3.connect(state_db) as patch:
        (text,) = patch.execute(
            "SELECT payload FROM snapshots WHERE kind = 'run'"
        ).fetchone()
        payload = json.loads(text)
        bus_seq = payload["bus_seq"]
        assert bus_seq < len(survived)  # rows past the snapshot exist
        net = payload["supervisor"]["net"]
        assert "batch" not in net and "acked_seq" not in net
        net.update(batch=3, acked_seq=7)
        patch.execute(
            "UPDATE snapshots SET payload = ? WHERE kind = 'run'",
            (json.dumps(payload),),
        )

    def resume():
        agent = _agent(tmp_path / "killed", resume=True)
        tick = agent.runner._resume_from_snapshot()
        kept = agent.events.last_seq()
        agent.events.close()
        agent.store.close()
        return tick, kept

    # the last snapshot before the kill, and the rows up to its cursor
    assert _in_thread(resume) == (snapshot_minute, bus_seq)

    _in_thread(lambda: _agent(tmp_path / "killed", resume=True).run())
    resumed = _assert_a_whole_log(state_db)
    # the resumed process announces once more that nobody answers
    extra = [
        event for event in resumed
        if event.record.get("kind") == "net-degraded"
        and event.record["time"] == snapshot_minute + 1
    ]
    assert len(extra) == 1 and len(resumed) == len(expected) + 1
    resumed.remove(extra[0])

    def stored(path, dropped=()):
        # each event's topic and record exactly as its row holds them
        connection = sqlite3.connect(path)
        try:
            return [
                (topic, record)
                for seq, topic, record in connection.execute(
                    "SELECT seq, topic, record FROM events ORDER BY seq"
                )
                if seq not in dropped
            ]
        finally:
            connection.close()

    assert stored(state_db, dropped={extra[0].seq}) == stored(
        tmp_path / "whole" / "domain-1" / "state.db"
    )
    names = sorted(p.name for p in state_db.parent.iterdir())
    assert [n for n in names if not n.endswith(("-wal", "-shm"))] == [
        "state.db", "summary.json",
    ]


def test_a_snapshot_never_points_past_the_committed_rows(tmp_path):
    """With a wall clock that never ages a batch, only the flush before
    each snapshot commits: the rows a kill leaves end exactly at the
    last snapshot's ``bus_seq``."""
    _kill_mid_horizon(tmp_path, seconds_per_call=0.0)
    state_db = tmp_path / "domain-1" / "state.db"
    header, survived = read_store(state_db)
    with sqlite3.connect(state_db) as connection:
        (tick, text) = connection.execute(
            "SELECT tick, payload FROM snapshots WHERE kind = 'run'"
        ).fetchone()
    assert tick == START + 19
    assert header.complete is True
    assert [event.seq for event in survived] == list(
        range(1, json.loads(text)["bus_seq"] + 1)
    )


def test_the_summary_counts_an_action_that_lands_in_the_deregistration(tmp_path):
    """The server answers the agent's first ``deregister`` with an escrow
    (reserve, then attach onto the host the agent offered) and
    acknowledges only once the instance is attached: the attach is an
    action of this run, and the summary — written after deregistration,
    not carried by it — counts it."""
    foreign = next(
        spec
        for spec in domain_sublandscape(
            partition_landscape(paper_landscape(), 2), "domain-2"
        ).services
        if spec.kind is ServiceKind.APPLICATION_SERVER
    )
    escrow = dict(
        escrow_id="domain-2-esc-00001", service=service_spec_to_dict(foreign),
        users=5, source_domain="domain-2",
    )
    started = []

    def respond(message, reply):
        kind = message["kind"]
        if kind == "deregister":
            if started:
                return []  # the agent repeats itself; the escrow is under way
            started.append(message["minute"])
            return [reply("escrow_reserve", minute=started[0], **escrow)]
        if kind == "escrow_reserved":
            assert message["ok"], message
            return [
                reply(
                    "escrow_attach", host=message["host"], source_host="Blade11",
                    token=1, minute=started[0], **escrow,
                )
            ]
        if kind == "escrow_attached":
            assert message["ok"], message
            return [reply("deregister_ack")]
        return _session(message, reply)

    _in_thread(
        lambda: _agent(tmp_path, _scripted_server(respond), horizon=20).run()
    )
    directory = tmp_path / "domain-1"
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    _, events = read_store(directory / "state.db")
    actions = [event for event in events if event.topic == "actions"]
    assert "escrow domain-2-esc-00001 attach" in actions[-1].record["note"]
    assert summary["action_count"] == len(actions)
    assert summary["net"]["escrow_in"] == 1
    # the lone script has no source side: no commit precedes the attach
    report = verify_traces(
        [directory / "state.db"], summary_path=directory / "summary.json",
        ignore=("AG302",),
    )
    assert report.errors == ()


def test_a_malformed_message_degrades_the_agent_and_it_runs_on(tmp_path):
    """A well-framed ``heartbeat_ack`` whose ``global_min`` is not a
    number: the agent drops the link like a lost connection, says so on
    the record, reconnects and finishes its horizon."""
    bad = []

    def respond(message, reply):
        if message["kind"] == "heartbeat" and not bad:
            ack = reply("heartbeat_ack", status="ok", global_min=message["minute"])
            bad.append(dict(ack, global_min="x"))
            return bad
        if message["kind"] == "deregister":
            return [reply("deregister_ack")]
        return _session(message, reply)

    _in_thread(
        lambda: _agent(tmp_path, _scripted_server(respond), horizon=20).run()
    )
    directory = tmp_path / "domain-1"
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    assert summary["net"]["partial"] is False
    assert summary["net"]["degraded_count"] == 1
    assert summary["net"]["resync_count"] == 1
    _, events = read_store(directory / "state.db")
    (degraded,) = [
        event.record for event in events
        if event.record.get("kind") == "net-degraded"
    ]
    assert "'heartbeat_ack'" in degraded["detail"]
    assert "'global_min' must be int" in degraded["detail"]


# -- the licence of "one run loop": an agent is a runner plus a wire -----------------

LICENCE_HORIZON = 360
#: (domain, chaos) -> actions of the run; 35 / 1 / 55 / 7 since PR 19
LICENCE_CASES = {
    ("domain-1", False): 35,
    ("domain-2", False): 1,
    ("domain-1", True): 55,
    ("domain-2", True): 7,
}


def _essence(result):
    from repro.sim.export import summary_json_payload

    return summary_json_payload(result), [
        (
            a.time, a.action.value, a.service_name, a.instance_id,
            a.source_host, a.target_host, a.status,
        )
        for a in result.actions
    ]


@pytest.fixture(scope="module")
def lone_agents(tmp_path_factory):
    """The four agents nobody answers, side by side: each waits out its
    deregistration bound, so they wait together."""
    state_dir = tmp_path_factory.mktemp("licence")
    runs = {}
    grace = pytest.MonkeyPatch()
    grace.setattr(repro.net.agent, "CONNECT_GRACE_SECONDS", 0.0)

    def run(domain, chaos):
        agent = DomainAgent(
            domain, 2, _nobody_answers, state_dir / f"chaos-{chaos}",
            user_factor=1.15, horizon=LICENCE_HORIZON, seed=7,
            start_minute=START,
            chaos=default_chaos(115) if chaos else None,
        )
        runs[domain, chaos] = _essence(agent.run())

    threads = [
        threading.Thread(target=run, args=case, daemon=True)
        for case in LICENCE_CASES
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
    grace.undo()
    assert not any(thread.is_alive() for thread in threads), "agent hung"
    return runs


@pytest.mark.parametrize("domain, chaos", LICENCE_CASES)
def test_a_lone_agent_is_the_runner_of_its_shard(lone_agents, domain, chaos):
    """A degraded agent's wire does nothing, so what it leaves is the
    single-process run of the same shard under the agent's seeds:
    workload ``seed + index``, injector ``chaos.seed + 1 + index``,
    executors ``chaos.seed + 1000 + replica`` (not shifted per domain —
    shift them and domain-2 under chaos acts 8 times, not 7)."""
    index = int(domain[-1]) - 1
    profile = default_chaos(115) if chaos else None

    def supervisor(platform, settings, enabled):
        return ControllerSupervisor(
            platform, settings=settings, enabled=enabled,
            executor_factory=make_executor_factory(platform, profile),
        )

    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=LICENCE_HORIZON,
        seed=7 + index, start_minute=START, lint="off",
        collect_host_series=False, controller_factory=supervisor,
        landscape=domain_sublandscape(
            partition_landscape(paper_landscape(), 2), domain
        ),
        chaos=(
            dataclasses.replace(profile, seed=profile.seed + index)
            if chaos else None
        ),
    )
    summary, actions = _essence(runner.run())
    assert len(actions) == LICENCE_CASES[domain, chaos]
    assert (summary, actions) == lone_agents[domain, chaos]


def test_an_agent_never_holds_a_transaction_at_a_wire_step(tmp_path, monkeypatch):
    """A domain agent opens no write group: the federation server writes
    the lease into the same ``state.db`` from another process, and its
    one loop would wait out ``busy_timeout`` behind an open transaction."""
    open_at_step = []
    step = DomainAgent._step

    def spy(self, wait):
        open_at_step.append(self.store.db.connection.in_transaction)
        return step(self, wait)

    def respond(message, reply):
        if message["kind"] == "deregister":
            return [reply("deregister_ack")]
        return _session(message, reply)

    monkeypatch.setattr(DomainAgent, "_step", spy)
    _in_thread(
        lambda: _agent(tmp_path, _scripted_server(respond), horizon=20).run()
    )
    assert open_at_step and not any(open_at_step)
