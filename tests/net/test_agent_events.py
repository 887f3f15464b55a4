"""A domain agent's events are state: rows of its own ``state.db``.

A lone agent nobody answers (its endpoint factory raises ``OSError``)
runs degraded from the first minute and is therefore deterministic.
Run to the end, and SIGKILLed mid-horizon and resumed, it leaves the
same event log — complete, gapless, Lamport-stamped — and a resumed
agent's outbox is exactly the rows the server has not acknowledged.
Every finish waits out the 5 s deregister drain, hence the short horizon.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading

import repro
from repro.net.agent import DomainAgent
from repro.ops.store import read_store

START = 12 * 60
HORIZON = 45
KILL_AT = START + 27  # between the snapshots at :19 and :29


def _nobody_answers():
    raise OSError("no federation server")


def _agent(state_dir, **kwargs):
    return DomainAgent(
        "domain-1", 2, _nobody_answers, state_dir, user_factor=1.15,
        horizon=HORIZON, seed=7, start_minute=START, connect_grace=0.0, **kwargs,
    )


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
        from repro.net.agent import DomainAgent

        def nobody_answers():
            raise OSError("no federation server")

        now = [0.0]
        def monotonic():
            now[0] += %r
            return now[0]
        time.monotonic = monotonic

        DomainAgent(
            "domain-1", 2, nobody_answers, sys.argv[1], user_factor=1.15,
            horizon=%d, seed=7, start_minute=%d, connect_grace=0.0, kill_at=%d,
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

    # the server had acknowledged everything up to seq 7 (say) when the
    # snapshot was taken: exactly the rows past it are still owed
    with sqlite3.connect(state_db) as patch:
        (text,) = patch.execute(
            "SELECT payload FROM snapshots WHERE kind = 'run'"
        ).fetchone()
        payload = json.loads(text)
        bus_seq = payload["net"]["bus_seq"]
        assert 7 < bus_seq < len(survived)  # rows past the snapshot exist
        payload["net"]["acked_seq"] = 7
        patch.execute(
            "UPDATE snapshots SET payload = ? WHERE kind = 'run'",
            (json.dumps(payload),),
        )

    def resume():
        agent = _agent(tmp_path / "killed", resume=True)
        result = agent._resume_from_snapshot()
        outbox = [dict(entry) for entry in agent._outbox]
        agent.events.close()
        agent.store.close()
        return result, outbox

    tick, outbox = _in_thread(resume)
    assert tick == snapshot_minute  # the last snapshot before the kill
    assert [entry["seq"] for entry in outbox] == list(range(8, bus_seq + 1))
    assert [
        (entry["seq"], entry["topic"], entry["record"], entry["clock"])
        for entry in outbox
    ] == [(e.seq, e.topic, e.record, e.clock) for e in survived[7:bus_seq]]
    assert json.loads(json.dumps(outbox)) == outbox  # JSON shape: lists

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

    def history(stream):
        # a resumed process walks its restored instances in another
        # order: within a minute, reports list (and sum) and situations
        # open in that order — the same events, minute for minute
        return sorted(
            (
                event.record["time"],
                event.topic,
                json.dumps(
                    dict(
                        event.record,
                        rows=sorted(
                            (subject, metric, minute, round(value, 9))
                            for subject, metric, minute, value
                            in event.record.get("rows", ())
                        ),
                    ),
                    sort_keys=True,
                ),
            )
            for event in stream
        )

    assert history(resumed) == history(expected)
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
        range(1, json.loads(text)["net"]["bus_seq"] + 1)
    )
