"""Real OS-process federation: graceful shutdown, crash respawn, chaos,
and a failed run that ends in one line instead of a traceback.

Acceptance: SIGTERM is graceful — the agent commits its journal and
event log, writes a resumable partial summary and deregisters with a final
heartbeat (satellite: graceful shutdown); and a seeded multi-process
chaos run (agent SIGKILL + wire faults + one-way partition) completes
with the merged trace AG3xx-clean.
"""

import json
import signal
import subprocess
import time
from contextlib import closing

import pytest

from repro.analysis import EXIT_ERRORS
from repro.cli import main
from repro.core.state import DurableStateStore, StateCorruptError, open_readonly
from repro.net.orchestrator import (
    _agent_command,
    _agent_environment,
    run_multiproc,
)
from repro.net.server import FederationServer
from repro.ops.store import read_store
from repro.sim.scenarios import Scenario
from repro.telemetry.trace import TraceSchemaError, read_trace

START = 12 * 60
HORIZON = 120
DOMAINS = ["domain-1", "domain-2"]


def _spawn(domain, port, state_dir, resume=False, env=None):
    command = _agent_command(
        domain=domain,
        domains=len(DOMAINS),
        port=port,
        host="127.0.0.1",
        state_dir=state_dir,
        scenario=Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=HORIZON,
        seed=7,
        start_minute=START,
        landscape_kind="paper",
        chaos_seed=None,
        snapshot_interval=10,
        kill_at=None,
        resume=resume,
    )
    return subprocess.Popen(command, env=env or _agent_environment())


def _await(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestGracefulShutdown:
    def test_sigterm_flushes_a_resumable_partial_run(self, tmp_path):
        state_dir = tmp_path / "state"
        server = FederationServer(DOMAINS, state_dir, START, HORIZON)
        server.start()
        port = server.listen()
        try:
            # start only domain-1: with domain-2 absent the pacing floor
            # pins at the start minute, so domain-1 deterministically
            # parks ~sim_lead_minutes in -- a stable mid-run state to
            # deliver SIGTERM into
            agent = _spawn("domain-1", port, state_dir)
            parked = _await(
                lambda: (
                    (session := server.sessions.sessions.get("domain-1"))
                    is not None
                    and session.minute >= START + 30
                )
            )
            assert parked, "agent never reached the pacing park"
            agent.send_signal(signal.SIGTERM)
            assert agent.wait(timeout=60) == 0

            summary_path = state_dir / "domain-1" / "summary.json"
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            assert summary["net"]["partial"] is True
            # the final deregister got through
            assert server.sessions.sessions["domain-1"].completed
            # the event log was committed and properly closed
            header, events = read_store(state_dir / "domain-1" / "state.db")
            assert events, "event log was not committed"
            # the run is resumable: finish it, with domain-2 alongside
            resumed = _spawn("domain-1", port, state_dir, resume=True)
            other = _spawn("domain-2", port, state_dir)
            assert resumed.wait(timeout=240) == 0
            assert other.wait(timeout=240) == 0
            summaries = {
                domain: json.loads(
                    (state_dir / domain / "summary.json").read_text(
                        encoding="utf-8"
                    )
                )
                for domain in DOMAINS
            }
            assert all(
                not s["net"]["partial"] for s in summaries.values()
            )
            report, merged, _ = server.finalize(tmp_path / "out")
            assert report.errors == ()
            assert server.domain_summaries == summaries
        finally:
            server.stop()


class TestFailedRun:
    @pytest.mark.parametrize(
        "failure",
        [
            RuntimeError("agent domain-2 exited with 1 after 3 respawns"),
            ValueError("--kill-agent domain 'domain-9' is not one of [...]"),
            StateCorruptError("mp/domain-1/state.db", "malformed page"),
            TraceSchemaError("mp/domain-1/state.db: no event log"),
        ],
        ids=lambda failure: type(failure).__name__,
    )
    def test_the_cli_says_why_in_one_line_and_exits_2(
        self, failure, tmp_path, monkeypatch, capsys
    ):
        def failing_run(*args, **kwargs):
            raise failure

        monkeypatch.setattr("repro.net.orchestrator.run_multiproc", failing_run)
        code = main(
            ["run", "--multiproc", "--domains", "2", "--state-dir", str(tmp_path)]
        )
        assert code == EXIT_ERRORS
        assert capsys.readouterr().err == f"autoglobe run: {failure}\n"


    @staticmethod
    def _use(directory):
        """Leave an earlier run's trace in a domain directory."""
        store = DurableStateStore(directory)
        store.journal.append("tick", now=START)
        store.close()

    @pytest.mark.parametrize("resume", [True, False], ids=["resume", "fresh"])
    def test_an_agent_that_cannot_start_says_so_in_one_line_and_exits_2(
        self, resume, tmp_path
    ):
        """Nothing to resume, or (not resuming) a used directory."""
        if not resume:
            self._use(tmp_path / "domain-1")
        command = _agent_command(
            "domain-1", 2, 1, "127.0.0.1", tmp_path, Scenario.FULL_MOBILITY,
            1.15, HORIZON, 7, START, "paper", None, 10, None, resume,
        )
        agent = subprocess.run(
            command, env=_agent_environment(), capture_output=True, text=True,
            timeout=60,
        )
        assert agent.returncode == 2
        (line,) = agent.stderr.splitlines()
        assert line.startswith("autoglobe-agent: ")
        assert ("cannot resume" if resume else "holds an earlier run") in line

    def test_a_refusing_agent_ends_the_run_without_respawns(self, tmp_path):
        self._use(tmp_path / "state" / "domain-2")
        with pytest.raises(
            RuntimeError, match="agent domain-2 exited with 2 after 0 respawns"
        ):
            run_multiproc(
                2, tmp_path / "state", tmp_path / "out", user_factor=1.15,
                horizon=HORIZON, start_minute=START,
            )

    def test_a_kill_before_the_first_snapshot_is_refused(self, tmp_path):
        """The first snapshot is minute ``START + 9``: an agent killed
        earlier has nothing to resume, so nothing is spawned at all."""
        with pytest.raises(ValueError, match="before the first snapshot"):
            run_multiproc(
                2, tmp_path / "state", tmp_path / "out", horizon=HORIZON,
                start_minute=START, kill_agent=("domain-2", START + 5),
            )
        assert not (tmp_path / "state" / "domain-2").exists()


class TestChaosRun:
    def test_crash_partition_and_wire_faults_verify_clean(self, tmp_path):
        """The tentpole acceptance shape in miniature: agent SIGKILL +
        seeded drop/duplicate/delay/partition, resumed and merged."""
        result = run_multiproc(
            2,
            tmp_path / "state",
            tmp_path / "out",
            scenario=Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=HORIZON,
            seed=7,
            start_minute=START,
            net_chaos_seed=7,
            kill_agent=("domain-2", START + 40),
        )
        assert result.report.errors == ()
        assert result.report.warnings == ()
        assert result.respawns["domain-2"] == 1
        assert result.net_stats["delivered"] > 0
        # every domain finished its horizon despite the chaos
        assert all(
            not s["net"]["partial"]
            for s in result.domain_summaries.values()
        )
        assert result.summary["schema"] == "multiproc-merged"
        # availability accounting stayed intact through the crash
        assert "availability_by_service" in result.summary
        header, events = read_trace(result.trace_path)
        assert header.complete
        assert events
        # each agent's log is the runner's, in its state.db: one gapless,
        # Lamport-stamped stream of the domain's, the killed one's too
        for domain in DOMAINS:
            path = tmp_path / "state" / domain / "state.db"
            header, events = read_store(path)
            assert header.complete
            assert [event.seq for event in events] == list(range(1, len(events) + 1))
            clocks = [event.clock for event in events]
            assert None not in clocks and clocks == sorted(clocks)
            with closing(open_readonly(path)) as connection:
                assert connection.execute(
                    "SELECT DISTINCT source FROM events"
                ).fetchall() == [(domain,)]

    def test_landscape_chaos_runs_to_completion(self, tmp_path):
        """Host crashes injected inside an agent go through its
        ``DomainView`` (bench README defect 2: ``crash_host`` was missing
        there, so the agent died on the first crash and, after its
        respawns, the run)."""
        result = run_multiproc(
            2,
            tmp_path / "state",
            tmp_path / "out",
            scenario=Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=60,
            seed=7,
            start_minute=START,
            chaos_seed=115,
            max_respawns=0,
        )
        assert result.report.errors == ()
        assert all(
            not s["net"]["partial"] for s in result.domain_summaries.values()
        )
        __, events = read_trace(result.trace_path)
        faults = [event.record["kind"] for event in events if event.topic == "faults"]
        assert "host-crash" in faults
