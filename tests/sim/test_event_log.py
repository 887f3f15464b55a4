"""One event log per run: where it lives, and what a resume reads back.

A run's log is at ``store_path`` when one is given, otherwise in the
run snapshot's ``state.db``.  The run snapshot holds none of the run's
history: a resume refolds the actions, faults, supervision events and
escalations from the log up to the snapshot, so a log that ends before
the snapshot refuses the resume.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.state import DurableStateStore
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos

HORIZON = 180
KILL_AT = 720 + 95  # past several snapshots, between two of them

_KILLED = """\
import sys
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos

SimulationRunner(
    Scenario.FULL_MOBILITY, user_factor=1.15, horizon=%d, seed=7,
    collect_host_series=False, chaos=default_chaos(115), state_dir=sys.argv[1],
    store_path=sys.argv[2] or None, kill_at=%d,
).run()
""" % (HORIZON, KILL_AT)


def _runner(state_dir, store=None, **kwargs):
    return SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=HORIZON, seed=7,
        collect_host_series=False, chaos=default_chaos(115),
        state_dir=state_dir, store_path=store, **kwargs,
    )


def _kill(tmp_path, state_dir, store):
    script = tmp_path / "killed.py"
    script.write_text(_KILLED)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    killed = subprocess.run(
        [sys.executable, str(script), str(state_dir), str(store or "")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr


def test_a_durable_run_without_a_store_verifies_from_its_state_file(tmp_path, capsys):
    state = tmp_path / "state"
    assert main([
        "run", "--scenario", "full-mobility", "--users", "1.15", "--hours", "3",
        "--chaos", "--state-dir", str(state),
    ]) == 0
    capsys.readouterr()
    assert main(["verify", str(state / "state.db")]) == 0
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize("log", ["state.db", "store"])
def test_a_resumed_run_refolds_the_uninterrupted_actions(tmp_path, log):
    """Field by field, applicability and duration included: the
    history comes back from the log, not from the snapshot."""
    store = tmp_path / "store.db" if log == "store" else None
    uninterrupted = _runner(tmp_path / "full").run()
    _kill(tmp_path, tmp_path / "state", store)
    snapshot = DurableStateStore(tmp_path / "state")
    collector = snapshot.snapshots.load("run")["payload"]["collector"]
    snapshot.close()
    assert not {"actions", "faults", "supervision_faults", "escalation_count"} & set(
        collector
    )
    resumed = _runner(tmp_path / "state", store, resume=True).run()
    assert resumed.actions == uninterrupted.actions
    assert any(action.time < KILL_AT for action in resumed.actions)
    assert any(action.applicability is not None for action in resumed.actions)
    assert any(action.duration for action in resumed.actions)
    assert resumed.fault_records == uninterrupted.fault_records
    assert resumed.escalation_count == uninterrupted.escalation_count


def _refused(capsys, *args):
    capsys.readouterr()
    assert main([
        "run", "--scenario", "full-mobility", "--users", "1.15", "--hours", "1",
        "--chaos", *args, "--resume",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("autoglobe run: cannot resume: the event log in ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestAResumeWithAShorterLogIsRefused:
    def _run(self, *args):
        assert main([
            "run", "--scenario", "full-mobility", "--users", "1.15", "--hours",
            "1", "--chaos", *args,
        ]) == 0

    def test_a_store_deleted_after_the_run(self, tmp_path, capsys):
        state, store = str(tmp_path / "state"), tmp_path / "store.db"
        self._run("--state-dir", state, "--store", str(store))
        store.unlink()
        assert "ends at event 0" in _refused(
            capsys, "--state-dir", state, "--store", str(store)
        )

    def test_a_run_logged_in_its_state_file_resumed_with_a_store(
        self, tmp_path, capsys
    ):
        state = str(tmp_path / "state")
        self._run("--state-dir", state)
        _refused(capsys, "--state-dir", state, "--store", str(tmp_path / "store.db"))

    def test_another_store_than_the_run_started_with(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        self._run("--state-dir", state, "--store", str(tmp_path / "one.db"))
        _refused(capsys, "--state-dir", state, "--store", str(tmp_path / "two.db"))

    def test_the_right_log_resumes(self, tmp_path, capsys):
        state, store = str(tmp_path / "state"), str(tmp_path / "store.db")
        self._run("--state-dir", state, "--store", store)
        self._run("--state-dir", state, "--store", store, "--resume")
