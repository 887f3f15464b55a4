"""Controller crash recovery as a measured quantity.

Acceptance (the durable-controller PR):

* under the ``controller_chaos`` profile with a hot standby, recovery
  keeps mean service availability within two points of a run whose
  controller never crashes;
* the deposed leader's fenced actions are observable as ``"fenced"``
  audit records, never double-applied;
* a run killed with SIGKILL mid-flight and resumed from its state
  directory produces byte-identical summary metrics to an uninterrupted
  run of the same configuration.
"""

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.state import DurableStateStore
from repro.sim.export import export_summary_json
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos, default_chaos

HORIZON = 12 * 60  # half a simulated day keeps the suite fast


def _run(chaos, **kwargs):
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=HORIZON,
        seed=7,
        collect_host_series=False,
        chaos=chaos,
        **kwargs,
    )
    return runner, runner.run()


@pytest.fixture(scope="module")
def recovery_runs():
    baseline = _run(default_chaos(seed=115))
    recovered = _run(controller_chaos(seed=115), standby=True)
    return baseline, recovered


class TestChaosAcceptance:
    def test_controller_faults_were_injected(self, recovery_runs):
        __, (runner, result) = recovery_runs
        assert runner.injector.controller_crash_count > 0
        assert runner.injector.leader_partition_count > 0
        assert result.controller_down_minutes > 0
        assert "controller crashes" in runner.injector.summary()

    def test_availability_within_two_points_of_crash_free(self, recovery_runs):
        (__, baseline), (__, recovered) = recovery_runs
        assert baseline.fault_records and recovered.fault_records
        delta = abs(baseline.mean_availability - recovered.mean_availability)
        assert delta <= 0.02, (
            f"recovery cost {delta:.3f} availability "
            f"(baseline {baseline.mean_availability:.3f}, "
            f"recovered {recovered.mean_availability:.3f})"
        )

    def test_fenced_actions_are_observable_not_applied(self, recovery_runs):
        __, (__, result) = recovery_runs
        fenced = [a for a in result.actions if a.status == "fenced"]
        assert fenced, "the deposed leader never hit the fencing guard"
        assert result.fenced_action_count == len(fenced)
        assert all("fencing guard" in a.note for a in fenced)

    def test_supervision_events_merge_into_fault_records(self, recovery_runs):
        __, (__, result) = recovery_runs
        kinds = {record.kind for record in result.fault_records}
        assert {"controller-crash", "leader-partition", "leader-failover"} <= kinds
        assert result.controller_fault_count("controller-crash") > 0
        times = [record.time for record in result.fault_records]
        assert times == sorted(times)

    def test_summary_and_export_surface_recovery_metrics(
        self, recovery_runs, tmp_path
    ):
        __, (__, result) = recovery_runs
        summary = result.summary()
        assert "controller faults:" in summary
        assert f"{result.fenced_action_count} fenced actions" in summary
        export_summary_json(result, tmp_path / "summary.json")
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["fenced_action_count"] == result.fenced_action_count
        assert payload["controller_down_minutes"] == result.controller_down_minutes
        assert payload["controller_crash_count"] == result.controller_fault_count(
            "controller-crash"
        )
        assert payload["leader_partition_count"] > 0

    def test_unanswered_approvals_surface_in_the_summary(self, recovery_runs):
        __, (__, result) = recovery_runs
        surfaced = dataclasses.replace(
            result, pending_approval_count=1, expired_approval_count=2
        )
        assert "approvals: 1 pending, 2 expired unanswered" in surfaced.summary()
        assert "approvals:" not in dataclasses.replace(
            result, pending_approval_count=0, expired_approval_count=0
        ).summary()


class TestTelemetryPipeline:
    """The bus-backed monitoring pipeline feeds the same data the
    consumers used to read from private lists."""

    def test_result_actions_mirror_the_audit_log(self, recovery_runs):
        for runner, result in recovery_runs:
            assert result.actions == list(runner.platform.audit_log)

    def test_bus_counts_match_the_producers(self, recovery_runs):
        (runner, __), __ = recovery_runs
        counts = runner.platform.bus.counts()
        assert counts["actions"] == len(runner.platform.audit_log)
        assert counts["faults"] == len(runner.injector.faults)
        assert counts.get("reports", 0) > 0
        assert counts.get("situations", 0) > 0

    def test_archive_consumes_batched_flushes_off_the_bus(self, recovery_runs):
        (runner, __), __ = recovery_runs
        flusher = runner.controller.archive_flusher
        assert flusher is runner.controller.archive.bus_flusher
        assert flusher.batches_flushed == runner.platform.bus.counts()["reports"]
        assert flusher.rows_flushed > flusher.batches_flushed

    def test_supervision_events_are_typed_on_the_bus(self, recovery_runs):
        from repro.telemetry.records import SupervisionEvent, SupervisionEventKind

        __, (runner, result) = recovery_runs
        events = runner._supervision_events
        assert events and all(
            isinstance(event, SupervisionEvent)
            and isinstance(event.kind, SupervisionEventKind)
            for event in events
        )
        merged_kinds = {record.kind for record in result.fault_records}
        for event in events:
            if event.kind.creates_fault_record:
                assert event.kind.value in merged_kinds


_HARNESS = """\
import sys
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos

state_dir, mode = sys.argv[1], sys.argv[2]
kwargs = {"state_dir": state_dir}
if mode == "kill":
    # mid-run, past several snapshots, unless the caller names the minute
    kwargs["kill_at"] = int(sys.argv[3]) if len(sys.argv) > 3 else 720 + 95
if mode == "resume":
    kwargs["resume"] = True
runner = SimulationRunner(
    Scenario.FULL_MOBILITY, user_factor=1.15, horizon=180, seed=7,
    collect_host_series=False, chaos=default_chaos(115), **kwargs,
)
result = runner.run()
print(result.summary())
print([
    (a.time, a.action.value, a.service_name, a.status, a.attempts)
    for a in result.actions
])
"""


_STANDBY_HARNESS = """\
import sys
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos

state_dir, mode, seed, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
kwargs = {"state_dir": state_dir}
if mode == "kill":
    kwargs["kill_at"] = kill_at
if mode == "resume":
    kwargs["resume"] = True
runner = SimulationRunner(
    Scenario.FULL_MOBILITY, user_factor=1.15, horizon=240, seed=7,
    collect_host_series=False, chaos=controller_chaos(seed), standby=True, **kwargs,
)
result = runner.run()
print(result.summary())
print([
    (a.time, a.action.value, a.service_name, a.status, a.attempts)
    for a in result.actions
])
print(runner.controller.events)
"""


def _federated(state_dir, **kwargs):
    """Two control domains of the paper landscape under controller faults."""
    from repro.config.builtin import paper_landscape, partition_landscape

    return SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=HORIZON,
        seed=7,
        collect_host_series=False,
        landscape=partition_landscape(paper_landscape(), 2),
        chaos=controller_chaos(115),
        state_dir=state_dir,
        **kwargs,
    )


class TestKillAndResume:
    def _harness(self, tmp_path, source=_HARNESS):
        script = tmp_path / "harness.py"
        script.write_text(source)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(*args):
            return subprocess.run(
                [sys.executable, str(script), *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )

        return run

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        run = self._harness(tmp_path)
        uninterrupted = run(str(tmp_path / "full"), "full")
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        killed = run(str(tmp_path / "state"), "kill")
        assert killed.returncode == -signal.SIGKILL

        state = tmp_path / "state"
        names = {path.name for path in state.iterdir()}
        # the killed process never closed: SQLite's own -wal/-shm may remain
        assert {"state.db"} <= names <= {"state.db", "state.db-wal", "state.db-shm"}

        resumed = run(str(state), "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == uninterrupted.stdout
        assert [path.name for path in state.iterdir()] == ["state.db"]

    def test_sigkill_at_seeded_random_ticks_then_resume(self, tmp_path):
        """Kill anywhere between two commit points: three minutes drawn
        from a seeded RNG — one that is no snapshot minute, one right
        after an ``action-intent`` (its commit ended the write group
        mid-interval), one anywhere — each resumes into the
        uninterrupted run."""
        run = self._harness(tmp_path)
        uninterrupted = run(str(tmp_path / "full"), "full")
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        full = DurableStateStore(tmp_path / "full")
        intents = sorted(
            {r.data["time"] for r in full.journal.since(0) if r.kind == "action-intent"}
        )
        full.close()
        # resumable: past the first snapshot (minute 729), before the last
        minutes = range(730, 720 + 179)
        rng = random.Random(2026)
        kills = [
            rng.choice([m for m in minutes if (m - 720 + 1) % 10]),
            rng.choice([m + 1 for m in intents if m + 1 in minutes]),
            rng.choice(minutes),
        ]
        for index, minute in enumerate(kills):
            state = str(tmp_path / f"state-{index}")
            killed = run(state, "kill", str(minute))
            assert killed.returncode == -signal.SIGKILL, (minute, killed.stderr)
            resumed = run(state, "resume")
            assert resumed.returncode == 0, (minute, resumed.stderr)
            assert resumed.stdout == uninterrupted.stdout, minute

    @pytest.mark.parametrize(
        "seed, crash, failover",
        [
            # snapshot at 789 with controller-1 leading; crash at 794,
            # the standby's grant at 798, killed before the 799 snapshot
            (122, 794, 798),
            # crash at 929 before the 929 snapshot: the run snapshot
            # holds a down leader; the grant at 933, killed right after
            (115, 929, 933),
        ],
    )
    def test_a_failover_grant_before_the_kill_is_rewound(
        self, tmp_path, seed, crash, failover
    ):
        """The lease row rewinds with the snapshot: a grant between the
        last snapshot and the kill belongs to the abandoned timeline, and
        the resumed standby is granted it again at the same minute."""
        run = self._harness(tmp_path, _STANDBY_HARNESS)
        uninterrupted = run(str(tmp_path / "full"), "full", str(seed), "0")
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        assert (
            f"[({crash}, 'controller-crash', 'controller-1'), "
            f"({failover}, 'leader-failover', 'controller-2')"
        ) in uninterrupted.stdout
        state = str(tmp_path / "state")
        killed = run(state, "kill", str(seed), str(failover))
        assert killed.returncode == -signal.SIGKILL
        resumed = run(state, "resume", str(seed), "0")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == uninterrupted.stdout

    def test_a_resumed_federated_run_is_the_uninterrupted_one(self, tmp_path):
        """Two control domains under controller faults: the supervision
        history a resume rebuilds keeps each event's domain, so the
        recovery of minute 1400 is still ``domain-1``'s in the fault
        records of a run killed at 1425 and resumed."""
        from repro.sim.export import summary_json_payload

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        child = (
            "import sys; from tests.sim.test_recovery import _federated; "
            "_federated(sys.argv[1], kill_at=1425).run()"
        )
        killed = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "state")],
            env=env, timeout=300,
        )
        assert killed.returncode == -signal.SIGKILL

        expected = _federated(tmp_path / "full").run()
        resumed = _federated(tmp_path / "state", resume=True).run()
        assert (1400, "controller-recovery", "domain-1") in [
            (record.time, record.kind, record.domain)
            for record in expected.fault_records
        ]
        assert resumed.fault_records == expected.fault_records
        assert resumed.actions == expected.actions
        assert summary_json_payload(resumed) == summary_json_payload(expected)

    def test_the_export_of_a_killed_and_resumed_run_is_the_whole_run(
        self, tmp_path
    ):
        """``--export`` renders ``telemetry.jsonl`` from the run's store,
        which the resume continues: complete, gapless, strictly clean,
        and — the resumed leader's own ``leader-epoch`` aside — the
        uninterrupted run's export."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                capture_output=True, text=True, env=env, timeout=300,
            )

        def run(state, out, *extra):
            return cli(
                "run", "--hours", "3", "--chaos", "--state-dir", str(tmp_path / state),
                "--export", str(tmp_path / out), *extra,
            )

        def exported(out):
            path = tmp_path / out / "full-mobility_115" / "telemetry.jsonl"
            header, *lines = map(json.loads, path.read_text().splitlines())
            return path, header, lines

        assert run("full-state", "full").returncode == 0
        assert run("state", "out", "--kill-at", "815").returncode == -signal.SIGKILL
        resumed = run("state", "out", "--resume")
        assert resumed.returncode == 0, resumed.stderr

        path, header, lines = exported("out")
        assert header["complete"] is True
        assert [line["seq"] for line in lines] == list(range(1, len(lines) + 1))
        assert f"({len(lines)} telemetry records)" in resumed.stdout
        verified = cli("verify", str(path), "--strict")  # sibling summary.json
        assert verified.returncode == 0, verified.stdout + verified.stderr
        assert sorted(p.name for p in path.parent.iterdir()) == [
            "actions.csv", "availability.csv", "host_loads.csv", "store.db",
            "summary.json", "telemetry.jsonl",
        ]

        def events(out):
            # every line but the header, without its ``seq``: the resumed
            # stream numbers one more line (the leader-epoch) before the rest
            path = tmp_path / out / "full-mobility_115" / "telemetry.jsonl"
            return [
                line[line.index('"topic"'):]
                for line in path.read_text().splitlines()[1:]
            ]

        _, full_header, full_lines = exported("full")
        assert full_header["complete"] is True
        resumed_events, full_events = events("out"), events("full")
        epoch = resumed_events.index(
            '"topic": "supervision", "record": {"type": "SupervisionEvent", '
            '"time": 810, "kind": "leader-epoch", "detail": "controller-1", '
            '"domain": "", "fencing_token": 1}}'
        )
        del resumed_events[epoch]
        assert resumed_events == full_events
        assert len(lines) == len(full_lines) + 1  # the leader-epoch


def _durable(state_dir, horizon, **kwargs):
    return SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=horizon,
        seed=7,
        collect_host_series=False,
        chaos=default_chaos(115),
        state_dir=state_dir,
        **kwargs,
    )


class TestResumeOfAFinishedRun:
    def test_restored_summary_equals_the_uninterrupted_one(self, tmp_path):
        """Escalations raised before the snapshot survive the resume."""
        from repro.sim.export import summary_json_payload

        state = tmp_path / "state"
        uninterrupted = summary_json_payload(_durable(state, HORIZON).run())
        assert uninterrupted["escalation_count"] > 0
        assert [path.name for path in state.iterdir()] == ["state.db"]
        size = (state / "state.db").stat().st_size
        for _ in range(3):
            restored = summary_json_payload(
                _durable(state, HORIZON, resume=True).run()
            )
            assert restored == uninterrupted
            assert [path.name for path in state.iterdir()] == ["state.db"]
            assert (state / "state.db").stat().st_size == size


class TestCommitPoints:
    def test_a_durable_run_commits_only_where_a_guarantee_needs_it(self, tmp_path):
        """``state.db`` commits at run snapshots, action intents, lease
        grants and the end of the run — not per statement."""
        runner = _durable(tmp_path / "state", HORIZON)
        connection = runner.controller.store.db.connection
        commits = []

        def trace(sql):
            verb = sql.split(None, 1)[0].upper()
            autocommitted = verb in ("INSERT", "UPDATE", "DELETE", "REPLACE") and (
                not connection.in_transaction
            )
            if verb == "COMMIT" or autocommitted:
                commits.append(sql)

        connection.set_trace_callback(trace)
        runner.run()
        store = DurableStateStore(tmp_path / "state")
        intents = sum(r.kind == "action-intent" for r in store.journal.since(0))
        grants = store.lease.current()[1]  # one token per grant
        store.close()
        snapshots = HORIZON // runner.snapshot_interval
        assert intents > 0
        assert len(commits) <= snapshots + intents + grants + 2


class TestRequestStop:
    """``request_stop()`` ends a run at the next tick boundary; a durable
    one snapshots there and resumes into the uninterrupted run."""

    @staticmethod
    def _stop_at(runner, minute):
        from repro.telemetry.bus import WILDCARD

        def on_envelope(envelope):
            if getattr(envelope.record, "time", None) == minute:
                runner.request_stop()

        runner.platform.bus.subscribe(WILDCARD, on_envelope)

    def test_a_stopped_durable_run_resumes_into_the_uninterrupted_one(
        self, tmp_path
    ):
        from repro.sim.export import summary_json_payload

        expected = _durable(tmp_path / "full", 240).run()
        runner = _durable(tmp_path / "state", 240)
        self._stop_at(runner, 823)  # not a snapshot minute (those end in 9)
        assert runner.run().horizon == 104  # 720..823, the tick in progress included
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["state.db"]

        resumed = _durable(tmp_path / "state", 240, resume=True).run()
        assert resumed.horizon == expected.horizon == 240
        assert summary_json_payload(resumed) == summary_json_payload(expected)
        assert resumed.actions == expected.actions
        assert resumed.fault_records == expected.fault_records

    def test_without_a_state_directory_the_run_just_ends_early(self):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=240, seed=7,
            collect_host_series=False, chaos=default_chaos(115),
        )
        self._stop_at(runner, 823)
        result = runner.run()
        assert result.horizon == 104
        assert max(action.time for action in result.actions) <= 823


class TestStateIsClosed:
    def test_a_run_that_raises_mid_horizon_still_closes_its_state(self, tmp_path):
        runner = _durable(tmp_path / "state", 60)

        def explode(now):
            if now == runner.start_minute + 25:
                raise RuntimeError("boom")

        runner.collector.observe = explode
        with pytest.raises(RuntimeError, match="boom"):
            runner.run()
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["state.db"]
        runner.close()  # a second close is a no-op

    def test_every_domain_directory_holds_exactly_one_file(self, tmp_path):
        from repro.config.builtin import paper_landscape, partition_landscape

        runner = _durable(
            tmp_path / "state", 30, landscape=partition_landscape(paper_landscape(), 2)
        )
        runner.run()
        runner.close()
        files = sorted(
            str(p.relative_to(tmp_path / "state"))
            for p in (tmp_path / "state").rglob("*")
            if p.is_file()
        )
        assert files == ["domain-1/state.db", "domain-2/state.db", "state.db"]


class TestRunnerValidation:
    def test_resume_requires_a_state_directory(self):
        with pytest.raises(ValueError, match="resume"):
            SimulationRunner(Scenario.FULL_MOBILITY, resume=True)

    def test_kill_at_requires_a_state_directory(self):
        with pytest.raises(ValueError, match="kill_at"):
            SimulationRunner(Scenario.FULL_MOBILITY, kill_at=900)

    def test_resume_from_an_empty_directory_fails_loudly(self, tmp_path):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            horizon=30,
            state_dir=tmp_path / "empty",
            resume=True,
        )
        with pytest.raises(ValueError, match="cannot resume"):
            runner.run()

    def test_a_used_state_directory_needs_resume(self, tmp_path):
        """A new run must not replay an earlier run's journal and lease."""
        _durable(tmp_path / "state", 20).run()
        with pytest.raises(ValueError, match=r"state.*minute 739.*resume=True"):
            _durable(tmp_path / "state", 10)
        # the refused constructor left nothing open behind
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["state.db"]

    def test_an_explicit_archive_cannot_join_a_state_directory(self, tmp_path):
        from repro.monitoring.archive import InMemoryLoadArchive

        with pytest.raises(ValueError, match="archive or state_dir"):
            SimulationRunner(
                Scenario.FULL_MOBILITY,
                archive=InMemoryLoadArchive(),
                state_dir=tmp_path / "state",
            )

    def test_controller_fault_chaos_rejects_custom_factories(self):
        # the check fires during construction, before the factory runs
        with pytest.raises(ValueError, match="supervised"):
            SimulationRunner(
                Scenario.FULL_MOBILITY,
                chaos=controller_chaos(115),
                controller_factory=lambda platform, settings, enabled: None,
            )