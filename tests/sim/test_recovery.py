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

import ast
import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _injected_faults
from repro.core.state import DurableStateStore, SnapshotStore, StateJournal
from repro.monitoring.archive import InMemoryLoadArchive
from repro.sim.export import export_summary_json
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos, default_chaos
from repro.telemetry.records import TOPIC_ACTIONS, TOPIC_FAULTS, TOPIC_SUPERVISION
from tests.conftest import published

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
    # what the run published, by topic: the producers keep no copy
    seen = {
        topic: published(runner.platform.bus, topic)
        for topic in (TOPIC_ACTIONS, TOPIC_FAULTS, TOPIC_SUPERVISION)
    }
    return runner, runner.run(), seen


@pytest.fixture(scope="module")
def recovery_runs():
    baseline = _run(default_chaos(seed=115))
    recovered = _run(controller_chaos(seed=115), standby=True)
    return baseline, recovered


class TestChaosAcceptance:
    def test_controller_faults_were_injected(self, recovery_runs):
        __, (__, result, __) = recovery_runs
        assert result.controller_fault_count("controller-crash") > 0
        assert result.controller_fault_count("leader-partition") > 0
        assert result.controller_down_minutes > 0
        assert "controller crashes" in _injected_faults(result)

    def test_availability_within_two_points_of_crash_free(self, recovery_runs):
        (__, baseline, __), (__, recovered, __) = recovery_runs
        assert baseline.fault_records and recovered.fault_records
        delta = abs(baseline.mean_availability - recovered.mean_availability)
        assert delta <= 0.02, (
            f"recovery cost {delta:.3f} availability "
            f"(baseline {baseline.mean_availability:.3f}, "
            f"recovered {recovered.mean_availability:.3f})"
        )

    def test_fenced_actions_are_observable_not_applied(self, recovery_runs):
        __, (__, result, __) = recovery_runs
        fenced = [a for a in result.actions if a.status == "fenced"]
        assert fenced, "the deposed leader never hit the fencing guard"
        assert result.fenced_action_count == len(fenced)
        assert all("fencing guard" in a.note for a in fenced)

    def test_supervision_events_merge_into_fault_records(self, recovery_runs):
        __, (__, result, __) = recovery_runs
        kinds = {record.kind for record in result.fault_records}
        assert {"controller-crash", "leader-partition", "leader-failover"} <= kinds
        assert result.controller_fault_count("controller-crash") > 0
        times = [record.time for record in result.fault_records]
        assert times == sorted(times)

    def test_summary_and_export_surface_recovery_metrics(
        self, recovery_runs, tmp_path
    ):
        __, (__, result, __) = recovery_runs
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
        __, (__, result, __) = recovery_runs
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
        for __, result, seen in recovery_runs:
            assert result.actions == [event.outcome for event in seen[TOPIC_ACTIONS]]

    def test_bus_counts_match_the_producers(self, recovery_runs):
        (runner, result, __), __ = recovery_runs
        counts = runner.platform.bus.counts()
        assert counts["actions"] == len(result.actions)
        assert counts["faults"] == len(result.fault_records)
        assert counts.get("reports", 0) > 0
        assert counts.get("situations", 0) > 0

    @pytest.mark.parametrize("standby", [False, True], ids=["plain", "standby"])
    def test_the_archive_stores_each_published_batch_once(self, standby):
        """The controller writes each tick's batch to its archive itself,
        once per ``reports`` envelope it publishes; a deposed leader
        (seed 3 deposes one) publishes and stores nothing."""
        archive = _WriteCountingArchive()
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=240, seed=7,
            collect_host_series=False, standby=standby, archive=archive,
            chaos=controller_chaos(3) if standby else default_chaos(115),
        )
        events = _supervision(runner)
        runner.run()
        if standby:
            assert _stale_windows(events()), "no leader was deposed"
        assert archive.batches == runner.platform.bus.counts()["reports"] > 0
        assert sum(archive.writes.values()) > archive.batches

    def test_supervision_events_are_typed_on_the_bus(self, recovery_runs):
        from repro.telemetry.records import SupervisionEvent, SupervisionEventKind

        __, (__, result, seen) = recovery_runs
        events = seen[TOPIC_SUPERVISION]
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
from repro.ops.store import read_store
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos

state_dir, mode, seed, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
# the run's event log: a resume continues it from the snapshot
store = state_dir + ".events.db"
kwargs = {"state_dir": state_dir, "store_path": store}
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
# the supervision events (crashes, failovers, heals) of the whole run
print([
    (event.record["time"], event.record["kind"], event.record["detail"])
    for event in read_store(store)[1]
    if event.topic == "supervision" and event.record["kind"] != "leader-epoch"
])
"""


def _supervision(runner):
    """The ``(time, kind, detail)`` supervision events ``runner`` is
    going to publish (leadership epochs left out)."""
    events = published(runner.platform.bus, TOPIC_SUPERVISION)
    return lambda: [
        (event.time, event.kind.value, event.detail)
        for event in events
        if event.kind.value != "leader-epoch"
    ]


def _stale_windows(events):
    """``(partitioned, promoted, healed)`` minutes of each window in which
    a deposed leader kept ticking, from a run's supervision events; a
    window the run ends in heals at ``None``."""
    windows = []
    partitioned = None
    for time, kind, detail in events:
        if kind == "leader-partition":
            partitioned = time
        elif kind == "leader-failover" and "->" in detail:
            windows.append([partitioned, time, None])
        elif kind == "partition-healed":
            windows[-1][2] = time
    return [tuple(window) for window in windows]


class _WriteCountingArchive(InMemoryLoadArchive):
    """Counts how often each ``(subject, metric, minute)`` is stored."""

    def __init__(self):
        super().__init__()
        self.writes = {}
        self.batches = 0

    def record_reports(self, batch):
        self.batches += 1
        for subject, metric in batch.series:
            key = (subject, metric, batch.time)
            self.writes[key] = self.writes.get(key, 0) + 1
        super().record_reports(batch)


class TestDeposedLeader:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_the_archive_holds_one_leaders_samples(self, seed):
        """A deposed leader ticking under its partition reaches neither
        the journal nor the archive: no sample of its stale window is
        stored twice, so the leader's LMS and ``cpuLoad`` read only the
        leader's numbers."""
        archive = _WriteCountingArchive()
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=240, seed=7,
            collect_host_series=False, chaos=controller_chaos(seed),
            standby=True, archive=archive,
        )
        events = _supervision(runner)
        runner.run()
        windows = _stale_windows(events())
        assert windows, "no leader was deposed"
        stale = set()
        for __, promoted, healed in windows:
            stale.update(range(promoted, 720 + 240 if healed is None else healed))
        in_window = {
            key: count for key, count in archive.writes.items() if key[2] in stale
        }
        assert in_window  # the leader kept archiving through the window
        assert max(in_window.values()) == 1


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
        # the harness's run, in process: its journal is compacted at every
        # run snapshot, so the intents are seen as they are appended
        intents = sorted(
            {data["time"] for data in _journalled(_durable(tmp_path / "intents", 180))}
        )
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

    @pytest.mark.parametrize(
        "seed, offset",
        [
            # minutes from the promotion that deposed the partitioned
            # leader; when written, seed 3's deposed leader ticked 797-812
            # and seed 7's 919-932.  Killed at 805 and 811, after the 799
            # and 809 run snapshots; at 925, after the 919 one.
            (3, 8),
            (3, 14),
            (7, 6),
            # seed 37's deposed leader (794-805) is fenced every minute:
            # killed at 802, after the 799 snapshot
            (37, 8),
            # inside seed 3's partition (from 793), before the promotion
            (3, -2),
        ],
    )
    def test_a_kill_while_a_deposed_leader_runs_is_resumed(
        self, tmp_path, seed, offset
    ):
        """The run snapshot carries a deposed leader still ticking under
        its partition: a resume rebuilds it, fencing token and all, and
        the run is the uninterrupted one."""
        run = self._harness(tmp_path, _STANDBY_HARNESS)
        uninterrupted = run(str(tmp_path / "full"), "full", str(seed), "0")
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        events = ast.literal_eval(uninterrupted.stdout.splitlines()[-1])
        partitioned, promoted, healed = _stale_windows(events)[0]
        kill_at = promoted + offset
        if offset > 0:
            assert kill_at < healed
            # a run snapshot between the promotion and the kill holds it
            assert any(minute % 10 == 9 for minute in range(promoted, kill_at))
        else:
            assert partitioned < kill_at < promoted
        state = str(tmp_path / "state")
        killed = run(state, "kill", str(seed), str(kill_at))
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


_VERIFY_HARNESS = """\
import sys
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos

SimulationRunner(
    Scenario.FULL_MOBILITY, user_factor=1.15, horizon=180, seed=7,
    collect_host_series=False, chaos=default_chaos(115), state_dir=sys.argv[1],
    store_path=sys.argv[2], verify=True, kill_at=int(sys.argv[3]),
).run()
"""


class TestVerifiedResume:
    @pytest.mark.parametrize("kill_at", [800, None], ids=["killed", "finished"])
    def test_the_live_verdict_is_the_stores(self, tmp_path, kill_at):
        """A resumed ``verify=True`` run feeds its live verifier the
        store's events up to the snapshot: its report is clean and is
        the offline report of the store it leaves."""
        from repro.analysis.verify import verify_trace
        from repro.ops.store import read_store

        state, store = tmp_path / "state", tmp_path / "out" / "store.db"
        store.parent.mkdir()

        def runner(**kwargs):
            return SimulationRunner(
                Scenario.FULL_MOBILITY, user_factor=1.15, horizon=180, seed=7,
                collect_host_series=False, chaos=default_chaos(115),
                state_dir=state, store_path=store, verify=True, **kwargs,
            )

        if kill_at is None:
            runner().run()
        else:
            script = tmp_path / "harness.py"
            script.write_text(_VERIFY_HARNESS)
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            killed = subprocess.run(
                [sys.executable, str(script), str(state), str(store), str(kill_at)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert killed.returncode == -signal.SIGKILL, killed.stderr
        resumed = runner(resume=True)
        result = resumed.run()
        live = resumed.verification_report(result)
        export_summary_json(result, store.parent / "summary.json")
        offline = verify_trace(store)
        header, events = read_store(store)
        assert header.complete
        assert result.actions  # the summary AG305 reconciles is not empty
        assert live.diagnostics == offline.diagnostics == ()
        assert resumed.verifier.fed == len(events)


def _journalled(runner, kind="action-intent"):
    """Run ``runner``; the data of every ``kind`` record it journalled."""
    appended = []
    append = StateJournal.append

    def spy(journal, record_kind, /, **data):
        if record_kind == kind:
            appended.append(data)
        return append(journal, record_kind, **data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StateJournal, "append", spy)
        runner.run()
    return appended


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


class TestJournalCompaction:
    def test_a_12h_run_leaves_one_snapshot_interval_of_journal(self, tmp_path):
        """Each run snapshot compacts the journal: a 12-hour durable chaos
        run ends with no more rows than one snapshot interval appended,
        and the next row is numbered above every snapshot's sequence."""
        appended = [0]  # journal appends per snapshot interval
        append, save = StateJournal.append, SnapshotStore.save

        def counting(journal, kind, /, **data):
            appended[-1] += 1
            return append(journal, kind, **data)

        def marking(snapshots, kind, *args):
            if kind == "run":
                appended.append(0)
            return save(snapshots, kind, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StateJournal, "append", counting)
            patch.setattr(SnapshotStore, "save", marking)
            _durable(tmp_path, HORIZON).run()
        store = DurableStateStore(tmp_path)
        rows = len(store.journal.since(0))
        assert store.journal.last_seq == sum(appended) > 0
        assert 0 < rows <= max(appended)
        snapshots = [store.snapshots.load(kind) for kind in ("run", "controller")]
        record = store.journal.append("tick", now=720 + HORIZON)
        store.close()
        assert all(record.seq > snapshot["journal_seq"] for snapshot in snapshots)

    def test_a_standby_run_without_a_state_directory_stays_bounded(self):
        """A store without a file is never resumed: every snapshot
        interval the run compacts its journal through the controller
        row, so over a day of controller chaos the journal never holds
        more than about one interval of rows (4,438 at the end before),
        and the recoveries the chaos forces still replay."""
        rows = []
        compact = DurableStateStore.compact

        def counting(store, journal_seq):
            rows.append(len(store.journal.since(0)))
            compact(store, journal_seq)

        runner = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=24 * 60, seed=7,
            collect_host_series=False, chaos=controller_chaos(115), standby=True,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DurableStateStore, "compact", counting)
            result = runner.run()
        assert result.controller_down_minutes > 0
        assert len(rows) == 24 * 60 // runner.snapshot_interval
        assert max(rows) <= 100, max(rows)


class TestOneHolderOfHistory:
    def test_the_event_log_holds_the_runs_history_and_no_payload_does(
        self, tmp_path
    ):
        """After a supervised chaos run, the run's actions, faults,
        supervision events and escalations are rows of the event log in
        its ``state.db``; no payload of the run snapshot, the
        collector's included, keeps a copy."""
        from repro.ops.store import read_store

        result = SimulationRunner(
            Scenario.FULL_MOBILITY, user_factor=1.15, horizon=HORIZON, seed=7,
            collect_host_series=False, chaos=controller_chaos(115),
            standby=True, state_dir=tmp_path,
        ).run()
        assert result.actions and result.fault_records
        assert result.escalation_count > 0
        header, events = read_store(tmp_path / "state.db")
        assert header.complete
        assert {"actions", "faults", "supervision", "alerts"} <= {
            event.topic for event in events
        }
        store = DurableStateStore(tmp_path)
        payload = store.snapshots.load("run")["payload"]
        store.close()

        def keys(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield key
                    yield from keys(item)
            elif isinstance(value, list):
                for item in value:
                    yield from keys(item)

        assert set(payload) == {
            "platform", "workload", "collector", "supervisor", "injector", "bus_seq",
        }
        assert payload["supervisor"]["domains"]
        history = {
            "audit_log", "actions", "faults", "supervision_faults",
            "escalation_count", "events", "escalations",
        }
        for name, part in payload.items():
            assert not history & set(keys(part)), name


class TestCommitPoints:
    def test_a_durable_run_commits_only_where_a_guarantee_needs_it(self, tmp_path):
        """``state.db`` commits at run snapshots, action intents, lease
        grants and the end of the run — not per statement."""
        runner = _durable(tmp_path / "state", HORIZON)
        connection = runner.controller.shards[""].store.db.connection
        commits = []

        def trace(sql):
            verb = sql.split(None, 1)[0].upper()
            autocommitted = verb in ("INSERT", "UPDATE", "DELETE", "REPLACE") and (
                not connection.in_transaction
            )
            if verb == "COMMIT" or autocommitted:
                commits.append(sql)

        connection.set_trace_callback(trace)
        intents = len(_journalled(runner))
        store = DurableStateStore(tmp_path / "state")
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