"""The live approval workflow, end to end over the ops API.

Acceptance (ISSUE 10): an action approved over the HTTP API mid-run is
journaled, survives a controller SIGKILL-and-resume and is applied
exactly once (AG303 clean); a rejected one is never applied; a seeded
chaos run with ``--serve`` enabled but nobody posting is byte-identical
to the same run without it; unanswered requests expire into per-service
counts in ``summary.json``.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time


import repro
from repro.ops.console import OpsClient
from repro.ops.store import read_store
from repro.sim.export import summary_json_payload
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos
from tests.conftest import JsonlRecorder


def _executed_events(store_path, request_id):
    _, events = read_store(store_path)
    return [
        event
        for event in events
        if event.record.get("type") == "ApprovalEvent"
        and event.record.get("phase") == "executed"
        and event.record.get("request_id") == request_id
    ]


class TestLiveVerdicts:
    def test_http_approve_executes_and_reject_never_applies(self, tmp_path):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=240,
            seed=7,
            chaos=default_chaos(seed=115),
            semi_automatic=True,
            store_path=tmp_path / "store.db",
            serve=("127.0.0.1", 0),
            pace=0.005,
        )
        port = runner.ops_server.port
        client = OpsClient("127.0.0.1", port)
        verdicts = {}

        def administrator():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    pending = [
                        request
                        for request in client.approvals()["requests"]
                        if request["status"] == "pending"
                    ]
                except (OSError, RuntimeError):
                    return  # run finished before we got a word in
                if len(pending) >= 2:
                    ok_a, _ = client.approve(pending[0]["request_id"])
                    ok_r, _ = client.reject(pending[1]["request_id"])
                    if ok_a and ok_r:
                        verdicts["approved"] = pending[0]["request_id"]
                        verdicts["rejected"] = pending[1]["request_id"]
                        return
                time.sleep(0.02)

        admin = threading.Thread(target=administrator, daemon=True)
        admin.start()
        runner.run()
        admin.join(timeout=10)
        assert verdicts, "no approvals became pending during the run"

        queue = runner.controller.leaders()[0].alerts.approvals
        approved = queue.get(verdicts["approved"])
        rejected = queue.get(verdicts["rejected"])
        assert approved.status == "approved"
        assert approved.executed is True  # applied after the verdict
        assert rejected.status == "declined"
        assert rejected.executed is False  # never applied

        # the deferred execution is on the stream exactly once, and the
        # run stays AG3xx-clean (AG303: every action exactly once)
        assert len(_executed_events(tmp_path / "store.db", approved.request_id)) == 1
        assert len(_executed_events(tmp_path / "store.db", rejected.request_id)) == 0
        from repro.analysis.verify.engine import verify_trace

        report = verify_trace(tmp_path / "store.db", name="run")
        assert not [d for d in report.diagnostics if d.code == "AG303"]
        assert not report.errors

    def test_expired_requests_count_per_service(self, tmp_path):
        """Unattended semi-automatic mode: TTL expiry is surfaced."""
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=300,
            seed=7,
            chaos=default_chaos(seed=115),
            semi_automatic=True,
            store_path=tmp_path / "store.db",
        )
        result = runner.run()
        queue = runner.controller.leaders()[0].alerts.approvals
        expired = [r for r in queue.requests if r.status == "expired"]
        assert expired, "the scenario raised no expiring approvals"
        by_service = result.expired_approvals_by_service
        assert sum(by_service.values()) == len(expired)
        assert all(service for service in by_service)  # real service names
        # the counts reach summary.json through the export payload
        payload = summary_json_payload(result)
        assert payload["expired_approvals_by_service"] == dict(
            sorted(by_service.items())
        )
        assert payload["expired_approval_count"] == len(expired)
        # and the stream carries one expired ApprovalEvent per request
        _, events = read_store(tmp_path / "store.db")
        stream_expired = [
            event.record["request_id"]
            for event in events
            if event.record.get("type") == "ApprovalEvent"
            and event.record.get("phase") == "expired"
        ]
        assert sorted(stream_expired) == sorted(
            request.request_id for request in expired
        )


class TestByteIdentity:
    def test_served_run_is_byte_identical_when_nobody_posts(self, tmp_path):
        """The ISSUE's identity criterion: ``--serve`` is read-only.

        A seeded 12h chaos run with the ops API and telemetry store
        enabled must produce the byte-identical trace and the identical
        summary payload as the same run without them.
        """

        def run(serve):
            out = tmp_path / ("served" if serve else "plain")
            out.mkdir()
            runner = SimulationRunner(
                Scenario.FULL_MOBILITY,
                user_factor=1.15,
                horizon=720,
                seed=7,
                chaos=default_chaos(seed=115),
                store_path=(out / "store.db") if serve else None,
                serve=("127.0.0.1", 0) if serve else None,
            )
            recorder = JsonlRecorder(runner.platform.bus)
            result = runner.run()
            recorder.write(out / "telemetry.jsonl")
            return out, summary_json_payload(result)

        plain_dir, plain_summary = run(serve=False)
        served_dir, served_summary = run(serve=True)
        assert served_summary == plain_summary
        plain_bytes = (plain_dir / "telemetry.jsonl").read_bytes()
        served_bytes = (served_dir / "telemetry.jsonl").read_bytes()
        assert served_bytes == plain_bytes
        # and the store replays to that same byte-identical stream
        from repro.telemetry.trace import read_trace

        _, trace_events = read_trace(plain_dir / "telemetry.jsonl")
        _, store_events = read_store(served_dir / "store.db")
        assert len(store_events) == len(trace_events)
        assert all(
            (ours.seq, ours.topic, ours.record)
            == (theirs.seq, theirs.topic, theirs.record)
            for ours, theirs in zip(store_events, trace_events)
        )


class TestKillAndResume:
    def test_http_approval_survives_sigkill_exactly_once(self, tmp_path):
        """The ISSUE's durability criterion, over the real CLI.

        Phase 1 serves the ops API; this test plays administrator over
        HTTP and approves the first pending request, then the controller
        SIGKILLs itself.  Phase 2 resumes from the durable snapshot and
        journal.  The approved action must survive as applied exactly
        once — ``autoglobe verify --strict`` over the store must come
        back clean (AG303 would flag a double apply)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        state_dir = tmp_path / "state"
        store = tmp_path / "store.db"
        base = [
            sys.executable, "-m", "repro.cli", "run",
            "--scenario", "full-mobility", "--users", "1.15",
            "--hours", "4", "--seed", "7", "--chaos",
            "--semi-automatic",
            "--state-dir", str(state_dir),
            "--store", str(store),
        ]
        phase1 = subprocess.Popen(
            base + [
                "--serve", "127.0.0.1:0",
                "--pace", "0.05",
                "--kill-at", "800",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = phase1.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no ops API banner on stderr: {banner!r}"
            client = OpsClient("127.0.0.1", int(match.group(1)), timeout=5.0)
            # keep stderr drained so the child can never block on the pipe
            drainer = threading.Thread(
                target=phase1.stderr.read, daemon=True
            )
            drainer.start()

            approved_id = None
            deadline = time.monotonic() + 60
            while approved_id is None and time.monotonic() < deadline:
                try:
                    pending = [
                        request
                        for request in client.approvals()["requests"]
                        if request["status"] == "pending"
                    ]
                except (OSError, RuntimeError):
                    break  # server went away: the SIGKILL landed
                if pending:
                    ok, _ = client.approve(pending[0]["request_id"])
                    if ok:
                        approved_id = pending[0]["request_id"]
                        break
                time.sleep(0.02)
            assert approved_id is not None, "never saw a pending approval"
            phase1.wait(timeout=120)
        finally:
            if phase1.poll() is None:
                phase1.kill()
                phase1.wait(timeout=30)
        assert phase1.returncode == -signal.SIGKILL

        phase2 = subprocess.run(
            base + ["--resume"], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert phase2.returncode == 0, phase2.stderr

        # exactly once on the final timeline, and AG3xx-clean in strict
        # mode straight from the SQLite store
        assert len(_executed_events(store, approved_id)) == 1
        header, _ = read_store(store)
        assert header.complete is True
        verify = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", str(store), "--strict"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert verify.returncode == 0, verify.stdout + verify.stderr
