"""End-to-end verification: clean runs verify clean, offline == live.

The mutation tests prove the checkers *can* fire; these prove they stay
silent on healthy runs (a sanitizer that cries wolf is worse than none)
and that the offline front end reproduces the live sanitizer's report
byte-for-byte from an exported trace.
"""

import json

import pytest

from repro.analysis.verify import verify_trace
from repro.config.builtin import paper_landscape, partition_landscape
from repro.sim.results import accounting_summary
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos
from tests.conftest import JsonlRecorder

HORIZON = 6 * 60


@pytest.fixture(scope="module")
def chaos_verified_run(tmp_path_factory):
    """One seeded 6h chaos run with the live sanitizer attached and the
    trace streamed to disk — shared by the clean-run and byte-identity
    tests."""
    base = tmp_path_factory.mktemp("verify-trace")
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=HORIZON,
        seed=7,
        collect_host_series=False,
        chaos=default_chaos(seed=115),
        verify=True,
    )
    recorder = JsonlRecorder(runner.platform.bus)
    result = runner.run()
    recorder.write(base / "telemetry.jsonl")
    (base / "summary.json").write_text(
        json.dumps(accounting_summary(result)), encoding="utf-8"
    )
    report = runner.verification_report(result)
    return result, report, base / "telemetry.jsonl"


class TestCleanRuns:
    def test_chaos_run_verifies_clean(self, chaos_verified_run):
        result, report, _ = chaos_verified_run
        assert result.fault_records, "chaos must actually inject faults"
        assert report.clean, report.render("text")

    def test_federated_chaos_run_verifies_clean(self):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=HORIZON,
            seed=7,
            landscape=partition_landscape(paper_landscape(), 4),
            collect_host_series=False,
            chaos=default_chaos(seed=115),
            verify=True,
        )
        result = runner.run()
        report = runner.verification_report(result)
        assert report.clean, report.render("text")


class TestOfflineEqualsLive:
    def test_exported_trace_reproduces_live_report(self, chaos_verified_run):
        result, live_report, trace_path = chaos_verified_run
        offline_report = verify_trace(trace_path, name=live_report.landscape_name)
        assert offline_report.render("json") == live_report.render("json")

    def test_offline_report_is_clean_too(self, chaos_verified_run):
        _, _, trace_path = chaos_verified_run
        report = verify_trace(trace_path)
        assert report.clean, report.render("text")
