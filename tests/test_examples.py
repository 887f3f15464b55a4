"""Smoke tests: every example script must run and produce its story.

The slower examples accept ``--hours`` so the tests can shrink their
horizons; assertions check the narrative output, not timing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "the controller favors: scaleUp" in out
        assert "controller executed" in out
        assert "final placement" in out

    def test_sap_simulation_short(self):
        out = run_example("sap_simulation.py", "--hours", "14")
        assert "=== static @" in out
        assert "=== constrained-mobility @" in out
        assert "=== full-mobility @" in out
        assert "controller actions" in out
        assert "hosts that ran FI instances" in out

    def test_custom_landscape(self):
        out = run_example("custom_landscape.py")
        assert "loaded landscape 'webshop'" in out
        assert "increasePriority" in out
        assert "checkout priority is now 6" in out
        assert "== Servers ==" in out

    def test_capacity_planning_short(self):
        out = run_example("capacity_planning.py", "--hours", "4")
        assert "capacity sweep" in out
        assert "landscape designer" in out
        assert "designed allocation" in out
        assert "transactional migration" in out

    def test_load_archive_analysis(self):
        out = run_example("load_archive_analysis.py", "--hours", "26")
        assert "hourly aggregated view" in out
        assert "administration history" in out
        assert "LES demand pattern" in out
        assert "forecast for tomorrow morning" in out

    def test_self_healing_and_forecasting(self):
        out = run_example("self_healing_and_forecasting.py")
        assert "self-healing: crash and restart" in out
        assert "FI users preserved: 150" in out
        assert "self-healing outranks the action policy" in out
        assert "anticipated situations" in out
