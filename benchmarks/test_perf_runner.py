"""Perf smoke test: guard the runner's throughput against regressions.

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``); CI's
perf-smoke job runs it explicitly.  Two guards:

* the committed ``BENCH_runner.json`` must document the refactor's
  speedup on the monitoring/decision hot path (>= 2x vs the embedded
  pre-refactor baseline);
* a fresh quick chaos run and fresh bare ticks on the 1k-host landscape
  must not fall more than 25% below the committed throughput, and the
  10k landscape must stay inside its absolute budgets (seconds per
  simulated minute, burst tick).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_runner.json"

#: Allowed throughput regression before the smoke test fails.
REGRESSION_TOLERANCE = 0.25

#: Longest the controller may stall in one tick of the 10k landscape: the
#: minute-10 watch-time expiry, 720 ranked placements over ~10k candidate
#: hosts each.  About twice the committed measurement; the per-action
#: re-fuzzification this budget replaced took 10.3 s on the same machine.
BURST_TICK_BUDGET_SECONDS = 6.0


def _committed() -> dict:
    return json.loads(BENCH_FILE.read_text(encoding="utf-8"))


def test_committed_bench_documents_hot_path_speedup():
    payload = _committed()
    speedup = payload["speedup_vs_baseline"]
    assert speedup["archive_average_trailing10_us"] >= 2.0
    assert speedup["controller_tick_ms"] >= 2.0
    assert speedup["runner_chaos_80h_seconds"] >= 2.0
    # The committed file must come from the full (80-hour) workload.
    assert payload["mode"] == "full"
    assert payload["results"]["runner_chaos_80h_seconds"] > 0


def test_committed_bench_documents_multiproc_domain_scaling():
    payload = _committed()
    results = payload["results"]
    assert results["federation_2x_multiproc_ticks_per_second"] > 0
    assert results["federation_4x_multiproc_ticks_per_second"] > 0
    assert results["controller_tick_multiproc_agent_ms"] > 0
    # Core-honest scaling guard: near-linear scaling for the 2 -> 4
    # agent-process doubling (2.0 would be perfect) is only a physical
    # possibility with at least 4 cores.  On smaller boxes the agents
    # time-share one or two cores and the ratio measures I/O overlap
    # (journal fsyncs, wire waits), so asserting near-linearity there
    # would guard a number the hardware cannot produce.  The committed
    # file records its own core count and flags core-bound runs.
    scaling = results["controller_tick_multiproc_scaling"]
    cpu_count = payload.get("cpu_count") or 1
    if cpu_count >= 4:
        assert scaling >= 1.6, (
            f"multiproc scaling {scaling} on {cpu_count} cores: the 2->4 "
            f"doubling should be near-linear with 4+ cores"
        )
        assert not results.get("federation_multiproc_core_bound", False)
    else:
        # time-shared cores: require the doubling not to *hurt* aggregate
        # throughput badly, and the committed file to say it is core-bound
        assert scaling >= 0.8
        assert results.get("federation_multiproc_core_bound", cpu_count < 4)


def test_committed_bench_documents_10k_real_time_ticks():
    """A 10k-host sim-minute must tick well under one real minute."""
    results = _committed()["results"]
    assert results["landscape_10k_hosts"] >= 10_000
    per_minute = results["landscape_10k_seconds_per_sim_minute"]
    # "real time" headroom: a simulated minute in a tenth of a real one
    assert per_minute <= 6.0, (
        f"landscape-10k ticks at {per_minute}s per sim-minute; the 10k "
        f"target is real time with wide margin (<= 6s)"
    )
    burst = results["landscape_10k_burst_tick_seconds"]
    assert 0 < burst <= BURST_TICK_BUDGET_SECONDS, (
        f"landscape-10k decision burst stalls the controller for {burst}s "
        f"(budget {BURST_TICK_BUDGET_SECONDS}s)"
    )
    # the window ranks off the incremental score table: at least ten
    # times fewer host evaluations than running the controller for
    # every server on every call would take
    selection = results["landscape_10k_server_selection"]
    assert selection["rank_calls"] > 0
    assert selection["hosts_rescored"] * 10 < (
        selection["rank_calls"] * results["landscape_10k_hosts"]
    )


def test_committed_bench_documents_store_ingest_overhead():
    """The telemetry store must stay cheap on the acceptance workload.

    ISSUE 10's criterion: persisting every telemetry record of the
    80-hour chaos run to the SQLite event store adds <10% wall-clock
    overhead over the same run without a store attached.  The committed
    numbers come from interleaved baseline/with-store pairs (min of
    each), so scheduler noise hits both sides equally.
    """
    results = _committed()["results"]
    assert results["ops_store_ingest_80h_rows"] > 0
    assert results["ops_store_ingest_80h_baseline_seconds"] > 0
    assert results["ops_store_ingest_80h_seconds"] > 0
    overhead = results["ops_store_ingest_80h_overhead_pct"]
    assert overhead < 10.0, (
        f"telemetry-store ingest overhead {overhead}% >= 10% on the "
        f"80h chaos run"
    )


def test_multiproc_federation_throughput_no_regression(tmp_path):
    from repro.net.orchestrator import run_multiproc
    from repro.sim.scenarios import Scenario

    committed = _committed()["results"]
    horizon = committed["federation_multiproc_horizon_minutes"]
    started = time.perf_counter()
    result = run_multiproc(
        2,
        tmp_path / "state",
        tmp_path / "out",
        scenario=Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=horizon,
        seed=7,
        start_minute=720,
        landscape_kind="replicated",
    )
    elapsed = time.perf_counter() - started
    assert result.report.errors == ()
    ticks_per_second = 2 * horizon / elapsed
    # process spawn + wire overhead is noisier than the in-process
    # runner, so the floor is looser than REGRESSION_TOLERANCE
    floor = committed["federation_2x_multiproc_ticks_per_second"] * 0.5
    assert ticks_per_second >= floor, (
        f"multiproc federation throughput regressed: "
        f"{ticks_per_second:.1f} ticks/s < {floor:.1f}"
    )


def test_runner_throughput_no_regression():
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario, default_chaos

    committed = _committed()["results"]["runner_chaos_12h_ticks_per_second"]
    horizon = 720
    gc.collect()
    started = time.perf_counter()
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=horizon,
        seed=7,
        collect_host_series=False,
        chaos=default_chaos(seed=115),
    )
    runner.run()
    ticks_per_second = horizon / (time.perf_counter() - started)
    floor = committed * (1.0 - REGRESSION_TOLERANCE)
    assert ticks_per_second >= floor, (
        f"runner throughput regressed: {ticks_per_second:.1f} ticks/s "
        f"< {floor:.1f} (committed {committed:.1f} - {REGRESSION_TOLERANCE:.0%})"
    )


def test_controller_tick_1k_no_regression():
    """Fresh bare controller ticks on the 1,007-host landscape vs committed."""
    from bench.run_bench import _microbench_controller_tick
    from repro.config.builtin import replicated_landscape

    committed = _committed()["results"]["controller_tick_1k_ms"]
    gc.collect()
    tick_ms = _microbench_controller_tick(120, landscape=replicated_landscape(53))
    ceiling = committed / (1.0 - REGRESSION_TOLERANCE)
    assert tick_ms <= ceiling, (
        f"1k-host controller tick regressed: {tick_ms:.2f} ms > {ceiling:.2f} "
        f"(committed {committed:.2f} - {REGRESSION_TOLERANCE:.0%} throughput)"
    )


def _landscape_10k_runner(horizon: int):
    from repro.config.builtin import landscape_10k
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    return SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.0,
        horizon=horizon,
        seed=7,
        landscape=landscape_10k(),
        collect_host_series=False,
        lint="off",
    )


def test_landscape_10k_throughput_no_regression():
    """Fresh short seeded 10k window vs the committed throughput.

    Runs late: the 10k landscape leaves a large gen-2 heap behind, which
    slows the smaller timing tests when it precedes them in one process.
    """
    committed = _committed()["results"]["landscape_10k_ticks_per_second"]
    horizon = 5
    runner = _landscape_10k_runner(horizon)
    gc.collect()
    started = time.perf_counter()
    runner.run()
    ticks_per_second = horizon / (time.perf_counter() - started)
    floor = committed * (1.0 - REGRESSION_TOLERANCE)
    assert ticks_per_second >= floor, (
        f"landscape-10k throughput regressed: {ticks_per_second:.2f} "
        f"ticks/s < {floor:.2f} (committed {committed:.2f} "
        f"- {REGRESSION_TOLERANCE:.0%})"
    )


def test_landscape_10k_burst_tick_within_budget():
    """Fresh seeded 10k window through the minute-10 decision burst."""
    runner = _landscape_10k_runner(12)
    tick_seconds = []
    controller_tick = runner.controller.tick

    def timed_tick(now):
        started = time.perf_counter()
        try:
            return controller_tick(now)
        finally:
            tick_seconds.append(time.perf_counter() - started)

    runner.controller.tick = timed_tick
    gc.collect()
    runner.run()
    assert max(tick_seconds) <= BURST_TICK_BUDGET_SECONDS, (
        f"landscape-10k burst tick took {max(tick_seconds):.2f}s "
        f"(budget {BURST_TICK_BUDGET_SECONDS}s)"
    )
    stats = runner.controller.server_selector.stats
    assert stats["rank_calls"] > 0
