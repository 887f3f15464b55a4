#!/usr/bin/env python
"""Performance harness for the simulation runner and monitoring hot path.

Times the end-to-end seeded chaos runs (the acceptance workload) plus the
monitoring/decision microbenchmarks that the telemetry-spine refactor
targets, and writes ``BENCH_runner.json``.  The file embeds the
pre-refactor baseline (measured on commit 12d8c5c, before the event bus,
O(1) rolling windows, vectorized fuzzy evaluation and defuzzifier
memoization landed) so every run reports its speedup against the same
fixed reference.

Usage::

    PYTHONPATH=src python bench/run_bench.py [--quick] [--out FILE]

``--quick`` skips the 80-hour run and the long tick microbenchmark; CI
uses it as a smoke test, while the committed ``BENCH_runner.json`` at the
repository root comes from a full run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

#: Wall-clock numbers measured immediately before this refactor
#: (commit 12d8c5c) on the same workloads this harness runs.
PRE_REFACTOR_BASELINE = {
    "commit": "12d8c5c",
    "runner_chaos_12h_seconds": 6.25,
    "runner_chaos_12h_ticks_per_second": 115.2,
    "runner_chaos_80h_seconds": 29.99,
    "runner_chaos_80h_ticks_per_second": 160.1,
    "archive_average_trailing10_us": 101.0,
    "controller_tick_ms": 2.406,
}


def _chaos_run(horizon: int) -> dict:
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario, default_chaos

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
    elapsed = time.perf_counter() - started
    return {
        "horizon_minutes": horizon,
        "seconds": round(elapsed, 3),
        "ticks_per_second": round(horizon / elapsed, 1),
        "telemetry_records": runner.platform.bus.last_seq,
    }


def _time_us(fn, iterations: int) -> float:
    """Mean microseconds per call over ``iterations`` calls."""
    started = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - started) / iterations * 1e6


def _microbench_archive() -> float:
    import numpy as np

    from repro.monitoring.archive import InMemoryLoadArchive
    from repro.telemetry.records import LoadReportBatch

    archive = InMemoryLoadArchive()
    series = (("host01", "cpu"),)
    for minute in range(4800):
        archive.record_reports(LoadReportBatch(
            minute, series, np.array([0.25 + (minute % 97) / 200.0])
        ))
    end = 4799
    return round(
        _time_us(lambda: archive.average("host01", "cpu", end - 9, end), 20000), 3
    )


def _microbench_controller_tick(horizon: int, landscape=None) -> float:
    """Mean controller tick cost at the end of a warmed-up plain run.

    ``landscape`` defaults to the Section 5.1 landscape (19 hosts); the
    1k series passes 53 replicas of it (1,007 hosts), where the bare
    steady-state tick is dominated by the per-monitor record/report
    pipeline behind the column reads.
    """
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=horizon,
        seed=7,
        landscape=landscape,
        collect_host_series=False,
    )
    runner.run()
    controller = runner.controller
    end = runner.start_minute + runner.horizon
    ticks = 240
    started = time.perf_counter()
    for offset in range(ticks):
        controller.tick(end + offset)
    return round((time.perf_counter() - started) / ticks * 1e3, 4)


def _bench_landscape_10k(horizon: int) -> dict:
    """End-to-end seeded run on the synthetic 10k-host landscape.

    No chaos profile (the fault injector's RNG stream is a separate
    concern); the numbers answer two questions in absolute terms — does
    a simulated minute on 10,013 hosts tick in a small fraction of a
    real minute, and how long does the controller stall in the worst
    one?  The worst tick is the minute-10 watch-time expiry, when every
    overloaded replica's situation is confirmed at once and the decision
    loop ranks ~10k candidate hosts per executed action;
    ``landscape_10k_burst_tick_seconds`` is that controller tick.  Both
    are absolute budgets.
    """
    from repro.config.builtin import landscape_10k
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    build_started = time.perf_counter()
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=1.0,
        horizon=horizon,
        seed=7,
        landscape=landscape_10k(),
        collect_host_series=False,
        lint="off",
    )
    build_seconds = time.perf_counter() - build_started
    tick_seconds = []
    controller_tick = runner.controller.tick

    def timed_tick(now):
        started = time.perf_counter()
        try:
            return controller_tick(now)
        finally:
            tick_seconds.append(time.perf_counter() - started)

    runner.controller.tick = timed_tick
    started = time.perf_counter()
    runner.run()
    elapsed = time.perf_counter() - started
    return {
        "landscape_10k_hosts": len(runner.platform.hosts),
        "landscape_10k_horizon_minutes": horizon,
        "landscape_10k_build_seconds": round(build_seconds, 3),
        "landscape_10k_seconds": round(elapsed, 3),
        "landscape_10k_ticks_per_second": round(horizon / elapsed, 2),
        "landscape_10k_seconds_per_sim_minute": round(elapsed / horizon, 4),
        "landscape_10k_burst_tick_seconds": round(max(tick_seconds), 3),
        "landscape_10k_server_selection": dict(
            runner.controller.leaders()[0].server_selector.stats
        ),
    }


def _microbench_domain_scaling(horizon: int) -> dict:
    """Per-tick controller cost on a 4x-replicated landscape, flat vs sharded.

    The flat controller's situation detection and placement scans scale
    with the whole landscape; four control domains each scan a quarter.
    Both variants run the same warmed-up workload before timing.
    """
    from repro.config.builtin import partition_landscape, replicated_landscape
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    results = {}
    for label, landscape in (
        ("flat", replicated_landscape(4)),
        ("domains4", partition_landscape(replicated_landscape(4), 4)),
    ):
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=horizon,
            seed=7,
            landscape=landscape,
            collect_host_series=False,
        )
        runner.run()
        controller = runner.controller
        end = runner.start_minute + runner.horizon
        ticks = 120
        started = time.perf_counter()
        for offset in range(ticks):
            controller.tick(end + offset)
        results[f"controller_tick_4x_{label}_ms"] = round(
            (time.perf_counter() - started) / ticks * 1e3, 4
        )
    results["controller_tick_4x_domains_speedup"] = round(
        results["controller_tick_4x_flat_ms"]
        / results["controller_tick_4x_domains4_ms"],
        2,
    )
    return results


def _bench_store_ingest(horizon: int) -> dict:
    """Telemetry-store ingest overhead on the seeded chaos workload.

    Runs the acceptance chaos run with and without ``--store`` attached,
    interleaved (baseline, store, baseline, store) and taking the min of
    each pair so scheduler noise hits both sides equally.  The ISSUE's
    criterion is <10% wall-clock overhead on the 80-hour run; the
    group commit by wall-clock age (a transaction at the first tick
    boundary 0.25 s after the last one — some twenty for this run)
    keeps the SQLite writes off the per-event path, so what is measured
    is the per-envelope conversion and pickling.
    """
    import tempfile

    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario, default_chaos

    def once(store_path):
        started = time.perf_counter()
        runner = SimulationRunner(
            Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=horizon,
            seed=7,
            collect_host_series=False,
            chaos=default_chaos(seed=115),
            store_path=store_path,
        )
        runner.run()
        elapsed = time.perf_counter() - started
        rows = runner.telemetry_store.inserted if store_path else 0
        return elapsed, rows

    label = f"{horizon // 60}h"
    baseline, stored, rows = [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(2):
            baseline.append(once(None)[0])
            elapsed, rows = once(Path(tmp) / f"store{attempt}.db")
            stored.append(elapsed)
    base, with_store = min(baseline), min(stored)
    return {
        f"ops_store_ingest_{label}_baseline_seconds": round(base, 3),
        f"ops_store_ingest_{label}_seconds": round(with_store, 3),
        f"ops_store_ingest_{label}_rows": rows,
        f"ops_store_ingest_{label}_overhead_pct": round(
            (with_store - base) / base * 100.0, 1
        ),
    }


def _microbench_multiproc(horizon: int) -> dict:
    """Domain scaling of the multi-process federation (agent processes).

    Runs the federated simulation with 2 and then 4 agent processes on
    the ``replicated`` landscape, so every agent administers one
    base-landscape copy regardless of the domain count: doubling the
    domains doubles the total work while each process's share stays
    constant.  With the agents running in parallel the wall time should
    stay ~flat and the aggregate throughput (domain-minutes per second)
    should ~double — the near-linear scaling the in-process sharded
    controller cannot deliver under the GIL (its 4x tick speedup above
    saturates around 1.1-1.2x).  The scaling is core-bound: on a 1-core
    machine only the I/O portions (journal fsyncs, wire waits) overlap,
    so read the ratio against the recorded ``cpu_count``.
    """
    import tempfile

    from repro.net.orchestrator import run_multiproc
    from repro.sim.scenarios import Scenario

    results: dict = {"federation_multiproc_horizon_minutes": horizon}
    throughput = {}
    for domains in (2, 4):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            started = time.perf_counter()
            result = run_multiproc(
                domains,
                base / "state",
                base / "out",
                scenario=Scenario.FULL_MOBILITY,
                user_factor=1.15,
                horizon=horizon,
                seed=7,
                start_minute=720,
                landscape_kind="replicated",
            )
            elapsed = time.perf_counter() - started
        throughput[domains] = domains * horizon / elapsed
        results[f"federation_{domains}x_multiproc_seconds"] = round(elapsed, 3)
        results[f"federation_{domains}x_multiproc_ticks_per_second"] = round(
            throughput[domains], 1
        )
        if domains == 4:
            tick_ms = [
                summary["perf"]["controller_tick_seconds"]
                / max(summary["perf"]["ticks"], 1)
                * 1e3
                for summary in result.domain_summaries.values()
            ]
            # the durable per-domain supervisor tick (journal + failover
            # machinery included); constant in the domain count because
            # each agent's shard is one base-landscape copy
            results["controller_tick_multiproc_agent_ms"] = round(
                sum(tick_ms) / len(tick_ms), 4
            )
    # 2.0 would be perfectly linear for the 2 -> 4 domain doubling
    results["controller_tick_multiproc_scaling"] = round(
        throughput[4] / throughput[2], 2
    )
    # with fewer than 4 cores the 4 agent processes cannot actually run
    # in parallel; the ratio then measures I/O overlap (journal fsyncs,
    # wire waits), not CPU scaling — flag it so consumers of the
    # committed file read the number accordingly
    results["federation_multiproc_core_bound"] = (os.cpu_count() or 1) < 4
    return results


def run(quick: bool) -> dict:
    from repro.config.builtin import replicated_landscape

    results: dict = {}
    print("chaos run, 12 hours ...", flush=True)
    twelve = _chaos_run(720)
    results["runner_chaos_12h_seconds"] = twelve["seconds"]
    results["runner_chaos_12h_ticks_per_second"] = twelve["ticks_per_second"]
    results["runner_chaos_12h_telemetry_records"] = twelve["telemetry_records"]
    if not quick:
        print("chaos run, 80 hours ...", flush=True)
        eighty = _chaos_run(4800)
        results["runner_chaos_80h_seconds"] = eighty["seconds"]
        results["runner_chaos_80h_ticks_per_second"] = eighty["ticks_per_second"]
        results["runner_chaos_80h_telemetry_records"] = eighty["telemetry_records"]
    print("monitoring microbenchmarks ...", flush=True)
    results["archive_average_trailing10_us"] = _microbench_archive()
    print("controller tick microbenchmark ...", flush=True)
    results["controller_tick_ms"] = _microbench_controller_tick(
        720 if quick else 4800
    )
    print("controller tick microbenchmark (1k-host landscape) ...", flush=True)
    results["controller_tick_1k_ms"] = _microbench_controller_tick(
        120 if quick else 240, landscape=replicated_landscape(53)
    )
    print("landscape-10k end-to-end run ...", flush=True)
    # never shorter than 12 minutes: the burst is the minute-10 tick
    results.update(_bench_landscape_10k(12 if quick else 30))
    print("domain-scaling microbenchmark (4x landscape) ...", flush=True)
    results.update(_microbench_domain_scaling(240 if quick else 720))
    print("multi-process federation (2 and 4 agent processes) ...", flush=True)
    results.update(_microbench_multiproc(120 if quick else 240))
    print("telemetry-store ingest overhead ...", flush=True)
    results.update(_bench_store_ingest(720 if quick else 4800))

    speedup = {}
    for key, before in PRE_REFACTOR_BASELINE.items():
        after = results.get(key)
        if key == "commit" or after is None or not after:
            continue
        # Throughput metrics improve upward, timings downward.
        factor = after / before if key.endswith("per_second") else before / after
        speedup[key] = round(factor, 2)
    return {
        "schema": 1,
        "mode": "quick" if quick else "full",
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "baseline_pre_refactor": PRE_REFACTOR_BASELINE,
        "results": results,
        "speedup_vs_baseline": speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="12-hour run only (CI smoke mode)")
    parser.add_argument("--out", default="BENCH_runner.json", metavar="FILE",
                        help="output path (default: BENCH_runner.json)")
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for key, factor in payload["speedup_vs_baseline"].items():
        print(f"  {key}: {factor:g}x vs pre-refactor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
