"""The suite's own tests (outside tier-1 ``testpaths``; run explicitly)::

    PYTHONPATH=src python -m pytest bench/suite/test_suite.py -q

Every workload goes through the real code path — child interpreters,
load generator, tracing, aggregation, contract line — at a horizon of
minutes instead of hours.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.suite import cli, compare, registry, stats  # noqa: E402
from bench.suite.tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_NAMES = [w.name for w in registry.WORKLOADS]


# -- the registry against the contract ---------------------------------------------


def test_limits_and_names():
    assert 2 <= len(registry.WORKLOADS) <= 8
    assert 1 <= len(registry.contract_end_to_end()) <= len(registry.END_TO_END) <= 16
    assert 1 <= len(registry.contract_per_layer()) <= 128
    names = (
        WORKLOAD_NAMES
        + [m.name for m in registry.END_TO_END]
        + [m.name for m in registry.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in registry.END_TO_END + registry.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for w in registry.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why
    assert 1 <= registry.RUN_SECONDS <= 60
    assert registry.SUITE_REPS >= registry.MIN_REPS >= 3


def test_bounds_and_setup_metric():
    by_name = {m.name: m for m in registry.END_TO_END}
    assert by_name["setup_s"].unit == "s" and by_name["setup_s"].better == "lower"
    for metric in registry.END_TO_END:
        assert metric.bound is None or 0 < metric.bound <= 0.25
        assert metric.home, metric.name
        assert set(metric.home) <= set(WORKLOAD_NAMES)
    contract = registry.contract_end_to_end()
    assert all(set(m.home) == set(WORKLOAD_NAMES) and m.bound for m in contract)
    assert by_name["setup_s"].bound == max(m.bound for m in contract)
    # what exists on some workloads only is listed per layer, ahead of the layers
    listed = [name for name, _, _ in registry.contract_per_layer()]
    assert listed == [
        m.name for m in registry.END_TO_END if m not in contract
    ] + [m.name for m in registry.PER_LAYER]


def test_every_layer_metric_names_what_it_should_move():
    by_name = {m.name: m for m in registry.END_TO_END}
    for layer in registry.PER_LAYER:
        if layer.name.startswith("bench."):
            continue  # about the tracing itself
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert workload in by_name[metric].home, (layer.name, metric, workload)


def test_benchmark_json_matches_the_registry():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == registry.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    for path in committed["paths"]:
        assert (ROOT / path).is_dir()
    assert not any(
        part.startswith("/") or ".." in part for part in committed["command"]
    )


def test_known_failures_are_named_checks():
    assert list(registry.KNOWN_FAILURES) == ["restored-summary-equals-uninterrupted"]


# -- statistics and tracing ----------------------------------------------------------


def test_speed_scale_is_the_mean_reference_share_of_the_slices():
    from bench.suite.calibration import (
        NEAREST_SLICES, REFERENCE_SLICE_S, SpeedMeter, timed,
    )

    meter = SpeedMeter()
    assert meter.scale() == 1.0 and meter.due(0.0)
    meter.take()
    assert len(meter.slices) == 1 and meter.suite_s == meter.slices[0] > 0
    assert not meter.due(0.0)
    # twenty slices a second apart: ten on a machine at half speed, ten at double
    meter.at = [float(second) for second in range(20)]
    meter.slices = [REFERENCE_SLICE_S * 2] * 10 + [REFERENCE_SLICE_S / 2] * 10
    assert meter.scale() == pytest.approx((0.5 + 2.0) / 2)
    assert meter.scale(0.0, 9.0) == pytest.approx(0.5)
    assert meter.scale(10.0, 19.5) == pytest.approx(2.0)
    # too short a stretch to hold slices of its own: the nearest around it
    assert NEAREST_SLICES == 8
    assert meter.scale(3.2, 3.3) == pytest.approx(0.5)
    assert meter.scale(9.4, 9.5) == pytest.approx((0.5 * 4 + 2.0 * 4) / 8)
    assert meter.scale(18.9, 19.0) == pytest.approx(2.0)
    result, wall, scale = timed(lambda: "done")
    assert result == "done" and 0 <= wall < 0.1 and scale > 0


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile([3.0], 99) == 3.0
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 50.0]) == [2.0, 4.0]


def test_self_time_is_duration_minus_children():
    import time

    class Layers:
        def outer(self):
            time.sleep(0.02)
            self.inner()
            self.inner()
            return [1, 2, 3]

        def inner(self):
            time.sleep(0.01)

    tracer = Tracer()
    tracer._wrap(Layers, "outer", "t.outer")
    tracer._wrap(Layers, "inner", "t.inner")
    try:
        Layers().outer()
    finally:
        tracer.uninstall()
    assert "traced" not in repr(Layers.outer)
    totals = tracer.totals()
    assert totals["t.inner"]["calls"] == 2 and totals["t.outer"]["calls"] == 1
    outer, inner = totals["t.outer"], totals["t.inner"]
    assert outer["busy_s"] == pytest.approx(outer["self_s"] + inner["busy_s"])
    assert 0.015 < outer["self_s"] < outer["busy_s"]
    assert tracer.result_sizes["t.outer"] == 3
    (thread,) = tracer.spans()
    parents = [span[3] for span in thread["spans"]]
    assert parents == [-1, 0, 0]


def test_same_name_nesting_is_not_counted_twice():
    class Layers:
        def rank_many(self):
            return self.rank()

        def rank(self):
            return None

    tracer = Tracer()
    tracer._wrap(Layers, "rank_many", "t.rank")
    tracer._wrap(Layers, "rank", "t.rank")
    try:
        Layers().rank_many()
    finally:
        tracer.uninstall()
    totals = tracer.totals()["t.rank"]
    assert totals["calls"] == 1
    assert totals["self_s"] == pytest.approx(totals["busy_s"])


def test_trace_targets_exist():
    import importlib

    from bench.suite.tracing import TARGETS

    for module, owner, attribute, _ in TARGETS:
        assert attribute in vars(getattr(importlib.import_module(module), owner))


# -- every workload, tiny, through the real path ------------------------------------


def _contract_run(capsys, workload, trace):
    code = cli.main(
        ["--workload", workload, "--seed", "11", "--seconds", "0.01",
         "--trace", str(trace), "--tiny"]
    )
    output = capsys.readouterr().out
    assert code == 0, output
    return output, json.loads(output.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_contract_line_end_to_end(capsys, workload):
    output, line = _contract_run(capsys, workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    contract = registry.contract_end_to_end()
    assert list(line["metrics"]) == [m.name for m in contract]
    for metric in contract:
        entry = line["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert entry["value"] > 0, metric.name
    for metric in registry.home_metrics(workload):
        assert re.search(rf"^\s+{re.escape(metric.name)}\s", output, re.M), metric.name
    assert f"({registry.MIN_REPS} repetitions, 0 traced)" in output
    assert "digest" in output
    assert not (ROOT / ".bench_out").exists()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_contract_line_per_layer(capsys, workload):
    output, line = _contract_run(capsys, workload, trace=1)
    assert line["correct"] is True
    assert list(line["metrics"]) == [n for n, _, _ in registry.contract_per_layer()]
    assert f"(1 repetitions, {registry.MIN_REPS - 1} traced)" in output
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert values["telemetry.bus.envelopes"] > 0
    # a metric that exists on some workloads only: measured there, 0 elsewhere
    for metric in registry.END_TO_END:
        if metric in registry.contract_end_to_end():
            assert metric.name not in values
        else:
            assert (values[metric.name] > 0) == (workload in metric.home), metric.name
    if workload == registry.FEDERATION:
        assert values["net.agent.tick_ms"] > 0
        assert values["net.server.finalize_s"] > 0
    else:
        assert values["core.autoglobe.tick_s"] > values["core.autoglobe.tick_self_s"] > 0
        assert values["bench.trace_coverage_pct"] > 80
    assert (values["core.state.journal_append_calls"] > 0) == (
        workload == registry.DURABLE
    )
    assert (values["ops.api.http_requests"] > 0) == (workload == registry.OPS)
    assert (values["core.federation.tick_self_s"] > 0) == (workload == registry.DOMAINS)


def test_suite_run_writes_results_and_compares_with_itself(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["--workload", registry.DURABLE, "--reps", "3", "--tiny", "--out", str(out)]
    )
    report = capsys.readouterr().out
    assert code == 0, report
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    assert set(results) == {"meta", "workloads", "checks"}
    assert {
        "nproc", "python", "numpy", "cpu_model", "load_average_at_start", "seed",
        "reference_slice_s",
    } <= set(results["meta"])
    workload = results["workloads"][registry.DURABLE]
    assert workload["repetitions"] == 3 and workload["traced_repetitions"] == 1
    assert workload["ops_failed"] == 0
    for entry in workload["end_to_end"].values():
        assert {"unit", "value", "n", "median", "q1", "q3", "min", "max", "reps"} <= set(entry)
        assert entry["value"] == entry["median"] and entry["n"] == 3
    assert set(workload["end_to_end"]) == {
        m.name for m in registry.home_metrics(registry.DURABLE)
    }
    assert {"run_wall_s", "scale", "setup_wall_s", "restore_wall_s"} <= set(workload["raw"])
    assert {c["name"] for c in workload["checks"]} >= {
        "one-digest-across-repetitions",
        "traced-digest-equals-untraced",
        "restored-summary-equals-uninterrupted",
    }
    assert list(out.glob("*.spans.json")), "a traced repetition keeps its spans"
    assert not list(out.glob("scratch-*")), "scratch state is cleaned up"
    assert results["checks"] == []  # the served and the unserved run were not both here

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert "per_layer" not in summary["workloads"][registry.DURABLE]
    for side in (results, summary):
        rows = compare.compare(side, summary)
        assert rows[0]["metric"] == "digest" and rows[0]["verdict"] == "identical"
        assert {row["metric"] for row in rows[1:]} == set(workload["end_to_end"])
        assert all(row["verdict"] in ("within", "unresolved") for row in rows[1:])
        assert all(row["worse_by"] == 0 for row in rows[1:])


def test_served_run_yields_the_unserved_digest(tmp_path, capsys):
    code = cli.main(
        ["--workload", registry.PAPER, "--workload", registry.OPS, "--reps", "3",
         "--tiny", "--out", str(tmp_path / "o")]
    )
    report = capsys.readouterr().out
    assert code == 0, report
    assert "pass ops-live-digest-equals-paper-digest" in report
    assert "pass ws-seqs-received-or-dropped-in-band" in report


def test_compare_verdicts():
    def result(metric, values):
        entry = stats.summarise(values)
        entry.update(unit="x", value=entry["median"], reps=values)
        return {"workloads": {"w": {
            "digest": "d", "deterministic": True, "end_to_end": {metric: entry},
        }}}

    def verdicts(metric, a, b):
        rows = compare.compare(result(metric, a), result(metric, b))
        return [row["verdict"] for row in rows if row["metric"] != "digest"]

    base = [100.0, 101.0, 102.0, 103.0, 104.0]
    rate = "sim_min_per_s"  # higher is better, bound 25%
    assert verdicts(rate, base, [85.0, 89.0, 90.0, 91.0, 95.0]) == ["within"]
    assert verdicts(rate, base, [60.0, 61.0, 62.0, 63.0, 64.0]) == ["WORSE"]
    assert verdicts(rate, base, [50.0, 60.0, 100.0, 140.0, 150.0]) == ["unresolved"]
    # as noisy, but every repetition better than every one of the base
    assert verdicts(rate, base, [150.0, 160.0, 200.0, 240.0, 250.0]) == ["within"]
    assert verdicts("ops_http_p99_ms", base, [300.0] * 5) == ["no bound"]


def test_only_listed_failures_are_tolerated():
    from bench.suite import driver

    def check(name, ok):
        return {"name": name, "ok": ok, "detail": "",
                "known_failure": name in registry.KNOWN_FAILURES}

    results = {
        "checks": [check("ops-live-digest-equals-paper-digest", False)],
        "workloads": {"w": {"checks": [
            check("restored-summary-equals-uninterrupted", False),
            check("one-digest-across-repetitions", True),
        ]}},
    }
    assert driver.unexpected_failures(results) == [
        "ops-live-digest-equals-paper-digest"
    ]
