"""``--compare A.json B.json``: is B no worse than A, metric by metric?

One row per workload and end-to-end metric that exists there: both
medians with their quartiles, the relative difference with its base (A),
and a verdict against the metric's bound.  Where, on either side, the
quartiles of the repetitions are further apart than the bound, the
verdict is *unresolved* rather than *within* — unless every repetition of
B reads better than every one of A.  A metric without a bound is listed
without a verdict.  Reads ``results.json`` or ``summary.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from bench.suite.registry import END_TO_END

__all__ = ["compare", "print_comparison"]


def _worse_by(metric_better: str, a: float, b: float) -> float:
    """Share of A's median by which B is worse (negative: better)."""
    if not a:
        return 0.0
    change = (b - a) / a
    return change if metric_better == "lower" else -change


def _spread(entry: Dict[str, Any]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name, workload_a in a["workloads"].items():
        workload_b = b["workloads"].get(name)
        if workload_b is None:
            continue
        if not workload_a["deterministic"]:
            verdict = "not compared"
        elif workload_a["digest"] == workload_b["digest"]:
            verdict = "identical"
        else:
            verdict = "DIFFERENT"
        rows.append(
            {
                "workload": name,
                "metric": "digest",
                "verdict": verdict,
                "a": workload_a["digest"],
                "b": workload_b["digest"],
            }
        )
        for metric in END_TO_END:
            entry_a = workload_a["end_to_end"].get(metric.name)
            entry_b = workload_b["end_to_end"].get(metric.name)
            if not entry_a or not entry_b:
                continue
            worse_by = _worse_by(metric.better, entry_a["value"], entry_b["value"])
            resolution = max(_spread(entry_a), _spread(entry_b))
            if metric.better == "lower":
                b_always_better = max(entry_b["reps"]) < min(entry_a["reps"])
            else:
                b_always_better = min(entry_b["reps"]) > max(entry_a["reps"])
            if metric.bound is None:
                verdict = "no bound"
            elif resolution > metric.bound and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "WORSE"
            else:
                verdict = "within"
            row = {
                "workload": name,
                "metric": metric.name,
                "unit": metric.unit,
                "worse_by": worse_by,
                "bound": metric.bound,
                "resolution": resolution,
                "verdict": verdict,
            }
            for side, entry in (("a", entry_a), ("b", entry_b)):
                for key in ("median", "q1", "q3"):
                    row[f"{side}_{key}"] = entry[key]
            rows.append(row)
    return rows


def print_comparison(rows: List[Dict[str, Any]]) -> None:
    current = None
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            print(f"\n== {current}")
        if row["metric"] == "digest":
            print(f"  digest {row['verdict']}: {row['a']} / {row['b']}")
            continue
        bound = "none" if row["bound"] is None else f"{100 * row['bound']:.0f}%"
        print(
            f"  {row['metric']:18s}"
            f" A {row['a_median']:.6g} (quartiles {row['a_q1']:.6g} {row['a_q3']:.6g})"
            f"  B {row['b_median']:.6g} (quartiles {row['b_q1']:.6g} {row['b_q3']:.6g})"
            f" {row['unit']}"
            f"  B worse by {100 * row['worse_by']:+.1f}% of A,"
            f" bound {bound}, quartiles {100 * row['resolution']:.1f}% apart"
            f"  {row['verdict']}"
        )


def main(path_a: Path, path_b: Path) -> int:
    """0 when every metric is within its bound and every digest identical."""
    rows = compare(
        json.loads(path_a.read_text(encoding="utf-8")),
        json.loads(path_b.read_text(encoding="utf-8")),
    )
    print_comparison(rows)
    bad = [r for r in rows if r["verdict"] in ("WORSE", "DIFFERENT", "unresolved")]
    return 1 if bad else 0
