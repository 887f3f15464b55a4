"""The driver: launches repetitions, takes medians, checks, reports.

Repetitions run one after another, each in a fresh child interpreter;
in a full-suite run the workloads take turns (round-robin), so slow
drift of the machine hits all of them alike.

Every metric is reported the same way: each repetition yields one value
(a time scaled to the machine's speed during that repetition, see
:mod:`bench.suite.calibration`; a percentile of the repetition's own
samples), and the reported value is the **median over repetitions**,
with quartiles, min, max and every repetition's value beside it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from bench.suite import registry
from bench.suite.calibration import REFERENCE_SLICE_S
from bench.suite.registry import KNOWN_FAILURES, PER_LAYER, Workload
from bench.suite.stats import summarise

__all__ = ["Session", "machine_info", "contract_line", "summary_of"]

ROOT = Path(__file__).resolve().parents[2]
#: a repetition that takes longer than this is stuck, not slow
CHILD_TIMEOUT_S = 170.0


def machine_info() -> Dict[str, Any]:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = ""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu_model,
        "load_average_at_start": list(os.getloadavg()),
    }


class ChildFailed(RuntimeError):
    """A repetition's interpreter exited non-zero or produced no result."""


class Session:
    """One invocation's output directory, repetitions and results."""

    def __init__(
        self, out: Optional[Path], seed: int, tiny: bool = False,
        inside_checkout: bool = False,
    ) -> None:
        self.seed = seed
        self.tiny = tiny
        self._own_out = out is None
        #: where a contract run, which may not write outside its checkout,
        #: makes its temporary directory
        self._base = ROOT / ".bench_out" if inside_checkout else None
        if out is None:
            if self._base is not None:
                self._base.mkdir(exist_ok=True)
            out = Path(tempfile.mkdtemp(prefix="autoglobe-bench-", dir=self._base))
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.meta = machine_info()
        self.meta["seed"] = seed
        self.meta["reference_slice_s"] = REFERENCE_SLICE_S
        #: workload -> finished repetitions, untraced and traced
        self.reps: Dict[str, List[Dict[str, Any]]] = {}
        self.traced: Dict[str, List[Dict[str, Any]]] = {}
        self._launched = 0

    def close(self) -> None:
        """Drop the output directory if nobody asked to keep it."""
        if self._own_out:
            shutil.rmtree(self.out, ignore_errors=True)
            if self._base is not None:
                try:
                    self._base.rmdir()
                except OSError:
                    pass  # another run's output is still in there

    # -- repetitions --------------------------------------------------------------

    def run_rep(self, spec: Workload, traced: bool = False) -> Dict[str, Any]:
        """Launch one child, wait for it, clean up after it, keep its result."""
        self._launched += 1
        kind = "traced" if traced else "rep"
        label = f"{spec.name}-{kind}{self._launched}"
        scratch = self.out / f"scratch-{label}"
        scratch.mkdir()
        result_path = self.out / f"{label}.json"
        command = [
            sys.executable, "-m", "bench.suite.child",
            "--workload", spec.name,
            "--seed", str(self.seed),
            "--traced", str(int(traced)),
            "--tiny", str(int(self.tiny)),
            "--scratch", str(scratch),
            "--result", str(result_path),
        ]
        if traced:
            command += ["--spans", str(self.out / f"{label}.spans.json")]
        env = dict(os.environ)
        paths = [str(ROOT), str(ROOT / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # its own process group, so a stuck federation's agents go with it
        child = subprocess.Popen(
            command, env=env, cwd=str(ROOT), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            _kill_group(child)
            raise
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if child.returncode != 0 or not result_path.exists():
            raise ChildFailed(
                f"{label} exited with {child.returncode}\n{stdout}{stderr}"
            )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        (self.traced if traced else self.reps).setdefault(spec.name, []).append(result)
        return result

    # -- aggregation --------------------------------------------------------------

    def end_to_end(self, name: str, traced: bool = False) -> Dict[str, Dict[str, Any]]:
        """Every end-to-end metric this workload has: median over repetitions.

        From the untraced repetitions; ``traced`` reads the traced ones
        instead (the contract's ``--trace 1`` line, where the metrics that
        exist on some workloads only are listed per layer).
        """
        reps = (self.traced if traced else self.reps).get(name, [])
        metrics: Dict[str, Dict[str, Any]] = {}
        for metric in registry.home_metrics(name):
            values = [rep["metrics"][metric.name] for rep in reps]
            if not values:
                continue
            entry = summarise(values)
            entry.update(unit=metric.unit, value=entry["median"], reps=values)
            metrics[metric.name] = entry
        return metrics

    def per_layer(self, name: str) -> Dict[str, Dict[str, Any]]:
        """Registry per-layer metrics from the traced repetitions (0 = idle)."""
        traced = self.traced.get(name, [])
        untraced = [rep["metrics"]["run_s"] for rep in self.reps.get(name, [])]
        layers: Dict[str, Dict[str, Any]] = {}
        for metric in PER_LAYER:
            if metric.name == "bench.trace_overhead_pct":
                values = (
                    [
                        100.0 * (rep["metrics"]["run_s"] / summarise(untraced)["median"] - 1.0)
                        for rep in traced
                    ]
                    if untraced
                    else []
                )
            else:
                values = [float(rep["layers"].get(metric.name, 0.0)) for rep in traced]
            if not values:
                continue
            entry = summarise(values)
            entry.update(unit=metric.unit, value=entry["median"], reps=values)
            layers[metric.name] = entry
        return layers

    def checks(self, name: str) -> List[Dict[str, Any]]:
        """Per-workload checks: the children's own plus digest identity."""
        reps = self.reps.get(name, [])
        traced = self.traced.get(name, [])
        merged: Dict[str, Dict[str, Any]] = {}
        for rep in reps + traced:
            for check in rep["checks"]:
                seen = merged.setdefault(check["name"], dict(check))
                if not check["ok"] and seen["ok"]:
                    seen.update(check)
        checks = list(merged.values())
        digests = sorted({rep["digest"] for rep in reps})
        if not registry.workload(name).deterministic:
            return self._flag_known(checks)
        if reps:
            checks.append(
                {
                    "name": "one-digest-across-repetitions",
                    "ok": len(digests) == 1,
                    "detail": f"{len(reps)} repetitions: " + ", ".join(
                        d[:12] for d in digests
                    ),
                }
            )
        if reps and traced:
            traced_digests = sorted({rep["digest"] for rep in traced})
            checks.append(
                {
                    "name": "traced-digest-equals-untraced",
                    "ok": traced_digests == digests,
                    "detail": ", ".join(d[:12] for d in traced_digests),
                }
            )
        return self._flag_known(checks)

    @staticmethod
    def _flag_known(checks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        for check in checks:
            check["known_failure"] = check["name"] in KNOWN_FAILURES
        return checks

    def workload_result(self, name: str) -> Dict[str, Any]:
        untraced = self.reps.get(name, [])
        reps = untraced + self.traced.get(name, [])
        checks = self.checks(name)
        counts: Dict[str, int] = {}
        for rep in reps:
            for key, count in rep["counts"].items():
                counts[key] = counts.get(key, 0) + int(count)
        failed_checks = [c for c in checks if not c["ok"] and not c["known_failure"]]
        digests = sorted({rep["digest"] for rep in reps})
        return {
            "digest": digests[0] if len(digests) == 1 else digests,
            "deterministic": registry.workload(name).deterministic,
            "repetitions": len(untraced),
            "traced_repetitions": len(reps) - len(untraced),
            "end_to_end": self.end_to_end(name),
            "per_layer": self.per_layer(name),
            # what the machine measured before the speed correction
            "raw": {
                key: summarise([rep["raw"][key] for rep in untraced])["median"]
                for key in (untraced[0]["raw"] if untraced else ())
            },
            "checks": checks,
            "counts": counts,
            "ops_attempted": (
                counts.get("ticks", 0) + counts.get("http", 0)
                + counts.get("ws_events", 0) + len(checks)
            ),
            "ops_failed": counts.get("http_failed", 0) + len(failed_checks),
        }

    def results(self) -> Dict[str, Any]:
        names = [w.name for w in registry.WORKLOADS if w.name in self.reps or w.name in self.traced]
        workloads = {name: self.workload_result(name) for name in names}
        cross = []
        if registry.PAPER in workloads and registry.OPS in workloads:
            paper, ops = (workloads[n]["digest"] for n in (registry.PAPER, registry.OPS))
            cross.append(
                {
                    "name": "ops-live-digest-equals-paper-digest",
                    "ok": paper == ops,
                    "detail": "serving is read-only: same seeds, same horizon, "
                    f"{str(ops)[:12]} served and {str(paper)[:12]} not",
                    "known_failure": False,
                }
            )
        return {"meta": self.meta, "workloads": workloads, "checks": cross}


def _kill_group(child: subprocess.Popen) -> None:
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()


# -- reporting ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(results: Dict[str, Any]) -> None:
    """Every metric by name with unit, sample count, median and quartiles."""
    meta = results["meta"]
    print(
        f"# nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}  "
        f"{meta['cpu_model']}  load {meta['load_average_at_start'][0]:.2f}  "
        f"seed {meta['seed']}  times at a reference slice of "
        f"{meta['reference_slice_s'] * 1e3:g} ms"
    )
    for name, workload in results["workloads"].items():
        print(
            f"\n== {name}  ({workload['repetitions']} repetitions, "
            f"{workload['traced_repetitions']} traced)  digest {workload['digest']}",
        )
        raw = workload["raw"]
        if raw:
            print(
                f"  machine: run() took {_fmt(raw['run_wall_s'])} s of wall, "
                f"speed scale {_fmt(raw['scale'])} (median repetition); "
                + " ".join(f"{key} {_fmt(value)}" for key, value in raw.items())
            )
        print("  end-to-end (median over repetitions):")
        for metric, entry in workload["end_to_end"].items():
            print(
                f"    {metric:20s} {_fmt(entry['value']):>10s} {entry['unit']:4s}"
                f" n={entry['n']} q1 {_fmt(entry['q1'])}"
                f" q3 {_fmt(entry['q3'])} min {_fmt(entry['min'])}"
                f" max {_fmt(entry['max'])}"
            )
        if workload["per_layer"]:
            print("  per-layer (traced; 0 = the layer did not run):")
        for metric, entry in workload["per_layer"].items():
            quartiles = (
                f" q1 {_fmt(entry['q1'])} q3 {_fmt(entry['q3'])}" if entry["n"] > 1 else ""
            )
            print(
                f"    {metric:40s} {_fmt(entry['value']):>12s} {entry['unit']:6s}"
                f" n={entry['n']}{quartiles}"
            )
        print(
            f"  ops_attempted {workload['ops_attempted']}  "
            f"ops_failed {workload['ops_failed']}",
        )
        for check in workload["checks"]:
            print(f"  {_verdict(check)} {check['name']}: {check['detail']}")
    for check in results["checks"]:
        print(f"\n{_verdict(check)} {check['name']}: {check['detail']}")


def _verdict(check: Dict[str, Any]) -> str:
    if check["ok"]:
        return "pass" if not check["known_failure"] else "pass (listed as known failure)"
    return "KNOWN FAILURE" if check["known_failure"] else "FAIL"


def unexpected_failures(results: Dict[str, Any]) -> List[str]:
    checks = list(results["checks"])
    for workload in results["workloads"].values():
        checks.extend(workload["checks"])
    return [c["name"] for c in checks if not c["ok"] and not c["known_failure"]]


def contract_line(session: Session, name: str, trace: bool) -> str:
    """The last line the contract's driver reads."""
    workload = session.workload_result(name)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        measured = dict(session.end_to_end(name, traced=True))
        measured.update(workload["per_layer"])
        for metric, unit, _ in registry.contract_per_layer():
            entry = measured.get(metric)
            # a layer that does not run on this workload did no work
            metrics[metric] = {"value": entry["value"] if entry else 0.0, "unit": unit}
    else:
        for metric in registry.contract_end_to_end():
            metrics[metric.name] = {
                "value": workload["end_to_end"][metric.name]["value"],
                "unit": metric.unit,
            }
    return json.dumps(
        {
            # unexpected check failures are counted among the failed operations
            "correct": workload["ops_failed"] == 0,
            "attempted": workload["ops_attempted"],
            "failed": workload["ops_failed"],
            "metrics": metrics,
        }
    )


def summary_of(results: Dict[str, Any]) -> Dict[str, Any]:
    """What ``--compare`` reads: small enough to commit."""
    return {
        "meta": results["meta"],
        "workloads": {
            name: {
                key: workload[key]
                for key in ("digest", "deterministic", "repetitions", "end_to_end", "raw")
            }
            for name, workload in results["workloads"].items()
        },
    }


# -- the two ways to run ----------------------------------------------------------------


def run_contract(
    spec: Workload, session: Session, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Fill ``seconds`` of measured run time with repetitions of one workload.

    Never fewer than ``MIN_REPS`` children.  A traced invocation spends
    the first on an untraced repetition, the base of the tracing overhead.
    """
    measured = 0.0
    launched = 0
    if trace:
        measured += session.run_rep(spec)["raw"]["run_wall_s"]
        launched += 1
    while launched < registry.MIN_REPS or measured < seconds:
        measured += session.run_rep(spec, traced=trace)["raw"]["run_wall_s"]
        launched += 1
    return session.results()


def run_suite(
    specs: Sequence[Workload], session: Session, reps: int
) -> Dict[str, Any]:
    """Every workload: its repetitions round-robin, then one traced one."""
    for index in range(reps):
        for spec in specs:
            started = perf_counter()
            session.run_rep(spec)
            print(
                f"{spec.name} repetition {index + 1}/{reps}: "
                f"{perf_counter() - started:.1f} s",
                file=sys.stderr, flush=True,
            )
    for spec in specs:
        session.run_rep(spec, traced=True)
        print(f"{spec.name} traced repetition done", file=sys.stderr, flush=True)
    return session.results()
