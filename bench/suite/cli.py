"""Command line of the benchmark suite.

Three ways in:

* ``--workload W --seconds S [--trace 0|1]`` — the contract's run: fill
  ``S`` seconds with repetitions of one workload (at least three) and
  print the result object as the last line;
* no ``--seconds`` — the full suite: every workload (or ``--workload W``),
  ``--reps`` repetitions each plus one traced one, every metric printed;
* ``--compare A.json B.json`` — two result files, metric by metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from bench.suite import compare, driver, registry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.suite", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in registry.WORKLOADS],
                        help="repeatable in a suite run (default: all)")
    parser.add_argument("--seed", type=int, default=registry.DEFAULT_SEED,
                        help="derives simulation seed N and chaos seed N+108 "
                        "(default 7: the committed baselines)")
    parser.add_argument("--seconds", type=float,
                        help="contract run: seconds of run() time to fill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract run: 1 reports the per-layer metrics")
    parser.add_argument("--reps", type=int, default=registry.SUITE_REPS,
                        help="suite run: repetitions per workload (min 3)")
    parser.add_argument("--out", type=Path,
                        help="keep results, summary and spans here (default: "
                        "a temporary directory that is removed again)")
    parser.add_argument("--tiny", action="store_true",
                        help="minutes-long horizons (the suite's own tests)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite BENCHMARK.json from the registry")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    if args.update:
        path = driver.ROOT / "BENCHMARK.json"
        path.write_text(
            json.dumps(registry.benchmark_json(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {path}")
        return 0
    if args.reps < registry.MIN_REPS:
        parser.error(f"--reps must be at least {registry.MIN_REPS}: a median needs them")
    if args.seconds is not None and len(args.workload or ()) != 1:
        parser.error("--seconds needs exactly one --workload")

    contract = args.seconds is not None
    session = driver.Session(
        args.out, args.seed, tiny=args.tiny, inside_checkout=contract
    )
    load = session.meta["load_average_at_start"][0]
    if load > session.meta["nproc"]:
        print(
            f"warning: load average {load:.2f} exceeds nproc "
            f"{session.meta['nproc']}; timings will be noisy",
            file=sys.stderr,
        )
    try:
        if contract:
            spec = registry.workload(args.workload[0])
            results = driver.run_contract(
                spec, session, args.seconds, bool(args.trace)
            )
        else:
            specs = [
                w for w in registry.WORKLOADS
                if not args.workload or w.name in args.workload
            ]
            results = driver.run_suite(specs, session, args.reps)
        if args.out is not None:
            for name, content in (
                ("results.json", results), ("summary.json", driver.summary_of(results)),
            ):
                (session.out / name).write_text(
                    json.dumps(content, indent=1) + "\n", encoding="utf-8"
                )
    except driver.ChildFailed as failure:
        print(failure, file=sys.stderr)
        return 1
    finally:
        session.close()

    driver.print_report(results)
    failures = driver.unexpected_failures(results)
    if contract:
        # the contract reads the last line whatever the verdict
        print(driver.contract_line(session, spec.name, bool(args.trace)))
        return 0
    if failures:
        print(f"\nunexpected check failures: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0
