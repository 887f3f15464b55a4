"""Child interpreter: one repetition, one result file.

The driver launches this module fresh for every repetition, so memory
peaks are per repetition, nothing is warm from the one before, and a
crashed repetition takes only itself down.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="empty directory for the run's state and stores")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced repetition writes its spans")
    args = parser.parse_args(argv)

    from bench.suite.registry import workload
    from bench.suite.workloads import run_repetition

    result = run_repetition(
        workload(args.workload), args.seed, bool(args.tiny), bool(args.traced),
        args.scratch,
    )
    spans = result.pop("spans", None)
    if spans is not None and args.spans is not None:
        args.spans.write_text(json.dumps(spans), encoding="utf-8")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
