#!/usr/bin/env python3
"""Entry point `BENCHMARK.json` names; works from any directory's checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench.suite.cli import main

    sys.exit(main())
