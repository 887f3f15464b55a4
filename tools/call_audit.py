"""List the functions under ``src/repro`` that no CLI invocation calls.

Runs a fixed set of ``autoglobe`` invocations (every ``run`` mode and
every other subcommand, all with ``--hours`` <= 6) with the call-profile
hook in ``tools/call_audit/sitecustomize.py`` loaded in each process,
agent children included.  Each recorded ``(file, first line)`` is mapped
to a qualified name (``Class.method``, ``outer.<locals>.inner``) with
``ast``, so the list is keyed ``path:qualname`` and does not change when
lines only move.

    python tools/call_audit.py            # exit 1 if a never-called function is new
    python tools/call_audit.py --update   # rewrite the baseline (union of two runs)

The baseline is ``tools/never_called.txt``.  Stdlib only.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
HOOK = Path(__file__).resolve().parent / "call_audit" / "sitecustomize.py"
BASELINE = Path(__file__).resolve().parent / "never_called.txt"
INVOCATION_TIMEOUT_S = 600

# (arguments, expected exit code); paths are relative to the work directory.
CHAOS = ["run", "--scenario", "full-mobility", "--users", "1.15", "--chaos"]
INVOCATIONS: List[Tuple[List[str], int]] = [
    (["run", "--hours", "2", "--actions", "--explain"], 0),
    (CHAOS + ["--hours", "3", "--state-dir", "st", "--export", "out", "--verify"], 0),
    # The live sanitizer of a resumed run sees only the resumed minutes, so
    # it finds the whole run's summary unaccounted for (AG305, exit 2).
    (CHAOS + ["--hours", "3", "--state-dir", "st", "--export", "out", "--verify",
              "--resume"], 2),
    (CHAOS + ["--hours", "3", "--state-dir", "killed", "--kill-at", "800"], -9),
    (CHAOS + ["--hours", "3", "--state-dir", "killed", "--resume"], 0),
    (CHAOS + ["--hours", "6", "--chaos-controller", "--standby"], 0),
    (CHAOS + ["--hours", "2", "--no-controller"], 0),
    (CHAOS + ["--hours", "2", "--domains", "4", "--verify"], 0),
    (["run", "--scenario", "static", "--hours", "2"], 0),
    (["run", "--scenario", "constrained-mobility", "--hours", "2"], 0),
    (["run", "--multiproc", "--domains", "2", "--hours", "2", "--state-dir", "mp-chaos",
      "--export", "mp-chaos-out", "--net-chaos"], 0),
    (["run", "--multiproc", "--domains", "2", "--hours", "2", "--state-dir", "mp-kill",
      "--export", "mp-kill-out", "--kill-agent", "domain-1:780"], 0),
    (["console", "--hours", "1"], 0),
    (["landscape", "--design"], 0),
    (["rebalance", "--apply"], 0),
    (["profiles"], 0),
    (["lint", str(PACKAGE / "config" / "data" / "sap-medium.xml")], 0),
    (["lint", "--format", "json"], 0),
    (["capacity", "--scenario", "static", "--hours", "1"], 0),
    (["tail", "ops/store.db", "--max-events", "50"], 0),
    (["verify", "ops/store.db"], 0),
    (["verify", "mp-kill/domain-1/state.db", "mp-kill/domain-2/state.db"], 0),
]
# Runs first, in the background, while ``console --connect … --once`` reads it.
SERVED = CHAOS + ["--hours", "1", "--store", "ops/store.db", "--serve", "127.0.0.1:0",
                  "--semi-automatic", "--pace", "0.1"]


def def_lines(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(first line, qualname)`` of every ``def`` in *tree*, in source order.

    The first line is what the def's code object reports as
    ``co_firstlineno``: its first decorator's line when it has one.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[int, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield first, name
                yield from walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def functions() -> Dict[Tuple[str, int], str]:
    """``(absolute path, first line)`` → ``path:qualname`` for every def.

    A qualname repeated in one file (a property's getter and setter)
    gets ``#2``, ``#3`` … in source order.
    """
    table: Dict[Tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        seen: Dict[str, int] = {}
        for line, name in def_lines(ast.parse(path.read_text(), str(path))):
            seen[name] = seen.get(name, 0) + 1
            suffix = f"#{seen[name]}" if seen[name] > 1 else ""
            table[(str(path), line)] = f"{relative}:{name}{suffix}"
    return table


def _cli(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _check(args: Sequence[str], code: int, expected: int, output: str) -> None:
    if code != expected:
        sys.exit(f"call_audit: `autoglobe {' '.join(args)}` exited {code}, "
                 f"expected {expected}:\n{output[-2000:]}")


def called() -> Set[Tuple[str, int]]:
    """Run every invocation under the hook; the ``(path, line)`` pairs called."""
    with tempfile.TemporaryDirectory(prefix="call-audit-") as tmp:
        hook_dir = Path(tmp) / "hook"
        work = Path(tmp) / "work"
        hook_dir.mkdir()
        (work / "ops").mkdir(parents=True)
        shutil.copy(HOOK, hook_dir / "sitecustomize.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])

        def run(args: Sequence[str], expected: int) -> None:
            done = subprocess.run(_cli(args), cwd=work, env=env, capture_output=True,
                                  text=True, timeout=INVOCATION_TIMEOUT_S)
            _check(args, done.returncode, expected, done.stdout + done.stderr)

        served = subprocess.Popen(_cli(SERVED), cwd=work, text=True,
                                  env=dict(env, PYTHONUNBUFFERED="1"),
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        first = served.stdout.readline()
        port = re.search(r"http://127\.0\.0\.1:(\d+)", first)
        if port is None:
            served.kill()
            _check(SERVED, served.wait(), 0, first + served.stdout.read())
        run(["console", "--connect", f"127.0.0.1:{port.group(1)}", "--once"], 0)
        rest = served.communicate(timeout=INVOCATION_TIMEOUT_S)[0]
        _check(SERVED, served.returncode, 0, first + rest)
        for args, expected in INVOCATIONS:
            run(args, expected)

        pairs: Set[Tuple[str, int]] = set()
        for dump in hook_dir.glob("calls-*.txt"):
            for row in dump.read_text().splitlines():
                filename, line = row.split("\t")
                pairs.add((os.path.realpath(filename), int(line)))
        return pairs


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tools/never_called.txt from two runs")
    args = parser.parse_args(argv)
    table = functions()
    calls = called()
    if args.update:
        calls &= called()
    never = {key for place, key in table.items() if place not in calls}
    if args.update:
        BASELINE.write_text("".join(f"{key}\n" for key in sorted(never)))
        print(f"call_audit: wrote {len(never)} of {len(table)} functions to {BASELINE.name}")
        return 0
    baseline = set(BASELINE.read_text().split())
    print(f"call_audit: {len(never)} of {len(table)} functions never called")
    new = sorted(never - baseline)
    for key in new:
        print(f"never called, not in {BASELINE.name}: {key}")
    gone = baseline - never
    if gone:
        print(f"call_audit: {len(gone)} entries of {BASELINE.name} are called or deleted "
              f"now; run `python tools/call_audit.py --update` to shrink it")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
