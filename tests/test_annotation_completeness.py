"""Every ``def`` of the type-checked modules is fully annotated.

CI runs mypy over these modules; this stdlib-only ``ast`` walk is the
part of that gate any machine can run without mypy installed: each
parameter (bar a method's ``self``/``cls``) and each return carries an
annotation.  The list is CI's two mypy steps plus the handle modules
of the columnar landscape.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CHECKED = (
    # mypy --strict
    "analysis",
    "telemetry",
    # mypy
    "serviceglobe/landscape_state.py",
    "core/state.py",
    "monitoring/archive.py",
    "ops/store.py",
    "fuzzy/compiled.py",
    # the handles over the landscape's columns
    "serviceglobe/host.py",
    "serviceglobe/service.py",
)


def _modules():
    for name in CHECKED:
        path = SRC / name
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def _unannotated(function, in_class):
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    bound = in_class and positional and positional[0].arg in ("self", "cls")
    names = [
        argument.arg
        for argument in positional[1 if bound else 0:] + arguments.kwonlyargs
        if argument.annotation is None
    ]
    for star, argument in (("*", arguments.vararg), ("**", arguments.kwarg)):
        if argument is not None and argument.annotation is None:
            names.append(star + argument.arg)
    if function.returns is None:
        names.append("return")
    return names


def _walk(node, in_class=False):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, in_class
            yield from _walk(child)
        else:
            yield from _walk(child, True if isinstance(child, ast.ClassDef) else in_class)


def test_the_checked_modules_exist():
    assert all((SRC / name).exists() for name in CHECKED)


def test_every_def_is_fully_annotated():
    missing = [
        f"{path.relative_to(SRC.parent)}:{function.lineno} {function.name}: "
        + ", ".join(names)
        for path in _modules()
        for function, in_class in _walk(ast.parse(path.read_text(encoding="utf-8")))
        if (names := _unannotated(function, in_class))
    ]
    assert missing == []
