"""DESIGN.md §3 lists exactly the modules under ``src/repro``.

The package inventory is a code block: a package is a name ending in
``/`` two spaces deeper than its parent, a module a name ending in
``.py``; wrapped descriptions are indented past any entry.  Every
module on disk (bar ``__init__``/``__main__``) must have its row, and
every row its module, so a PR that adds, moves or deletes a module
updates the inventory with it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY = re.compile(r"^( +)([a-z_]+(?:/|\.py))(?:\s|$)")


def _inventory():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 3. Package inventory", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    lines = block.splitlines()[1:]
    assert lines[0] == "src/repro/"
    packages, modules = [], set()
    for line in lines[1:]:
        match = ENTRY.match(line)
        if match is None:
            continue
        depth, name = len(match.group(1)) // 2 - 1, match.group(2)
        if len(match.group(1)) % 2 or depth > len(packages):
            continue  # a wrapped description, not an entry
        packages = packages[:depth]
        if name.endswith("/"):
            packages.append(name.rstrip("/"))
        else:
            modules.add("/".join(packages + [name]))
    return modules


def _on_disk():
    src = ROOT / "src" / "repro"
    return {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }


def test_design_section_3_lists_exactly_the_modules_in_src():
    inventory, on_disk = _inventory(), _on_disk()
    assert sorted(on_disk - inventory) == [], "modules missing from DESIGN §3"
    assert sorted(inventory - on_disk) == [], "DESIGN §3 rows with no module"
