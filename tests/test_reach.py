"""Every module under ``src/repro`` is reached from an entry point.

The import graph is read with :mod:`ast` alone (nothing is imported),
starting from the package itself, the two ``python -m`` entry points,
``bench/*.py`` and ``examples/*.py``.  A module reached only by its own
tests is dead weight for every reader; it goes, or it is named below
with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept although no entry point imports them, with the reason.
ALLOWED = {
    "repro.baselines": "the O(u) oracle the tests compare protocols to",
    "repro.baselines.trivial": "the same oracle's module",
}


def _module(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""  # src/repro imports absolutely
            names |= {base} | {base + "." + a.name for a in node.names}
    # importing a.b.c runs a/__init__ and a/b/__init__ first
    return {".".join(n.split(".")[:k]) for n in names
            for k in range(1, n.count(".") + 2)}


def test_every_module_is_reached_from_an_entry_point():
    modules = {_module(p): p for p in (SRC / "repro").rglob("*.py")}
    entries = [SRC / "repro" / "__init__.py",
               SRC / "repro" / "service" / "__main__.py",
               SRC / "repro" / "experiments" / "__main__.py",
               *sorted((ROOT / "bench").glob("*.py")),
               *sorted((ROOT / "examples").glob("*.py"))]
    todo = list(entries)
    reached = set()
    while todo:
        for found in _imports(todo.pop()) & set(modules) - reached:
            reached.add(found)
            todo.append(modules[found])
    reached |= {_module(p) for p in entries if SRC in p.parents}
    assert sorted(set(modules) - reached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - set(modules)) == []  # no stale entries
