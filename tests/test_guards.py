"""Structural rules that CI states as ``git grep`` bans, checked on the
syntax tree.

Each test reads source files with :mod:`ast` alone (nothing under test
is imported) and states the rule its CI step approximates.  A grep sees
comments, docstrings and test names too; these tests see only the names
the code uses or binds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def identifiers(path):
    """Every name a module's code uses or binds: names, attributes,
    imported modules and names, definitions, parameters and keywords —
    not its comments or strings."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg


#: The engine, the tree prover, the dataset that keeps their proof start
#: and the router that hands it to them.
COMPACT_CLIENTS = ["core/multiquery.py", "core/subvector.py",
                   "service/registry.py", "service/router.py"]
#: What locating pairs in a table takes, on NumPy or on lists.
PAIR_SEARCHES = ("flatnonzero", "searchsorted", "count_nonzero", "bisect")


def test_provers_reach_the_compact_form_only_through_the_table_helpers():
    """A sparse proof keeps only its touched pairs until the table fills
    in, through ``compact_tables`` / ``compact_entries`` /
    ``frozen_start`` / ``refold_tables`` / ``entry_reader`` /
    ``pair_runs`` in ``field/vectorized.py``.  Whether its tables start
    from a dense table, a key ``Counter`` or a dataset's kept start,
    none of these files locates pairs itself: no name they use or bind
    is, or contains, a pair search."""
    found = [(name, identifier) for name in COMPACT_CLIENTS
             for identifier in identifiers(SRC / name)
             if any(word in identifier for word in PAIR_SEARCHES)]
    assert not found
