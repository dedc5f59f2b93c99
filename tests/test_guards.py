"""Structural rules behind CI's ``git grep`` bans, checked on the
syntax tree.

Each test reads source files with :mod:`ast` alone (nothing under test
is imported) and states the rule its grep approximates.  A grep sees
comments, docstrings and test names too; these tests see the names the
code uses or binds and, where a name could be looked up by a string,
the string constants — never a comment.  Where a test is at least as
strict as its grep on code, the CI step runs the test instead.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@functools.lru_cache(maxsize=1)
def parse(path):
    """A module's syntax tree; the helpers below ask for the same file
    one after another, so the last one is kept."""
    return ast.parse(path.read_text(), str(path))


def identifiers(path):
    """Every name a module's code uses or binds: names, attributes,
    imported modules and names, definitions, parameters and keywords —
    not its comments or strings."""
    for node in ast.walk(parse(path)):
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


def strings(path):
    """Every string constant of a module, docstrings included: what
    ``getattr`` or ``eval`` could turn back into a name."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def imported_modules(path):
    """Every module a module's code imports, or imports names from."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


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


#: Where a scalar backend may be built: the backends themselves, and
#: the figures, which time the scalar reference on purpose.
SCALAR_BUILDERS = ("field", "experiments")


def test_provers_reach_the_scalar_mirror_only_through_small_tables():
    """A proof moves its tables to Python ints at ``SMALL_TABLE`` entries
    by one helper in ``field/vectorized.py``, never by a backend built
    in a prover, the service, GKR or the sharded workers.  No module
    outside ``field/`` and ``experiments/`` names ``ScalarBackend`` —
    called, imported, aliased or looked up by a string."""
    found = [
        str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in SCALAR_BUILDERS
        and ("ScalarBackend" in set(identifiers(path)) or any(
            text == "ScalarBackend" or "ScalarBackend(" in text
            for text in strings(path)))
    ]
    assert not found


def test_a_verifier_copy_is_never_snapshotted():
    """One conversation per copy: a query retried after its open was
    acknowledged takes the next copy of its pool, never a restored one
    whose secret point a prover may have seen.  ``service/client.py``
    imports nothing from ``copy``, and no name or string of it holds
    ``deepcopy`` or ``on_retry``."""
    path = SRC / "service" / "client.py"
    found = sorted(
        {module for module in imported_modules(path)
         if module.split(".")[0] == "copy"}
        | {banned for word in (*identifiers(path), *strings(path))
           for banned in ("deepcopy", "on_retry") if banned in word})
    assert not found


#: The deleted (k + 1)-row line stack of the Fk prover and its helper.
LINE_STACK = ("pair_line_stack", "rows_pow_sums")


def test_the_line_stack_fk_path_stays_deleted():
    """Round messages come from pair moments at every table size
    (``moment_round_sums`` in ``field/vectorized.py``): no fallback to
    the (k + 1)-row stack the service could be made to allocate.  No
    definition, name, attribute or string of ``src/`` or of ``tests/``
    — this file aside, which must spell the names — is, or holds, one
    of them."""
    tests = Path(__file__).resolve().parent
    found = [
        (str(path), word)
        for path in sorted([*SRC.parent.rglob("*.py"), *tests.rglob("*.py")])
        if path != Path(__file__).resolve()
        for word in (*identifiers(path), *strings(path))
        if any(name in word for name in LINE_STACK)
    ]
    assert not found
