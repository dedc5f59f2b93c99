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
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
EXAMPLES = SRC.parent.parent / "examples"


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
    """Every module a module's code imports, or imports names from, and
    each name imported from one, dotted (``from a import b`` gives ``a``
    and ``a.b``: ``b`` may be a submodule)."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (node.module + "." + alias.name
                        for alias in node.names)


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
    is, or contains, a pair search, and no string does — what
    ``getattr(backend, "searchsorted")`` would look up."""
    found = [(name, word) for name in COMPACT_CLIENTS
             for word in (*identifiers(SRC / name), *strings(SRC / name))
             if any(search in word for search in PAIR_SEARCHES)]
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


#: The modules that import NumPy: the backend, and the wire codec's
#: ``frombuffer`` decode of update frames.
NUMPY_MODULES = {"field/vectorized.py", "service/protocol.py"}
#: The only places above the backend seam that ask which backend they
#: hold, as (module, function): int64 update columns exist only under
#: NumPy, and so does the ``frombuffer`` decode.
REPRESENTATION_SITES = {
    ("lde/streaming.py", "prepare_block"),
    ("lde/streaming.py", "prepare_columns"),
    ("service/protocol.py", "parse_updates_columns"),
}
#: The names a backend answers "am I NumPy?" by.
BACKEND_KIND = ("vectorized", "_vec")


def docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def root_name(node):
    """``a`` of an attribute chain ``a.b.c``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def backend_kind_reads(path):
    """The function around every read of a backend's kind: an attribute
    ``vectorized`` (not of a ``repro.`` module path) or ``_vec``, a name
    ``_vec``, or either as a string constant — what ``getattr(backend,
    "vectorized", False)`` reads — docstrings aside."""
    tree = parse(path)
    skip = docstrings(tree)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            if ((isinstance(child, ast.Attribute)
                 and child.attr in BACKEND_KIND
                 and root_name(child) != "repro")
                    or (isinstance(child, ast.Name) and child.id == "_vec")
                    or (isinstance(child, ast.Constant)
                        and child.value in BACKEND_KIND
                        and id(child) not in skip)):
                yield function
            yield from visit(child, inner)

    return set(visit(tree, None))


def test_no_backend_fork_above_the_seam():
    """Both backends run one algorithm per step above
    ``field/vectorized.py``, written over the backend API: a NumPy-only
    "fast path" must not come back.  Across all of ``src/repro`` only
    the backend and the wire codec import ``numpy``, and outside the
    backend a backend's kind is read only at the three representation
    sites, by function."""
    importers, sites = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        if any(module.split(".")[0] == "numpy"
               for module in imported_modules(path)):
            importers.add(name)
        if name != "field/vectorized.py":
            sites |= {(name, function)
                      for function in backend_kind_reads(path)}
    assert importers == NUMPY_MODULES
    assert sites == REPRESENTATION_SITES


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


#: The dictionary provers of the deleted ``core/sparse.py`` and their
#: key-count cut-over to the dense prover.
SPARSE_MODULE = "repro.core.sparse"
SPARSE_NAMES = re.compile(
    r"VECTOR_MIN_KEYS|Sparse(F2|SubVector|InnerProduct)Prover")


def test_one_sparse_representation():
    """The compact layout serves both backends and every u: a sparse
    proof is the engine or ``SubVectorProver`` handed a key ``Counter``.
    The dictionary provers of ``core/sparse.py`` and their cut-over must
    not come back beside it.  No module of ``src/``, ``tests/`` or
    ``examples/`` — this file aside, which must spell the names —
    imports ``repro.core.sparse`` or has a name or string that holds it
    or one of the deleted names."""
    tests = Path(__file__).resolve().parent
    found = [
        (str(path), word)
        for path in sorted([*SRC.parent.rglob("*.py"), *tests.rglob("*.py"),
                            *EXAMPLES.rglob("*.py")])
        if path != Path(__file__).resolve()
        for word in (*identifiers(path), *strings(path),
                     *imported_modules(path))
        if SPARSE_NAMES.search(word) or SPARSE_MODULE in word
    ]
    assert not found


#: The modulus switch of the old multi-modulus NumPy backend.
MODULUS_SWITCH = "_is_m61"


def dtype_forks(path):
    """Every ``.dtype`` read on ``self`` or on a backend (a name or an
    attribute ending in ``backend``), and every ``… .dtype is object``
    or ``is not object`` test, as ``(line, source)``."""
    tree = parse(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "dtype":
            owner = node.value
            name = (owner.id if isinstance(owner, ast.Name) else
                    owner.attr if isinstance(owner, ast.Attribute) else "")
            if name == "self" or name.endswith("backend"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and any(isinstance(side, ast.Attribute)
                            and side.attr == "dtype" for side in sides)
                    and any(isinstance(side, ast.Name)
                            and side.id == "object" for side in sides)):
                yield node.lineno, ast.unparse(node)


def test_the_numpy_backend_has_one_path():
    """``VectorizedField`` is the Mersenne-61 backend: ``get_backend``
    serves every other modulus from ``ScalarBackend``, so no NumPy code
    branches on the modulus or on an array dtype of its own.  No module
    of ``src/`` names ``_is_m61`` (in code or a string), reads ``.dtype``
    off ``self`` or a backend, or tests a ``.dtype`` for being
    ``object``."""
    found = [
        (str(path.relative_to(SRC)), where)
        for path in sorted(SRC.rglob("*.py"))
        for where in (
            *[(word,) for word in (*identifiers(path), *strings(path))
              if MODULUS_SWITCH in word],
            *dtype_forks(path))
    ]
    assert not found


#: The deleted one-query sum-check provers.
ONE_QUERY_PROVERS = {"F2Prover", "FkProver", "InnerProductProver",
                     "RangeSumProver"}
#: The one-query drivers: a batch of one each, which the service never
#: calls (it announces even a lone query to the engine as a batch).
ONE_QUERY_DRIVERS = {"run_f2", "run_fk", "run_inner_product",
                     "run_range_sum"}


def words(path):
    """Every name a module's code uses or binds, and every whole word of
    its strings."""
    yield from identifiers(path)
    for text in strings(path):
        yield from re.findall(r"\w+", text)


def test_the_service_proves_every_sumcheck_on_the_engine():
    """``BatchedSumcheckEngine`` is the only prover of F2, Fk,
    INNER-PRODUCT and RANGE-SUM, and the service drives it directly.  No
    name of ``src/`` or ``examples/`` is, and no string holds as a whole
    word, a deleted one-query prover class; and none of
    ``src/repro/service`` names a one-query driver.  ``f2(workers=w)``
    keeps ``DistributedF2Prover`` and ``run_distributed_f2``, which are
    other words."""
    found = [
        (str(path), word)
        for path in sorted([*SRC.rglob("*.py"), *EXAMPLES.rglob("*.py")])
        for word in words(path)
        if word in ONE_QUERY_PROVERS
        or (word in ONE_QUERY_DRIVERS and SRC / "service" in path.parents)
    ]
    assert not found
