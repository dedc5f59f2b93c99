"""Every module and every public name under ``src/repro`` is reached from
an entry point.

The import graph is read with :mod:`ast` alone (nothing is imported),
starting from the package itself, the three ``python -m`` entry points,
``bench/*.py`` and ``examples/*.py``.  A public top-level function or
class, or a public method of a public class, must then be referenced
(an ``ast.Name`` or ``ast.Attribute`` of the same name) from a reached
file, outside its own definition.  A module or name reached only by its
own tests is dead weight for every reader; it goes, or it is named
below with one of four reasons it stays.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ORACLE = "an oracle the tests compare against"
PAPER = "a construct of the paper with no production caller"
HARNESS = "a test harness or seam"
CALLBACK = "a runtime callback (asyncio calls it)"
REASONS = {ORACLE, PAPER, HARNESS, CALLBACK}

#: Modules kept although no entry point imports them, with the reason.
ALLOWED = {
    "repro.baselines": ORACLE,
    "repro.baselines.trivial": ORACLE,
}

#: Public names no reached file references, with the reason they stay.
#: A module or a class entry covers every name defined inside it.
NAMES_ALLOWED = {
    # O(u) answers and reference evaluations the protocols are held to.
    "repro.baselines": ORACLE,
    "repro.comm.fingerprint.StreamFingerprint": ORACLE,
    "repro.comm.fingerprint.fingerprint_words": ORACLE,
    "repro.comm.transcript.Transcript.messages_from": ORACLE,
    "repro.comm.wire.decode_transcript": ORACLE,
    "repro.comm.wire.encode_transcript": ORACLE,
    "repro.gkr.protocol.wiring_mle_at": ORACLE,
    "repro.gkr.sumcheck.boolean_sum": ORACLE,
    "repro.lde.canonical.cover_is_partition": ORACLE,
    "repro.lde.chi.chi_value": ORACLE,
    "repro.lde.chi.from_digits": ORACLE,
    "repro.lde.streaming.StreamingLDE.direct_evaluate": ORACLE,
    "repro.streams.kvstore.KVStreamEncoder.decode_frequency": ORACLE,
    "repro.streams.kvstore.OutsourcedKVStore.largest_values": ORACLE,
    "repro.streams.kvstore.OutsourcedKVStore.range_value_sum": ORACLE,
    "repro.streams.model.Stream.frequency_moment": ORACLE,
    "repro.streams.model.Stream.from_frequency_vector": ORACLE,
    "repro.streams.model.Stream.inverse_distribution_point": ORACLE,
    "repro.streams.model.Stream.range_entries": ORACLE,
    "repro.streams.model.Stream.successor": ORACLE,
    "repro.streams.model.StreamStats.density": ORACLE,
    # The paper's protocols end to end, and its remarks.
    "repro.core.f2_general.general_f2_protocol": PAPER,
    "repro.core.fk.frequency_moment_protocol": PAPER,
    "repro.core.frequency_based.fmax_protocol": PAPER,
    "repro.core.frequency_based.inverse_distribution_median_protocol": PAPER,
    "repro.core.frequency_based.inverse_distribution_protocol": PAPER,
    "repro.core.k_largest.k_largest_protocol": PAPER,
    "repro.core.multiquery.amplified_protocol": PAPER,
    "repro.core.range_sum.range_count_protocol": PAPER,
    "repro.core.reporting.build_reporting_session": PAPER,
    "repro.core.reporting.counted_range_query": PAPER,
    "repro.core.single_round.single_round_f2_protocol": PAPER,
    "repro.core.subvector.subvector_protocol": PAPER,
    "repro.experiments.figures.ipv6_extrapolation": PAPER,
    "repro.field.primes.field_prime_for": PAPER,
    "repro.gkr.protocol.gkr_protocol": PAPER,
    "repro.lde.chi.monomial_weight": PAPER,
    "repro.service.router.k_largest": PAPER,
    "repro.service.router.successor": PAPER,
    # Fault injection, cheating provers, node managers and test seams.
    "repro.adversary": HARNESS,
    "repro.comm.channel.drop_last_word": HARNESS,
    "repro.comm.channel.replace_payload": HARNESS,
    "repro.gkr.circuits.sum_circuit": HARNESS,
    "repro.obs.exposition.read_stats": HARNESS,
    "repro.obs.metrics.set_registry": HARNESS,
    "repro.service.client.ServiceClient.pool_remaining": HARNESS,
    "repro.service.client.ServiceClient.stats_json": HARNESS,
    "repro.service.cluster.RouterHandle.mark_dead": HARNESS,
    "repro.service.faults.BlackoutSchedule": HARNESS,
    "repro.service.faults.ChaosProxy": HARNESS,
    "repro.service.faults.FaultSchedule.scripted": HARNESS,
    "repro.service.faults.ProxyHandle.retarget": HARNESS,
    "repro.service.faults.SeededSchedule": HARNESS,
    "repro.service.loadgen.run_cluster_load": HARNESS,
    "repro.service.supervisor.NodeSupervisor": HARNESS,
    "repro.service.supervisor.ProcessNodeManager": HARNESS,
    "repro.service.supervisor.ThreadNodeManager": HARNESS,
    "repro.streams.generators.sparse_stream": HARNESS,
    # asyncio.Protocol methods the event loop calls by name.
    "repro.service.transport.FrameLink.connection_lost": CALLBACK,
    "repro.service.transport.FrameLink.data_received": CALLBACK,
    "repro.service.transport.FrameLink.eof_received": CALLBACK,
    "repro.service.transport.FrameLink.pause_writing": CALLBACK,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _imports(path):
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""  # src/repro imports absolutely
            names |= {base} | {base + "." + a.name for a in node.names}
    # importing a.b.c runs a/__init__ and a/b/__init__ first
    return {".".join(n.split(".")[:k]) for n in names
            for k in range(1, n.count(".") + 2)}


def _modules():
    return {_module(p): p for p in (SRC / "repro").rglob("*.py")}


def _reached_files():
    """The entry points and every ``src/repro`` file they import."""
    modules = _modules()
    entries = [SRC / "repro" / "__init__.py",
               SRC / "repro" / "service" / "__main__.py",
               SRC / "repro" / "experiments" / "__main__.py",
               SRC / "repro" / "service" / "wiredoc.py",
               *sorted((ROOT / "bench").glob("*.py")),
               *sorted((ROOT / "examples").glob("*.py"))]
    todo = list(entries)
    reached = set(entries)
    while todo:
        for found in _imports(todo.pop()) & set(modules):
            if modules[found] not in reached:
                reached.add(modules[found])
                todo.append(modules[found])
    return reached


def _public_names():
    """``(path, def node, dotted name)`` of every public top-level
    function or class and every public method of a public class."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module(path)
        for node in _parse(path).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield path, node, module + "." + node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS[:2]) and \
                            not sub.name.startswith("_"):
                        yield path, sub, "%s.%s.%s" % (module, node.name,
                                                       sub.name)


def _references(tree, skip=None):
    """Names and attribute names used in ``tree``, outside ``skip``."""
    out = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _unreferenced():
    """Dotted names of the public definitions no reached file uses; a
    definition's own body does not count for it."""
    reached = _reached_files()
    used = {path: _references(_parse(path)) for path in reached}
    for path, node, dotted in _public_names():
        if any(node.name in names for other, names in used.items()
               if other != path):
            continue
        if path in reached and \
                node.name in _references(_parse(path), skip=node):
            continue
        yield dotted


def _covered(dotted, entry):
    return dotted == entry or dotted.startswith(entry + ".")


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    reached = {_module(p) for p in _reached_files() if SRC in p.parents}
    assert sorted(set(modules) - reached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - set(modules)) == []  # no stale entries
    assert set(ALLOWED.values()) <= REASONS


def test_every_public_name_is_referenced_from_a_reached_file():
    dead = sorted(_unreferenced())
    unlisted = [d for d in dead
                if not any(_covered(d, e) for e in NAMES_ALLOWED)]
    stale = [e for e in NAMES_ALLOWED
             if not any(_covered(d, e) for d in dead)]
    assert unlisted == []
    assert stale == []
    assert set(NAMES_ALLOWED.values()) <= REASONS


def _imported_names(body):
    """``(line, bound name)`` of the module-level imports in ``body``,
    through top-level ``if`` / ``try`` blocks."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    yield node.lineno, name
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _imported_names(block)


def test_no_module_level_import_goes_unused():
    """An import nothing in its file reads is a dependency the reader
    has to rule out.  Names in ``__all__`` and the ``__init__.py``
    re-exports are exempt."""
    unused = []
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = _parse(path)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in node.targets):
                    read |= {ast.literal_eval(e) for e in node.value.elts}
            unused += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                       for line, name in _imported_names(tree.body)
                       if name not in read]
    assert unused == []
