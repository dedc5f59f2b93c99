"""Sparse early rounds: compact proof tables, and nobody can tell.

While the pairs a proof's tables touch are at most ``COMPACT_SHARE`` of
the pairs, the engine and the tree prover keep only those pairs
(:func:`~repro.field.vectorized.compact_tables`, or
:func:`~repro.field.vectorized.compact_entries` from a key ``Counter``)
and re-pair them after every fold
(:func:`~repro.field.vectorized.refold_tables`) until the table fills
in — on NumPy arrays or, on the scalar backend and past 2^64, on lists.
The contract is the transcript: every round's messages equal the scalar
backend's, the reference prover's (``reference_sumcheck``: the paper's
provers on dense Python-int tables) and those of engines handed the same
streams as ``Counter``s.  The mechanism is pinned too: the NumPy kernels
see O(n·log(u/n) + n) entries for n keys, exactly today's sizes for a
dense table, the cut sits where the constant says, and a reused prover
starts again from the shared canonical table.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_sumcheck import ReferenceProver
from repro.comm.channel import Channel
from repro.core.k_largest import KLargestProver, k_largest_query
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
)
from repro.core.reporting import ReportingProver, predecessor_query
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field import vectorized as V
from repro.field.modular import DEFAULT_FIELD as F
from repro.streams.generators import zipf_stream

pytestmark = pytest.mark.skipif(not V.HAVE_NUMPY, reason="needs numpy")

STREAM_KINDS = ("empty", "first", "last", "handful", "zipf", "every")


def sparse_updates(kind, u, seed):
    """A turnstile stream over ``[0, u)``: inserts, then deletions that
    empty some keys again and lower others."""
    rng = random.Random(seed)
    if kind == "empty":
        keys = []
    elif kind == "first":
        keys = [0]
    elif kind == "last":
        keys = [u - 1]
    elif kind == "handful":
        keys = [rng.randrange(u) for _ in range(rng.randint(2, 6))]
    elif kind == "zipf":
        mass = max(1, u >> rng.choice((7, 4, 1)))
        keys = [key for key, _ in zipf_stream(u, mass, rng=rng).updates()]
    else:
        keys = list(range(u))
    updates = [(key, rng.randint(1, 9)) for key in keys]
    for key, delta in rng.sample(updates, len(updates) // 3):
        updates.append((key, -delta if rng.random() < 0.5 else -1))
    return updates


def universes():
    """u <= 2^16, powers of two and not."""
    return st.integers(1, 16).flatmap(lambda log_u: st.sampled_from(
        sorted({1 << log_u, max(1, (1 << log_u) - 3),
                (1 << (log_u - 1)) + 1})))


def members(u):
    def member(choice):
        kind, x, y = choice
        lo, hi = sorted((x % u, y % u))
        return {"f2": batch_f2(), "fk": batch_fk(3),
                "ip": batch_inner_product(),
                "range": batch_range_sum(lo, hi)}[kind]
    return st.lists(st.tuples(
        st.sampled_from(("f2", "fk", "ip", "range")),
        st.integers(0, u - 1), st.integers(0, u - 1)).map(member),
        min_size=1, max_size=6)


def _engine(backend_name, u, updates_a, updates_b, freq_a=None):
    engine = BatchedSumcheckEngine(F, u, backend=V.get_backend(F, backend_name),
                                   freq_a=freq_a)
    for key, delta in updates_a:
        engine.process(key, delta)
    for key, delta in updates_b:
        engine.process_b(key, delta)
    return engine


def _sparse(u, updates_a, updates_b):
    """Engines on both backends handed the streams as ``Counter``s: every
    member of a batch starts from the keys' compact layout."""
    return [_engine(name, u, updates_a, updates_b, freq_a=Counter())
            for name in ("vectorized", "scalar")]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_engine_rounds_equal_the_dense_and_sparse_references(data):
    u = data.draw(universes())
    kind_a = data.draw(st.sampled_from(STREAM_KINDS))
    kind_b = data.draw(st.sampled_from(STREAM_KINDS))
    seed = data.draw(st.integers(0, 1 << 16))
    queries = data.draw(members(u))
    _check_engine_rounds(u, kind_a, kind_b, seed, queries)


def _check_engine_rounds(u, kind_a, kind_b, seed, queries):
    updates_a = sparse_updates(kind_a, u, seed)
    updates_b = sparse_updates(kind_b, u, seed + 1)
    engines = [_engine(name, u, updates_a, updates_b)
               for name in ("vectorized", "scalar")]
    reference = ReferenceProver(F, u, updates_a, updates_b)
    sparse = _sparse(u, updates_a, updates_b)
    for party in engines + [reference] + sparse:
        party.receive_batch(queries)
    rng = random.Random(seed)
    for j in range(engines[0].d):
        messages = [engine.round_messages() for engine in engines]
        assert messages[0] == messages[1], (j, u, kind_a)
        assert reference.round_messages() == messages[0], (j, u, kind_a)
        for engine in sparse:
            assert engine.round_messages() == messages[0], \
                (j, u, kind_a, engine.backend.name)
        if j < engines[0].d - 1:
            r = rng.randrange(F.p)
            for party in engines + [reference] + sparse:
                party.receive_challenge(r)


@pytest.mark.parametrize("kind_a,kind_b", [
    ("zipf", "handful"), ("empty", "last"), ("first", "every"),
    ("handful", "zipf")])
def test_a_sparse_universe_of_two_to_the_sixteen(kind_a, kind_b):
    """Compact rounds, the hand-over and the dense tail in one proof."""
    u = 1 << 16
    _check_engine_rounds(u, kind_a, kind_b, 7, [
        batch_f2(), batch_fk(3), batch_inner_product(),
        batch_range_sum(3, 3), batch_range_sum(100, 40_000),
        batch_range_sum(0, u - 1)])


def _words(channel):
    return [(m.sender, m.round_index, m.label, m.payload)
            for m in channel.transcript.messages]


def tree_proof(backend_name, u, updates, kind, key):
    """A point lookup, a range scan, a k-largest or a predecessor proof,
    accepted, as transcript words."""
    verifier = TreeHashVerifier(F, u, rng=random.Random(u))
    verifier.process_stream(updates)
    cls = {"k-largest": KLargestProver,
           "predecessor": ReportingProver}.get(kind, SubVectorProver)
    prover = cls(F, u, backend=V.get_backend(F, backend_name))
    prover.process_stream(updates)
    channel = Channel()
    if kind == "lookup":
        result = run_subvector(prover, verifier, key, key, channel)
    elif kind == "scan":
        result = run_subvector(prover, verifier, key // 2, key, channel)
    elif kind == "k-largest":
        result = k_largest_query(prover, verifier, 2, channel)
    else:
        result = predecessor_query(prover, verifier, key, channel)
    assert result.accepted, result.reason
    return _words(channel)


@settings(max_examples=30, deadline=None)
@given(universes(), st.sampled_from(STREAM_KINDS),
       st.sampled_from(("lookup", "scan", "k-largest", "predecessor")),
       st.integers(0, 1 << 16))
def test_tree_proofs_equal_the_scalar_backend(u, stream_kind, kind, seed):
    # k-largest and predecessor speak of present keys: a strict stream.
    updates = [(key, abs(delta)) for key, delta
               in sparse_updates(stream_kind, u, seed)]
    key = random.Random(seed).randrange(u)
    assert (tree_proof("vectorized", u, updates, kind, key)
            == tree_proof("scalar", u, updates, kind, key))


# -- the mechanism -------------------------------------------------------------


@pytest.fixture
def kernel_entries(monkeypatch):
    """Every table length the Mersenne-61 fold and moment kernels are
    handed, counted."""
    seen = Counter()

    def counted(kernel, position):
        def wrapper(*args, **kwargs):
            seen[len(args[position])] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name, position in (("_fold_pairs_m61", 1), ("_pair_moments_m61", 1),
                           ("_f2_sums_m61", 2)):
        monkeypatch.setattr(V, name, counted(getattr(V, name), position))
    return seen


def _keys_proof(n, u, kind):
    """An F2 or Fk(3) engine proof, or a lookup, over n distinct keys
    spread evenly over ``[0, u)``."""
    updates = [(t * (u // n), 1 + t % 7) for t in range(n)]
    if kind == "lookup":
        tree_proof("vectorized", u, updates, "lookup", updates[0][0])
        return
    engine = _engine("vectorized", u, updates, [])
    engine.receive_batch([batch_f2() if kind == "f2" else batch_fk(3)])
    rng = random.Random(n)
    for j in range(engine.d):
        engine.round_messages()
        if j < engine.d - 1:
            engine.receive_challenge(rng.randrange(F.p))


@pytest.mark.parametrize("kind", ["f2", "fk3", "lookup"])
@pytest.mark.parametrize("n", [1, 3, 40, 500, 4096])
def test_kernels_see_n_log_u_over_n_entries(kernel_entries, kind, n):
    u = 1 << 16
    _keys_proof(n, u, kind)
    seen = sum(length * calls for length, calls in kernel_entries.items())
    # Per round at most 2n entries while compact, through one moment
    # pass and one fold; once dense, a geometric tail from at most
    # 2·n/COMPACT_SHARE entries.
    bound = 4 * n * (u // n).bit_length() + 8 * n / V.COMPACT_SHARE
    assert seen <= bound, (seen, bound)


@pytest.mark.parametrize("kind", ["f2", "lookup"])
def test_a_dense_table_reaches_the_kernels_at_todays_sizes(
        kernel_entries, kind):
    u = 1 << 12
    _keys_proof(u, u, kind)  # every key
    log_u = u.bit_length() - 1
    dense = {u >> j for j in range(log_u) if u >> j > V.SMALL_TABLE or j == 0}
    assert set(kernel_entries) == dense


def _table_touching(pairs, touched):
    """A table whose first ``touched`` pairs at an even spacing hold one
    nonzero entry each, in alternating halves."""
    table = V.get_backend(F, "vectorized").zeros(2 * pairs)
    for t in range(touched):
        table[2 * t * (pairs // touched) + t % 2] = 5
    return table


#: The measured cut (README, *Sparse early rounds*), pinned here so that
#: moving ``COMPACT_SHARE`` either way fails the two tests below.
CUT = (3, 8)


def test_a_proof_starts_compact_up_to_the_cut_and_no_further():
    backend = V.get_backend(F, "vectorized")
    pairs = 1 << 15
    limit = CUT[0] * pairs // CUT[1]
    at_cut = _table_touching(pairs, limit)
    layout, be, compact = V.compact_tables(backend, F, at_cut)
    assert len(layout.ids) == limit and layout.pairs == pairs
    assert len(compact) == 2 * limit and be is backend
    past = _table_touching(pairs, limit + 1)
    layout, be, dense = V.compact_tables(backend, F, past)
    assert layout is None and dense is past and be is backend
    # Two tables go compact on the union of their touched pairs: a's on
    # even pair ids, b's on odd ones, and one pair both touch.
    for union, compact in ((limit, True), (limit + 1, False)):
        a = backend.zeros(2 * pairs)
        b = backend.zeros(2 * pairs)
        a[0 : 2 * union : 4] = 1
        b[2 : 2 * union : 4] = 2
        b[0] = 3
        layout, _be, a_compact, b_compact = V.compact_tables(backend, F, a, b)
        if compact:
            assert layout.ids.tolist() == list(range(union))
            assert a_compact.tolist() == [1, 0, 0, 0] * (union // 2)
            assert b_compact.tolist() == [3, 0, 2, 0] + [0, 0, 2, 0] * (
                union // 2 - 1)
        else:
            assert layout is None and a_compact is a and b_compact is b
    # On lists a dense table starts compact only up to half the cut: the
    # pass over it costs about one dense fold.
    scalar = V.ScalarBackend(F)
    half = CUT[0] * pairs // (2 * CUT[1])
    for touched, compact in ((half, True), (half + 1, False)):
        table = _table_touching(pairs, touched).tolist()
        layout, be, out = V.compact_tables(scalar, F, table)
        assert be is scalar
        if compact:
            assert len(layout.ids) == half and layout.pairs == pairs
            assert out == [v for t in layout.ids for v in table[2 * t : 2 * t + 2]]
            assert all(out[2 * k] or out[2 * k + 1] for k in range(half))
        else:
            assert layout is None and out is table


def test_a_fold_hands_over_once_the_touched_pairs_pass_the_cut():
    backend = V.get_backend(F, "vectorized")
    pairs = 1 << 15
    limit = CUT[0] * (pairs // 2) // CUT[1]
    for touched, compact in ((limit, True), (limit + 1, False)):
        # 2·touched pairs that merge two by two into `touched` pairs.
        ids = backend.index_array(sorted(
            4 * t + half for t in range(touched) for half in (0, 1)))
        folded = backend.asarray([7] * len(ids))
        layout, be, table = V.refold_tables(
            backend, F, V.CompactPairs(ids, pairs), folded)
        dense = backend.zeros(pairs)
        dense[ids] = 7
        if compact:
            assert layout.pairs == pairs // 2
            assert layout.ids.tolist() == [2 * t for t in range(touched)]
            assert table.tolist() == [7] * (2 * touched)
        else:
            assert layout is None and be is backend
            assert table.tolist() == dense.tolist()


def test_compact_reads_return_zero_for_an_absent_pair():
    """The same reads from a NumPy layout and a scalar one (a list of
    pair ids, searched by bisection)."""
    numpy = V.get_backend(F, "vectorized")
    for layout, table in (
            (V.CompactPairs(numpy.index_array([1, 4, 9]), 16),
             numpy.asarray([10, 11, 40, 41, 90, 91])),
            (V.CompactPairs([1, 4, 9], 16), [10, 11, 40, 41, 90, 91])):
        wanted = [8, 9, 1, 18, 19, 31, 2, 3]
        read = V.entry_reader(table, layout, iter(wanted))
        assert [read(i) for i in wanted] == [40, 41, 0, 90, 91, 0, 10, 11]
        assert V.pair_runs(layout, [(0, 16), None, (2, 9), (5, 9)]) == [
            (0, 3), None, (1, 2), (2, 2)]
    for empty, table in ((V.CompactPairs(numpy.index_array([]), 16),
                          numpy.zeros(0)), (V.CompactPairs([], 16), [])):
        read = V.entry_reader(table, empty, [3, 6])
        assert (read(3), read(6)) == (0, 0)


def test_a_key_dictionary_starts_as_its_dense_table_would():
    """``compact_entries`` lays a dictionary out on either backend as
    ``compact_tables`` lays out the dense table under NumPy, on both
    sides of the cut (no dense table is passed over, so lists take the
    whole cut too); keys past 2^63 stay on NumPy, keys past 2^64 and
    tables of at most SMALL_TABLE pairs go on as scalar lists."""
    pairs = 1 << 12
    limit = CUT[0] * pairs // CUT[1]
    numpy = V.get_backend(F, "vectorized")
    for touched, compact in ((limit, True), (limit + 1, False)):
        dense = _table_touching(pairs, touched)
        want_layout, _be, want = V.compact_tables(numpy, F, dense)
        entries = {i: v for i, v in enumerate(dense.tolist()) if v}
        for name in ("vectorized", "scalar"):
            backend = V.get_backend(F, name)
            layout, be, table = V.compact_entries(backend, F, entries,
                                                  size=2 * pairs)
            assert be is backend and list(table) == list(want)
            if compact:
                assert list(layout.ids) == list(want_layout.ids)
                assert layout.pairs == pairs
            else:
                assert layout is None and want_layout is None
    backend = V.get_backend(F, "vectorized")
    top = 1 << 64
    keys = {(1 << 63) + 4 * t: 1 + t for t in range(V.SMALL_TABLE)}
    keys.update({top - 1: 5, 1 << 63: -1, top - 2: 3})
    layout, be, table = V.compact_entries(backend, F, keys, size=top)
    assert be is backend and len(table) == 2 * len(layout.ids)
    assert layout.ids.tolist()[:2] == [1 << 62, (1 << 62) + 2]
    assert layout.ids.tolist()[-1] == (1 << 63) - 1
    assert table.tolist()[:2] == [F.p - 1, 0] and table.tolist()[-2:] == [3, 5]
    read = V.entry_reader(table, layout, [top - 1, top - 3, 1 << 63])
    assert (read(top - 1), read(top - 3), read(1 << 63)) == (5, 0, F.p - 1)
    few = {top - 1: 5, 1 << 63: -1, top - 2: 3}
    for size in (top, top << 6):
        layout, be, table = V.compact_entries(backend, F, few, size=size)
        assert be.name == "scalar"
        assert layout.ids == [1 << 62, (1 << 63) - 1]
        assert table == [F.p - 1, 0, 3, 5]
        read = V.entry_reader(table, layout, ())
        assert (read(top - 1), read(top - 3), read(1 << 63)) == (5, 0, F.p - 1)
    # Two vectors are laid out on the union of their supports.
    layout, be, a, b = V.compact_entries(
        V.ScalarBackend(F), F, {3: 1, 80: 2}, {81: 7, 500: F.p}, size=1024)
    assert layout.ids == [1, 40] and a == [0, 1, 2, 0] and b == [0, 0, 0, 7]


def test_a_reused_prover_starts_again_from_the_shared_table(monkeypatch):
    """Each proof derives its compact form afresh from the one shared
    canonical table, which no proof writes."""
    backend = V.get_backend(F, "vectorized")
    u = 1 << 14
    updates = sparse_updates("handful", u, 3)
    counts = [0] * u
    for key, delta in updates:
        counts[key] += delta
    shared = V.frozen_table(backend, F, counts)
    before = shared.tolist()
    started = []
    for module in ("repro.core.multiquery", "repro.core.subvector"):
        original = V.compact_tables

        def spy(be, field, *tables, _original=original):
            started.append(tables[0])
            out = _original(be, field, *tables)
            assert out[0] is not None  # the proof does start compact
            return out
        monkeypatch.setattr(module + ".compact_tables", spy)

    engine = BatchedSumcheckEngine(F, u, backend=backend, freq_a=shared)
    prover = SubVectorProver(F, u, backend=backend, freq=shared)
    verifier = TreeHashVerifier(F, u, rng=random.Random(1))
    verifier.process_stream(updates)
    runs = []
    for _ in range(2):
        engine.receive_batch([batch_f2(), batch_range_sum(5, u - 9)])
        rounds = []
        for j in range(engine.d):
            rounds.append(engine.round_messages())
            if j < engine.d - 1:
                engine.receive_challenge(12345 + j)
        channel = Channel()
        assert run_subvector(prover, verifier, 0, u // 2, channel).accepted
        runs.append((rounds, _words(channel)))
    assert runs[0] == runs[1]
    assert len(started) == 4 and all(t is shared for t in started)
    assert engine.backend is backend and prover.backend is backend
    assert shared.tolist() == before
