"""Small proof tables finish on Python ints, and nobody can tell.

Once a fold leaves a table-folding prover with at most ``SMALL_TABLE``
entries (:func:`~repro.field.vectorized.small_tables`), the rest of the
proof runs on the scalar mirror.  The contract is the transcript: every
word equals the scalar backend's (and every ``GOLDEN`` hash in
``tests/test_transcript_golden.py`` holds), the NumPy kernels never see
a small folded table (the frequency-based prover's included), and a
reused prover starts its next proof on its own backend again.  A
RANGE-SUM member reads its wide dyadic nodes as one segment per round,
which needs the cover's wide nodes to be one contiguous run — pinned
here as a property of ``dyadic_cover``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel
from repro.core.frequency_based import (
    FrequencyBasedProver,
    FrequencyBasedVerifier,
    default_phi,
    run_frequency_based,
)
from repro.core.k_largest import KLargestProver, k_largest_query
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    _DyadicIndicator,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.reporting import ReportingProver, predecessor_query
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field import vectorized as V
from repro.field.modular import DEFAULT_FIELD as F
from repro.lde.canonical import dyadic_cover

needs_numpy = pytest.mark.skipif(not V.HAVE_NUMPY, reason="needs numpy")

#: u = 2^1 … 2^10: tables that start below, at and above SMALL_TABLE.
LOG_UNIVERSES = range(1, 11)


def _updates(u, seed, n=None):
    rng = random.Random(seed)
    return [(rng.randrange(u), rng.randint(-3, 9)) for _ in range(n or 2 * u)]


def _words(channel):
    return [(m.sender, m.round_index, m.label, m.payload)
            for m in channel.transcript.messages]


def _families(u):
    wide = batch_range_sum(1, u - 1) if u > 1 else batch_range_sum(0, 0)
    narrow = batch_range_sum(u // 3, u // 3 + u // 4)
    return {
        "f2": [batch_f2()],
        "fk3": [batch_fk(3)],
        "inner-product": [batch_inner_product()],
        "range-sum": [wide, narrow],
        "f2+ip": [batch_f2(), batch_inner_product()],
        "fk+ip": [batch_fk(2), batch_fk(5), batch_inner_product()],
        "range+ip": [narrow, batch_inner_product(), wide],
    }


def engine_proof(backend_name, u, queries, engine=None):
    updates_a, updates_b = _updates(u, u), _updates(u, u + 1, n=u)
    if engine is None:
        engine = BatchedSumcheckEngine(
            F, u, backend=V.get_backend(F, backend_name))
        for key, delta in updates_a:
            engine.process(key, delta)
        for key, delta in updates_b:
            engine.process_b(key, delta)
    verifier = BatchedSumcheckVerifier(F, u, rng=random.Random(u))
    for key, delta in updates_a:
        verifier.process_a(key, delta)
    for key, delta in updates_b:
        verifier.process_b(key, delta)
    channel = Channel()
    results = run_batched_sumcheck(engine, verifier, queries, channel)
    assert all(r.accepted for r in results), [r.reason for r in results]
    return _words(channel)


def _loaded(cls, backend_name, u, updates):
    prover = cls(F, u, backend=V.get_backend(F, backend_name))
    for key, delta in updates:
        prover.process(key, delta)
    return prover


def reporting_proof(backend_name, u, kind, prover=None):
    """A range query, a k-largest or a predecessor proof over a strict
    stream, every result accepted."""
    updates = [(key, abs(delta) + 1) for key, delta in _updates(u, u + 2, n=u)]
    verifier = TreeHashVerifier(F, u, rng=random.Random(u + 3))
    verifier.process_stream(updates)
    channel = Channel()
    if kind == "range":
        prover = prover or _loaded(SubVectorProver, backend_name, u, updates)
        result = run_subvector(prover, verifier, u // 4, u - 1, channel)
    elif kind == "k-largest":
        prover = prover or _loaded(KLargestProver, backend_name, u, updates)
        result = k_largest_query(prover, verifier, 2, channel)
    else:
        prover = prover or _loaded(ReportingProver, backend_name, u, updates)
        result = predecessor_query(prover, verifier, u // 2, channel)
    assert result.accepted, result.reason
    return _words(channel)


def frequency_based_proof(backend_name, u):
    """An F0 proof over a strict stream in which key 0 is heavy from
    u = 2^5 on."""
    updates = [(key, abs(delta) + 1) for key, delta in _updates(u, u + 4, n=u)]
    updates.append((0, u))
    phi = default_phi(u)
    prover = FrequencyBasedProver(F, u, phi,
                                  backend=V.get_backend(F, backend_name))
    verifier = FrequencyBasedVerifier(F, u, phi, rng=random.Random(u + 5))
    for key, delta in updates:
        prover.process(key, delta)
        verifier.process(key, delta)
    channel = Channel()
    result = run_frequency_based(prover, verifier,
                                 lambda x: 0 if x == 0 else 1, channel)
    assert result.accepted, result.reason
    return _words(channel)


@needs_numpy
@pytest.mark.parametrize("family", sorted(_families(4)))
def test_engine_transcripts_equal_the_scalar_backend(family):
    for log_u in LOG_UNIVERSES:
        u = 1 << log_u
        queries = _families(u)[family]
        assert (engine_proof("vectorized", u, queries)
                == engine_proof("scalar", u, queries)), u


@needs_numpy
@pytest.mark.parametrize("kind", ["range", "k-largest", "predecessor"])
def test_reporting_transcripts_equal_the_scalar_backend(kind):
    for log_u in LOG_UNIVERSES:
        u = 1 << log_u
        assert (reporting_proof("vectorized", u, kind)
                == reporting_proof("scalar", u, kind)), u


@pytest.fixture
def kernel_sizes(monkeypatch):
    """Every table length the NumPy prover kernels are handed."""
    seen = Counter()

    def counted(kernel, position):
        def wrapper(*args, **kwargs):
            seen[len(args[position])] += 1
            return kernel(*args, **kwargs)
        return wrapper

    # The table's position in each kernel's arguments.
    for name, position in (("_fold_pairs_m61", 1), ("_pair_moments_m61", 1),
                           ("_f2_sums_m61", 2), ("_tile_limbs", 1)):
        monkeypatch.setattr(V, name, counted(getattr(V, name), position))
    monkeypatch.setattr(V.VectorizedField, "pair_prefix_sums", counted(
        V.VectorizedField.pair_prefix_sums, 1))
    return seen


@needs_numpy
def test_numpy_kernels_never_see_a_small_folded_table(kernel_sizes):
    for log_u in LOG_UNIVERSES:
        u = 1 << log_u
        kernel_sizes.clear()
        for queries in _families(u).values():
            engine_proof("vectorized", u, queries)
        for kind in ("range", "k-largest", "predecessor"):
            reporting_proof("vectorized", u, kind)
        # Every table above the threshold reaches NumPy, and of those at
        # or below it only the one a proof starts from — the shared
        # canonical table, which is never copied.
        assert set(kernel_sizes) == {
            u >> j for j in range(log_u)
            if u >> j > V.SMALL_TABLE or j == 0}, u


@needs_numpy
def test_frequency_based_proofs_finish_on_the_scalar_mirror(kernel_sizes):
    """The h̃ ∘ f̃_a sum-check folds through ``small_tables`` too: its
    words are the scalar backend's and no NumPy kernel sees a small
    folded table."""
    for log_u in range(1, 9):  # τ grows as √u: 2^8 is past SMALL_TABLE
        u = 1 << log_u
        kernel_sizes.clear()
        words = frequency_based_proof("vectorized", u)
        assert set(kernel_sizes) == {
            u >> j for j in range(log_u)
            if u >> j > V.SMALL_TABLE or j == 0}, u
        assert words == frequency_based_proof("scalar", u), u


@needs_numpy
def test_a_scalar_frequency_based_proof_calls_no_numpy_kernel(kernel_sizes):
    """Its heavy-hitters phase runs on the prover's backend too."""
    for log_u in range(1, 9):
        kernel_sizes.clear()
        frequency_based_proof("scalar", 1 << log_u)
        assert not kernel_sizes, 1 << log_u


@needs_numpy
def test_a_reused_prover_starts_on_its_own_backend_again(kernel_sizes):
    u = 1 << 10
    queries = _families(u)["range+ip"]
    engine = BatchedSumcheckEngine(F, u, backend=V.get_backend(F, "vectorized"))
    for key, delta in _updates(u, u):
        engine.process(key, delta)
    for key, delta in _updates(u, u + 1, n=u):
        engine.process_b(key, delta)
    first = engine_proof(None, u, queries, engine=engine)
    assert engine.backend.vectorized
    calls = sum(kernel_sizes.values())
    assert engine_proof(None, u, queries, engine=engine) == first \
        == engine_proof("vectorized", u, queries)
    assert sum(kernel_sizes.values()) == 3 * calls  # NumPy again each time
    assert engine.backend.vectorized

    updates = [(key, abs(delta) + 1) for key, delta in _updates(u, u + 2, n=u)]
    prover = _loaded(SubVectorProver, "vectorized", u, updates)
    kernel_sizes.clear()
    first = reporting_proof(None, u, "range", prover=prover)
    assert prover.backend.vectorized
    calls = sum(kernel_sizes.values())
    assert reporting_proof(None, u, "range", prover=prover) == first \
        == reporting_proof("vectorized", u, "range")
    assert sum(kernel_sizes.values()) == 3 * calls
    assert prover.backend.vectorized


def _range_messages(backend_name, u, members, seed=3):
    """Every round's messages of one engine batch of range members."""
    engine = BatchedSumcheckEngine(F, u, backend=V.get_backend(F, backend_name))
    for key, delta in _updates(u, u):
        engine.process(key, delta)
    engine.receive_batch([batch_range_sum(*r) for r in members])
    rng = random.Random(seed)
    rounds = []
    for j in range(engine.d):
        rounds.append(engine.round_messages())
        if j < engine.d - 1:
            engine.receive_challenge(rng.randrange(F.p))
    return rounds


@pytest.mark.parametrize(
    "backend_name", ["scalar"] + (["vectorized"] if V.HAVE_NUMPY else []))
def test_runs_past_the_tables_entries_share_one_prefix_pass(
        backend_name, monkeypatch):
    """Wide runs that together cover more pairs than the table has
    entries are lookups in one prefix pass a round; up to that each is
    read directly.  Either way a member's messages are its own alone."""
    passes = Counter()
    for cls in (V.ScalarBackend, V.VectorizedField):
        def counted(self, table, _kernel=cls.pair_prefix_sums):
            passes[len(table)] += 1
            return _kernel(self, table)
        monkeypatch.setattr(cls, "pair_prefix_sums", counted)
    u = 1 << 10
    two = [(1, u - 2), (2, u - 3)]  # just under 2 × the pairs
    three = two + [(3, u - 4)]
    for members, round0_pass in ((two, False), (three, True)):
        passes.clear()
        rounds = _range_messages(backend_name, u, members)
        assert (passes[u] == 1) == round0_pass, passes
        alone = [_range_messages(backend_name, u, [r]) for r in members]
        assert rounds == [[m[0] for m in round_] for round_ in zip(*alone)]


@given(st.integers(1, 10).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(0, (1 << d) - 1), st.integers(0, (1 << d) - 1))))
def test_wide_dyadic_nodes_form_one_contiguous_run(case):
    d, x, y = case
    lo, hi = min(x, y), max(x, y)
    cover = dyadic_cover(lo, hi)
    member = _DyadicIndicator(lo, hi)
    for j in range(d):
        wide = [t for t, (level, _) in enumerate(cover) if level > j]
        if not wide:
            assert member.wide_run(j) is None
            continue
        assert wide == list(range(wide[0], wide[-1] + 1))
        # In round j's pair indices each wide block starts where the
        # previous one ended, so the run the prover sums is their union.
        blocks = [(index << (level - j - 1), (index + 1) << (level - j - 1))
                  for level, index in (cover[t] for t in wide)]
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert start == end
        assert member.wide_run(j) == (blocks[0][0], blocks[-1][1])
