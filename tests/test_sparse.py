"""Sparse proofs: the n·log(u/n) prover bound on a key ``Counter``.

Handed its counts as a ``collections.Counter`` (``freq_a=`` / ``freq=``),
the batched engine and the tree prover start a proof on the compact
layout of its keys (:func:`~repro.field.vectorized.compact_entries`)
instead of a table of the universe, on either backend and for any u.
Messages are identical to the dense provers' (tested), so the same
verifiers accept them.
"""

from __future__ import annotations

import random
import runpy
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier, run_f2
from repro.core.f2_general import GeneralF2Prover
from repro.core.heavy_hitters import HeavyHittersProver
from repro.core.inner_product import InnerProductVerifier, run_inner_product
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    batch_inner_product,
)
from repro.core.single_round import SingleRoundF2Prover
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field import vectorized as V
from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.gkr.circuits import f2_circuit
from repro.gkr.protocol import GKRProver
from repro.streams.generators import sparse_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD
BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=-9, max_value=9)),
    max_size=30,
)


def sparse_engine(u, updates=(), updates_b=(), backend=None):
    """An engine over ``Counter`` vectors, fed."""
    engine = BatchedSumcheckEngine(F, u, backend=backend, freq_a=Counter())
    for i, d in updates:
        engine.process(i, d)
    for i, d in updates_b:
        engine.process_b(i, d)
    return engine


def lockstep(queries, provers, seed):
    """Drive the provers through one batch in lockstep and assert their
    messages are identical every round."""
    for prover in provers:
        prover.receive_batch(queries)
    rng = random.Random(seed)
    d = provers[0].d
    for j in range(d):
        messages = [prover.round_messages() for prover in provers]
        assert all(m == messages[0] for m in messages), j
        if j < d - 1:
            r = F.rand(rng)
            for prover in provers:
                prover.receive_challenge(r)


@given(updates_strategy)
def test_sparse_f2_messages_identical_to_dense(updates):
    """Drop-in equivalence: byte-identical messages at every round."""
    dense = BatchedSumcheckEngine(F, 64)
    for i, d in updates:
        dense.process(i, d)
    lockstep([batch_f2()], [dense, sparse_engine(64, updates)], 1)


@given(updates_strategy)
def test_sparse_f2_accepted_by_standard_verifier(updates):
    stream = Stream(64, updates)
    verifier = F2Verifier(F, 64, rng=random.Random(2))
    verifier.process_stream(stream.updates())
    result = run_f2(sparse_engine(64, stream.updates()), verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_sparse_f2_huge_universe():
    """u = 2^24 with 50 keys: impossible for the dense prover's memory
    profile in a test, trivial for the sparse one."""
    u = 1 << 24
    stream = sparse_stream(u, 50, max_frequency=100, rng=random.Random(3))
    verifier = F2Verifier(F, u, rng=random.Random(4))
    verifier.process_stream(stream.updates())
    result = run_f2(sparse_engine(u, stream.updates()), verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_sparse_f2_cancellation_removes_keys():
    """A key whose count cancels leaves the vector, so the prover's state
    is the live support, not every key seen; one ≡ 0 (mod p) stays
    there but leaves the proof's tables on either backend, however many
    such keys there are: nothing of them is laid out."""
    cancelled = [(k, 1) for k in range(100, 300)] + [
        (k, -1) for k in range(100, 300)]
    tree = sparse_tree_prover(1 << 10, [(3, 5), (3, -5)] + cancelled)
    assert tree.freq == {}
    for backend_name in BACKENDS:
        prover = sparse_engine(1 << 10, [(3, 5), (3, -5), (700, F.p)]
                               + cancelled, cancelled,
                               backend=get_backend(F, backend_name))
        assert prover.freq_a == {700: F.p} and prover.freq_b == {}
        prover.receive_batch([batch_f2()])
        assert list(prover._layout.ids) == []
        assert list(prover._a_table) == []
        assert prover.round_messages() == [[0, 0, 0]]


def test_sparse_f2_universe_check():
    prover = sparse_engine(16)
    with pytest.raises(ValueError):
        prover.process(16, 1)


def test_sparse_f2_requires_begin_proof():
    prover = sparse_engine(8)
    with pytest.raises(RuntimeError):
        prover.round_messages()
    with pytest.raises(RuntimeError):
        prover.receive_challenge(1)


@pytest.mark.parametrize("make,u", [
    pytest.param(lambda: SubVectorProver(F, 60), 60, id="subvector"),
    pytest.param(lambda: HeavyHittersProver(F, 60, 0.1), 60,
                 id="heavy-hitters"),
    pytest.param(lambda: SingleRoundF2Prover(F, 60), 60, id="single-round"),
    pytest.param(lambda: GeneralF2Prover(F, 60, 3), 60, id="general-f2"),
    pytest.param(lambda: GKRProver(F, f2_circuit(64)), 64, id="gkr"),
])
def test_provers_reject_keys_outside_the_universe(make, u):
    """A key outside [0, u) is refused by ``process`` and
    ``process_stream`` alike — not wrapped round to the last entry (-1)
    nor taken into the padding up to the table size (60, 63)."""
    for key in (-1, 60, 63, 64):
        if 0 <= key < u:
            continue
        prover = make()
        with pytest.raises(ValueError, match="outside universe"):
            prover.process(key, 5)
        with pytest.raises(ValueError, match="outside universe"):
            prover.process_stream([(0, 1), (key, 5)])


def sparse_tree_prover(u, updates=(), **kwargs):
    prover = SubVectorProver(F, u, freq=Counter(), **kwargs)
    prover.process_stream(updates)
    return prover


@given(updates_strategy,
       st.tuples(st.integers(min_value=0, max_value=63),
                 st.integers(min_value=0, max_value=63)))
def test_sparse_subvector_matches_dense(updates, bounds):
    lo, hi = min(bounds), max(bounds)
    # Only non-negative final frequencies for reporting semantics.
    stream = Stream(64, [(i, abs(d)) for i, d in updates])
    verifier = TreeHashVerifier(F, 64, rng=random.Random(5))
    dense = SubVectorProver(F, 64)
    verifier.process_stream(stream.updates())
    dense.process_stream(stream.updates())
    sparse = sparse_tree_prover(64, stream.updates())
    dense_channel, sparse_channel = Channel(), Channel()
    dense_result = run_subvector(dense, verifier, lo, hi, dense_channel)
    sparse_result = run_subvector(sparse, verifier, lo, hi, sparse_channel)
    assert dense_result.accepted and sparse_result.accepted
    assert dense_result.value.entries == sparse_result.value.entries
    assert (dense_channel.transcript.messages
            == sparse_channel.transcript.messages)


def test_sparse_subvector_huge_universe():
    u = 1 << 24
    keys = sorted(random.Random(6).sample(range(u), 20))
    stream = Stream.from_items(u, keys)
    verifier = TreeHashVerifier(F, u, rng=random.Random(7))
    verifier.process_stream(stream.updates())
    prover = sparse_tree_prover(u, stream.updates())
    lo, hi = keys[5], keys[14]
    result = run_subvector(prover, verifier, lo, hi)
    assert result.accepted
    assert [k for k, _ in result.value.entries] == [
        k for k in keys if lo <= k <= hi
    ]


def test_sparse_subvector_normalized_variant():
    u = 256
    stream = Stream.from_items(u, [9, 77, 200])
    verifier = TreeHashVerifier(F, u, rng=random.Random(8), normalized=True)
    verifier.process_stream(stream.updates())
    prover = sparse_tree_prover(u, stream.updates(), normalized=True)
    result = run_subvector(prover, verifier, 0, 255)
    assert result.accepted
    assert result.value.as_dict() == {9: 1, 77: 1, 200: 1}


def test_sparse_subvector_requires_query():
    prover = sparse_tree_prover(16)
    with pytest.raises(RuntimeError):
        prover.answer_entries()
    with pytest.raises(RuntimeError):
        prover.level0_siblings()
    with pytest.raises(ValueError):
        prover.receive_query(5, 4)


@given(updates_strategy, updates_strategy)
def test_sparse_inner_product_matches_dense(ua, ub):
    dense = BatchedSumcheckEngine(F, 64)
    for i, d in ua:
        dense.process_a(i, d)
    for i, d in ub:
        dense.process_b(i, d)
    sparse = sparse_engine(64, ua, ub)
    sparse.receive_batch([batch_inner_product()])
    g = sparse.round_messages()[0]
    assert (g[0] + g[1]) % F.p == (
        Stream(64, ua).inner_product(Stream(64, ub)) % F.p)
    lockstep([batch_inner_product()], [dense, sparse], 10)


def test_sparse_inner_product_accepted_by_verifier():
    u = 1 << 20
    a = Stream(u, [(5, 3), (999_999, 7)])
    b = Stream(u, [(5, 2), (12, 9)])
    verifier = InnerProductVerifier(F, u, rng=random.Random(11))
    for i, d in a.updates():
        verifier.process_a(i, d)
    for i, d in b.updates():
        verifier.process_b(i, d)
    result = run_inner_product(sparse_engine(u, a.updates(), b.updates()),
                               verifier)
    assert result.accepted
    assert result.value == 6


def test_sparse_inner_product_validation():
    prover = sparse_engine(16)
    with pytest.raises(ValueError):
        prover.process_a(16, 1)
    with pytest.raises(ValueError):
        prover.process_b(-1, 1)
    with pytest.raises(RuntimeError):
        prover.round_messages()
    # Beside a Counter, the second vector is a Counter too: no dense
    # table of the universe is ever made.
    assert isinstance(sparse_engine(1 << 48).freq_b, Counter)
    # A mapping beside a table, either way round, is refused up front.
    for freq_a, freq_b in ((Counter({1: 2}), [0] * 16),
                           ([0] * 16, Counter({1: 2}))):
        prover = BatchedSumcheckEngine(F, 16, freq_a=freq_a, freq_b=freq_b)
        with pytest.raises(ValueError, match="both be mappings"):
            prover.receive_batch([batch_inner_product()])


def test_sparse_prover_work_scales_with_n_not_u():
    """The point of sparsity: table sizes during folding stay O(n) — two
    entries for each pair the 32 keys touch — on either backend."""
    u = 1 << 20
    for backend_name in BACKENDS:
        prover = sparse_engine(u, [(k * 1000, 3) for k in range(32)],
                               backend=get_backend(F, backend_name))
        prover.receive_batch([batch_f2()])
        rng = random.Random(9)
        max_table = 0
        for j in range(prover.d):
            prover.round_messages()
            max_table = max(max_table, len(prover._a_table))
            if j < prover.d - 1:
                prover.receive_challenge(F.rand(rng))
        assert max_table <= 2 * 32


U_IPV6 = 1 << 64


@pytest.mark.parametrize("query,u", [
    pytest.param("f2", U_IPV6, id="f2"),
    pytest.param("range-scan", U_IPV6, id="range-scan"),
    pytest.param("f2", 1 << 70, id="f2-u2^70"),
    pytest.param("range-scan", 1 << 70, id="range-scan-u2^70"),
])
def test_sparse_provers_at_u_2_64(monkeypatch, query, u):
    """The universe the sparse bound exists for, u = 2^64, and one whose
    keys leave uint64, u = 2^70 (the scalar layout answers there on
    NumPy too): keys up to u - 1, a third of them packed below the top,
    fewer than SMALL_TABLE keys (scalar lists from the start) and more
    (NumPy below 2^64), on both backends — equal transcripts, accepted."""
    for n in (V.SMALL_TABLE // 4, 240):
        _check_sparse_proofs(monkeypatch, query, u, n)


def _check_sparse_proofs(monkeypatch, query, u, n):
    rng = random.Random(11)
    keys = [rng.randrange(u) for _ in range(n - n // 3)]
    keys += [u - 1 - rng.randrange(300) for _ in range(n // 3)]
    updates = [(key, rng.randrange(1, 9)) for key in keys]
    transcripts = []
    for backend_name in BACKENDS:
        monkeypatch.setenv("REPRO_BACKEND", backend_name)
        be = get_backend(F, backend_name)
        channel = Channel()
        counts = Counter()
        for i, d in updates:
            counts[i] += d
        if query == "f2":
            verifier = F2Verifier(F, u, rng=random.Random(12))
            verifier.process_stream(updates)
            prover = sparse_engine(u, updates, backend=be)
            result = run_f2(prover, verifier, channel)
            answer = result.value
            expected = sum(f * f for f in counts.values()) % F.p
        else:
            verifier = TreeHashVerifier(F, u, rng=random.Random(13))
            verifier.process_stream(updates)
            prover = sparse_tree_prover(u, updates, backend=be)
            lo = u - 200
            result = run_subvector(prover, verifier, lo, u - 1, channel)
            answer = list(result.value.entries)
            expected = sorted((k, f) for k, f in counts.items() if k >= lo)
        assert result.accepted, result.reason
        assert answer == expected
        transcripts.append(channel.transcript.messages)
    assert all(t == transcripts[0] for t in transcripts)


def test_ipv6_example_verifies_at_u_2_128(capsys):
    """``examples/ipv6_scale.py``: F2 and a range scan over 300 keys of
    u = 2^128, end to end on the scalar compact layout."""
    example = Path(__file__).resolve().parents[1] / "examples" / "ipv6_scale.py"
    runpy.run_path(str(example))["main"]()
    out = capsys.readouterr().out
    assert "universe 2^128" in out and out.count("[verified]") == 2
