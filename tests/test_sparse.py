"""Tests for the sparse provers (the n·log(u/n) prover bound)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    batch_inner_product,
)
from repro.core.sparse import (
    VECTOR_MIN_KEYS,
    SparseF2Prover,
    SparseSubVectorProver,
)
from repro.core.sumcheck import run_sumcheck_rounds
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.streams.generators import sparse_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD
BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=-9, max_value=9)),
    max_size=30,
)


def run_rounds(prover, verifier, target):
    """The one-query sum-check against a begin_proof / round_message
    prover: d degree-2 messages, then ``g_d(r_d) = target``."""
    prover.begin_proof()
    return run_sumcheck_rounds(prover, verifier, Channel(), message_len=3,
                               target=target, target_name="the target")


def run_f2(prover, verifier):
    return run_rounds(prover, verifier, verifier.lde.value ** 2)


@given(updates_strategy)
def test_sparse_f2_messages_identical_to_dense(updates):
    """Drop-in equivalence: byte-identical messages at every round."""
    dense = BatchedSumcheckEngine(F, 64)
    sparse = SparseF2Prover(F, 64)
    for i, d in updates:
        dense.process(i, d)
        sparse.process(i, d)
    dense.receive_batch([batch_f2()])
    sparse.begin_proof()
    rng = random.Random(1)
    for j in range(dense.d):
        assert dense.round_messages() == [sparse.round_message()]
        if j < dense.d - 1:
            r = F.rand(rng)
            dense.receive_challenge(r)
            sparse.receive_challenge(r)


@given(updates_strategy)
def test_sparse_f2_accepted_by_standard_verifier(updates):
    stream = Stream(64, updates)
    verifier = F2Verifier(F, 64, rng=random.Random(2))
    prover = SparseF2Prover(F, 64)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_f2(prover, verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_sparse_f2_huge_universe():
    """u = 2^24 with 50 keys: impossible for the dense prover's memory
    profile in a test, trivial for the sparse one."""
    u = 1 << 24
    stream = sparse_stream(u, 50, max_frequency=100, rng=random.Random(3))
    verifier = F2Verifier(F, u, rng=random.Random(4))
    prover = SparseF2Prover(F, u)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_f2(prover, verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_sparse_f2_cancellation_removes_keys():
    prover = SparseF2Prover(F, 16)
    prover.process(3, 5)
    prover.process(3, -5)
    assert prover.freq == {}
    assert prover.true_answer() == 0


def test_sparse_f2_universe_check():
    prover = SparseF2Prover(F, 16)
    with pytest.raises(ValueError):
        prover.process(16, 1)


def test_sparse_f2_requires_begin_proof():
    prover = SparseF2Prover(F, 8)
    with pytest.raises(RuntimeError):
        prover.round_message()
    with pytest.raises(RuntimeError):
        prover.receive_challenge(1)


@given(updates_strategy,
       st.tuples(st.integers(min_value=0, max_value=63),
                 st.integers(min_value=0, max_value=63)))
def test_sparse_subvector_matches_dense(updates, bounds):
    lo, hi = min(bounds), max(bounds)
    # Only non-negative final frequencies for reporting semantics.
    stream = Stream(64, [(i, abs(d)) for i, d in updates])
    verifier = TreeHashVerifier(F, 64, rng=random.Random(5))
    dense = SubVectorProver(F, 64)
    sparse = SparseSubVectorProver(F, 64)
    for i, d in stream.updates():
        verifier.process(i, d)
        dense.process(i, d)
        sparse.process(i, d)
    dense_result = run_subvector(dense, verifier, lo, hi)
    sparse_result = run_subvector(sparse, verifier, lo, hi)
    assert dense_result.accepted and sparse_result.accepted
    assert dense_result.value.entries == sparse_result.value.entries


def test_sparse_subvector_huge_universe():
    u = 1 << 24
    keys = sorted(random.Random(6).sample(range(u), 20))
    stream = Stream.from_items(u, keys)
    verifier = TreeHashVerifier(F, u, rng=random.Random(7))
    prover = SparseSubVectorProver(F, u)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
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
    prover = SparseSubVectorProver(F, u, normalized=True)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_subvector(prover, verifier, 0, 255)
    assert result.accepted
    assert result.value.as_dict() == {9: 1, 77: 1, 200: 1}


def test_sparse_subvector_requires_query():
    prover = SparseSubVectorProver(F, 16)
    with pytest.raises(RuntimeError):
        prover.answer_entries()
    with pytest.raises(RuntimeError):
        prover.level0_siblings()
    with pytest.raises(ValueError):
        prover.receive_query(5, 4)


@given(updates_strategy, updates_strategy)
def test_sparse_inner_product_matches_dense(ua, ub):
    from repro.core.sparse import SparseInnerProductProver

    dense = BatchedSumcheckEngine(F, 64)
    sparse = SparseInnerProductProver(F, 64)
    for i, d in ua:
        dense.process_a(i, d)
        sparse.process_a(i, d)
    for i, d in ub:
        dense.process_b(i, d)
        sparse.process_b(i, d)
    assert sparse.true_answer() == Stream(64, ua).inner_product(Stream(64, ub))
    dense.receive_batch([batch_inner_product()])
    sparse.begin_proof()
    rng = random.Random(10)
    for j in range(dense.d):
        assert dense.round_messages() == [sparse.round_message()]
        if j < dense.d - 1:
            r = F.rand(rng)
            dense.receive_challenge(r)
            sparse.receive_challenge(r)


def test_sparse_inner_product_accepted_by_verifier():
    from repro.core.inner_product import InnerProductVerifier
    from repro.core.sparse import SparseInnerProductProver

    u = 1 << 20
    a = Stream(u, [(5, 3), (999_999, 7)])
    b = Stream(u, [(5, 2), (12, 9)])
    verifier = InnerProductVerifier(F, u, rng=random.Random(11))
    prover = SparseInnerProductProver(F, u)
    for i, d in a.updates():
        verifier.process_a(i, d)
        prover.process_a(i, d)
    for i, d in b.updates():
        verifier.process_b(i, d)
        prover.process_b(i, d)
    result = run_rounds(prover, verifier,
                        verifier.lde_a.value * verifier.lde_b.value)
    assert result.accepted
    assert result.value == 6


def test_sparse_inner_product_validation():
    from repro.core.sparse import SparseInnerProductProver

    prover = SparseInnerProductProver(F, 16)
    import pytest as _pytest

    with _pytest.raises(ValueError):
        prover.process_a(16, 1)
    with _pytest.raises(RuntimeError):
        prover.round_message()


def test_sparse_prover_work_scales_with_n_not_u():
    """The point of sparsity: table sizes during folding stay O(n)."""
    u = 1 << 20
    prover = SparseF2Prover(F, u)
    for k in range(32):
        prover.process(k * 1000, 3)
    prover.begin_proof()
    rng = random.Random(9)
    max_table = 0
    for j in range(prover.d):
        prover.round_message()
        max_table = max(max_table, len(prover._table))
        if j < prover.d - 1:
            prover.receive_challenge(F.rand(rng))
    assert max_table <= 32


U_IPV6 = 1 << 64


@pytest.mark.parametrize("query,u", [
    pytest.param("f2", U_IPV6, id="f2"),
    pytest.param("range-scan", U_IPV6, id="range-scan"),
    pytest.param("f2", 1 << 70, id="f2-u2^70"),
    pytest.param("range-scan", 1 << 70, id="range-scan-u2^70"),
])
def test_sparse_provers_at_u_2_64(monkeypatch, query, u):
    """The universe the sparse bound exists for, u = 2^64, and one whose
    keys leave uint64, u = 2^70 (the dictionary loops answer there on
    NumPy too): keys up to u - 1, more of them than the NumPy cut-over,
    on both backends — equal transcripts, accepted."""
    rng = random.Random(11)
    keys = [rng.randrange(u) for _ in range(2 * VECTOR_MIN_KEYS)]
    keys += [u - 1 - rng.randrange(300) for _ in range(VECTOR_MIN_KEYS)]
    updates = [(key, rng.randrange(1, 9)) for key in keys]
    transcripts = []
    for backend_name in BACKENDS:
        monkeypatch.setenv("REPRO_BACKEND", backend_name)
        be = get_backend(F, backend_name)
        channel = Channel()
        if query == "f2":
            verifier = F2Verifier(F, u, rng=random.Random(12))
            prover = SparseF2Prover(F, u, backend=be)
            for i, d in updates:
                verifier.process(i, d)
                prover.process(i, d)
            prover.begin_proof()
            result = run_sumcheck_rounds(
                prover, verifier, channel, message_len=3,
                target=verifier.lde.value ** 2, target_name="the target")
            answer = result.value
            expected = sum(f * f for f in prover.freq.values()) % F.p
        else:
            verifier = TreeHashVerifier(F, u, rng=random.Random(13))
            prover = SparseSubVectorProver(F, u, backend=be)
            for i, d in updates:
                verifier.process(i, d)
                prover.process(i, d)
            lo = u - 200
            result = run_subvector(prover, verifier, lo, u - 1, channel)
            answer = list(result.value.entries)
            expected = sorted((k, f) for k, f in prover.freq.items()
                              if k >= lo)
        assert result.accepted, result.reason
        assert answer == expected
        transcripts.append(channel.transcript.messages)
    assert all(t == transcripts[0] for t in transcripts)
