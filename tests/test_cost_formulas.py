"""Exact (s, t) cost formulas, protocol by protocol.

The paper states asymptotic costs; these tests pin the *exact* word
counts our implementation achieves, so any regression that silently
inflates communication or space fails loudly.  d = log2(padded u)
throughout; words are field elements.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BatchedSumcheckEngine,
    F2Verifier,
    FkVerifier,
    InnerProductVerifier,
    RangeSumVerifier,
    build_reporting_session,
    run_f2,
    run_fk,
    run_inner_product,
    run_range_sum,
    run_subvector,
    self_join_size_protocol,
    single_round_f2_protocol,
)
from repro.core.range_sum import range_sum_protocol
from repro.core.single_round import matrix_side
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import sparse_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def test_f2_exact_words():
    """F2: d prover messages of 3 words; d-1 revealed challenges."""
    for log_u in (3, 6, 10, 14):
        u = 1 << log_u
        stream = Stream(u, [(1, 2)])
        result = self_join_size_protocol(stream, F, rng=random.Random(1))
        assert result.accepted
        assert result.transcript.prover_words == 3 * log_u
        assert result.transcript.verifier_words == log_u - 1
        assert result.transcript.rounds == log_u
        assert result.verifier_space_words == log_u + 6


def test_fk_exact_words():
    """Fk: d messages of k+1 words."""
    u, log_u = 64, 6
    stream = Stream(u, [(1, 2)])
    for k in (1, 3, 4, 6, 7):
        verifier = FkVerifier(F, u, k, rng=random.Random(2))
        prover = BatchedSumcheckEngine(F, u)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        result = run_fk(prover, verifier)
        assert result.accepted
        assert result.transcript.prover_words == (k + 1) * log_u
        assert result.transcript.verifier_words == log_u - 1


def test_single_round_exact_words():
    """One-round baseline: one message of 2ℓ-1 words; zero from V."""
    for u in (49, 256, 1000):
        ell = matrix_side(u)
        stream = Stream(u, [(1, 2)])
        result = single_round_f2_protocol(stream, F, rng=random.Random(3))
        assert result.accepted
        assert result.transcript.prover_words == 2 * ell - 1
        assert result.transcript.verifier_words == 0
        assert result.verifier_space_words == 2 * ell + 1


def test_range_sum_exact_words():
    """RANGE-SUM: 2-word query + d messages of 3 + d-1 challenges."""
    u, log_u = 1 << 8, 8
    stream = Stream(u, [(10, 5)])
    result = range_sum_protocol(stream, 3, 200, F, rng=random.Random(4))
    assert result.accepted
    assert result.transcript.total_words == 2 + 3 * log_u + (log_u - 1)


def test_subvector_word_budget():
    """SUB-VECTOR: 2k answer words + per-level at most 2 sibling pairs
    (4 words) + query (2) + d-1 challenges."""
    u, log_u = 1 << 9, 9
    stream = sparse_stream(u, 12, rng=random.Random(5))
    prover, verifier = build_reporting_session(stream, F,
                                               rng=random.Random(6))
    lo, hi = 37, 401
    result = run_subvector(prover, verifier, lo, hi)
    assert result.accepted
    k = result.value.k
    budget = 2 * k + 2 + (log_u - 1) + 4 * log_u
    assert result.transcript.total_words <= budget


def test_f2_verifier_space_independent_of_stream_length():
    """Space depends on log u only — stream length is irrelevant."""
    u = 1 << 8
    short = Stream(u, [(0, 1)])
    long = Stream(u, [(i % u, 1) for i in range(5000)])
    spaces = []
    for stream in (short, long):
        verifier = F2Verifier(F, u, rng=random.Random(7))
        prover = BatchedSumcheckEngine(F, u)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        result = run_f2(prover, verifier)
        assert result.accepted
        spaces.append(result.verifier_space_words)
    assert spaces[0] == spaces[1]


@pytest.mark.parametrize("kind", ["f2", "fk3", "inner-product",
                                  "range-sum"])
def test_space_words_property_matches_result(kind):
    """A one-query run reports its verifier's own space_words: RANGE-SUM
    streams one LDE, so d + 6, like F2."""
    u = 1 << 7
    stream = Stream(u, [(3, 4)])
    prover = BatchedSumcheckEngine(F, u)
    prover.process_stream(stream.updates())
    rng = random.Random(8)
    if kind == "inner-product":
        verifier = InnerProductVerifier(F, u, rng=rng)
        for i, delta in stream.updates():
            verifier.process_a(i, delta)
        result = run_inner_product(prover, verifier)
    else:
        verifier = {"f2": F2Verifier(F, u, rng=rng),
                    "fk3": FkVerifier(F, u, 3, rng=rng),
                    "range-sum": RangeSumVerifier(F, u, rng=rng)}[kind]
        verifier.process_stream(stream.updates())
        result = (run_f2(prover, verifier) if kind == "f2"
                  else run_fk(prover, verifier) if kind == "fk3"
                  else run_range_sum(prover, verifier, 2, 90))
    assert result.accepted
    assert result.verifier_space_words == verifier.space_words


def test_mixed_batch_exact_words():
    """Heterogeneous batch of Q queries: channel words split into shared
    + per-query terms matching the paper's communication bounds.

    Shared: the d-1 revealed challenges, paid once for the whole batch.
    Per query: d messages of (degree+1) words — 3 for F2/INNER-PRODUCT/
    RANGE-SUM, k+1 for Fk — plus the 2-word range announcement for a
    RANGE-SUM member.  query_cost(q) = own + shared is exactly what an
    independent run of the same query pays.
    """
    from repro.comm.channel import Channel
    from repro.core.multiquery import (
        BatchedSumcheckEngine,
        BatchedSumcheckVerifier,
        batch_f2,
        batch_fk,
        batch_inner_product,
        batch_range_sum,
        run_batched_sumcheck,
    )

    u, d = 1 << 7, 7
    k = 4
    queries = [batch_range_sum(3, 90), batch_f2(), batch_fk(k),
               batch_inner_product(), batch_range_sum(0, u - 1)]
    engine = BatchedSumcheckEngine(F, u)
    verifier = BatchedSumcheckVerifier(F, u, rng=random.Random(40))
    for i, delta in [(3, 5), (77, 2), (90, 1)]:
        engine.process(i, delta)
        verifier.process_a(i, delta)
    for i, delta in [(3, 4), (10, 1)]:
        engine.process_b(i, delta)
        verifier.process_b(i, delta)
    channel = Channel()
    results = run_batched_sumcheck(engine, verifier, queries, channel)
    assert all(r.accepted for r in results)

    # Shared words: the revealed challenges, once for the batch.
    assert channel.shared_words == d - 1
    # Per-query words follow each member's degree (+ range announcement).
    expected_own = [2 + 3 * d, 3 * d, (k + 1) * d, 3 * d, 2 + 3 * d]
    assert [channel.query_words[q] for q in range(len(queries))] == \
        expected_own
    # The split is exhaustive: own + shared = everything on the wire.
    assert sum(expected_own) + channel.shared_words == \
        channel.transcript.total_words
    # query_cost matches the corresponding independent runs exactly
    # (cf. test_f2_exact_words / test_fk_exact_words /
    # test_range_sum_exact_words above).
    assert channel.query_cost(1) == 3 * d + (d - 1)
    assert channel.query_cost(2) == (k + 1) * d + (d - 1)
    assert channel.query_cost(0) == 2 + 3 * d + (d - 1)


def test_exponential_gap_headline():
    """The abstract's claim, quantified: at u = 2^16 the verifier uses
    ~22 words against a 65,536-entry vector — a >2900x space reduction
    relative to the plain-streaming lower bound Ω(u)."""
    u = 1 << 16
    stream = Stream(u, [(i, 1) for i in range(0, u, 251)])
    result = self_join_size_protocol(stream, F, rng=random.Random(9))
    assert result.accepted
    assert u / result.verifier_space_words > 2900
