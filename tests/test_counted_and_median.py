"""Tests for the counted range query (Appendix B.2 remark) and the
inverse-distribution range/median protocols (Section 6.2)."""

from __future__ import annotations

import random

import pytest

from repro.core.multiquery import BatchedSumcheckEngine
from repro.core.range_sum import RangeSumVerifier
from repro.core.reporting import counted_range_query
from repro.core.frequency_based import (
    inverse_distribution_median_protocol,
    inverse_distribution_range_protocol,
)
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import DEFAULT_FIELD
from repro.streams.model import Stream

F = DEFAULT_FIELD


def build_counted_session(stream, seed=0):
    tree_verifier = TreeHashVerifier(F, stream.u, rng=random.Random(seed))
    sub_prover = SubVectorProver(F, stream.u)
    rs_verifier = RangeSumVerifier(F, stream.u, rng=random.Random(seed + 1))
    rs_prover = BatchedSumcheckEngine(F, stream.u)
    for i, d in stream.updates():
        tree_verifier.process(i, d)
        sub_prover.process(i, d)
        rs_verifier.process(i, d)
        rs_prover.process_a(i, d)
    return sub_prover, tree_verifier, rs_prover, rs_verifier


def test_counted_range_query_honest():
    stream = Stream.from_items(64, [3, 3, 8, 20])
    sub_p, tree_v, rs_p, rs_v = build_counted_session(stream)
    result = counted_range_query(sub_p, tree_v, rs_p, rs_v, 0, 30)
    assert result.accepted
    assert result.value.as_dict() == {3: 2, 8: 1, 20: 1}


def test_counted_range_query_blocks_overlong_answers():
    """A prover flooding extra entries is cut at the verified bound."""
    stream = Stream.from_items(64, [3, 8])

    class FloodingProver(SubVectorProver):
        def answer_entries(self):
            # Pad the honest answer with invented entries.
            return super().answer_entries() + [(25, 1), (26, 1), (27, 1)]

    tree_verifier = TreeHashVerifier(F, 64, rng=random.Random(2))
    flooder = FloodingProver(F, 64)
    rs_verifier = RangeSumVerifier(F, 64, rng=random.Random(3))
    rs_prover = BatchedSumcheckEngine(F, 64)
    for i, d in stream.updates():
        tree_verifier.process(i, d)
        flooder.process(i, d)
        rs_verifier.process(i, d)
        rs_prover.process_a(i, d)
    result = counted_range_query(flooder, tree_verifier, rs_prover,
                                 rs_verifier, 0, 30)
    assert not result.accepted
    assert "more than the verified bound" in result.reason


def test_max_entries_direct_parameter():
    stream = Stream.from_items(16, [1, 5, 9])
    verifier = TreeHashVerifier(F, 16, rng=random.Random(4))
    prover = SubVectorProver(F, 16)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    accepted_run = run_subvector(prover, verifier, 0, 15, max_entries=3)
    assert accepted_run.accepted
    blocked = run_subvector(prover, verifier, 0, 15, max_entries=2)
    assert not blocked.accepted


def test_counted_range_rejects_on_count_phase_failure():
    stream = Stream.from_items(64, [3])
    sub_p, tree_v, rs_p, rs_v = build_counted_session(stream, seed=5)
    rs_p.freq_a[3] += 1  # count prover lies
    result = counted_range_query(sub_p, tree_v, rs_p, rs_v, 0, 30)
    assert not result.accepted
    assert "range-count" in result.reason


# -- inverse distribution range and median -------------------------------------


def test_inverse_range_counts():
    stream = Stream.from_items(64, [1, 2, 2, 3, 3, 3, 4, 4, 4, 4])
    # frequencies: 1->1 key, 2->1, 3->1, 4->1
    result = inverse_distribution_range_protocol(stream, 2, 3, F,
                                                 rng=random.Random(6))
    assert result.accepted
    assert result.value == 2  # keys 2 and 3


def test_inverse_range_validation():
    with pytest.raises(ValueError):
        inverse_distribution_range_protocol(Stream(8), 0, 3, F)
    with pytest.raises(ValueError):
        inverse_distribution_range_protocol(Stream(8), 3, 2, F)


def test_inverse_median_simple():
    # 4 keys with frequencies 1,1,2,5: median frequency = 1.
    stream = Stream(32, [(1, 1), (2, 1), (3, 2), (4, 5)])
    result = inverse_distribution_median_protocol(stream, F,
                                                  rng=random.Random(7))
    assert result.accepted
    assert result.value == 1


def test_inverse_median_skewed():
    # frequencies: 2,2,2,7,9 -> median 2.
    stream = Stream(32, [(0, 2), (1, 2), (2, 2), (3, 7), (4, 9)])
    result = inverse_distribution_median_protocol(stream, F,
                                                  rng=random.Random(8))
    assert result.accepted
    assert result.value == 2


def test_inverse_median_empty_rejected():
    result = inverse_distribution_median_protocol(Stream(16), F,
                                                  rng=random.Random(9))
    assert not result.accepted


def test_inverse_median_oracle_agreement():
    rng = random.Random(10)
    stream = Stream(64, [(k, rng.randint(1, 6)) for k in
                         rng.sample(range(64), 12)])
    result = inverse_distribution_median_protocol(stream, F,
                                                  rng=random.Random(11))
    assert result.accepted
    freqs = sorted(stream.sparse_frequencies().values())
    assert result.value == freqs[(len(freqs) - 1) // 2]
