"""Cross-cutting edge cases: degenerate sizes, extreme values, boundary
queries, and protocol state reuse."""

from __future__ import annotations

import random

from repro.core import (
    BatchedSumcheckEngine,
    F2Verifier,
    build_reporting_session,
    predecessor_query,
    range_sum_protocol,
    run_f2,
    self_join_size_protocol,
    subvector_protocol,
    successor_query,
)
from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.streams.model import Stream

F = DEFAULT_FIELD


def test_f2_value_wraps_modulo_p_as_documented():
    """When the true F2 exceeds p, the protocol verifies F2 mod p — the
    documented behaviour; choose a bigger field to avoid it."""
    small = PrimeField(101)
    stream = Stream(4, [(0, 15)])  # F2 = 225 = 2*101 + 23
    result = self_join_size_protocol(stream, small, rng=random.Random(1))
    assert result.accepted
    assert result.value == 225 % 101


def test_f2_huge_frequency_single_key():
    stream = Stream(16, [(7, 10**8)])
    result = self_join_size_protocol(stream, F, rng=random.Random(2))
    assert result.accepted
    assert result.value == 10**16


def test_f2_all_keys_touched():
    u = 128
    stream = Stream(u, [(i, 1) for i in range(u)])
    result = self_join_size_protocol(stream, F, rng=random.Random(3))
    assert result.accepted
    assert result.value == u


def test_f2_interleaved_insert_delete_storm():
    rng = random.Random(4)
    updates = []
    for _ in range(200):
        key = rng.randrange(32)
        updates.append((key, 1))
        updates.append((key, -1))
    stream = Stream(32, updates)
    result = self_join_size_protocol(stream, F, rng=random.Random(5))
    assert result.accepted
    assert result.value == 0


def test_subvector_universe_two():
    stream = Stream(2, [(0, 3), (1, 4)])
    result = subvector_protocol(stream, 0, 1, F, rng=random.Random(6))
    assert result.accepted
    assert result.value.as_dict() == {0: 3, 1: 4}


def test_subvector_boundary_leaves():
    u = 64
    stream = Stream(u, [(0, 1), (u - 1, 2)])
    left = subvector_protocol(stream, 0, 0, F, rng=random.Random(7))
    right = subvector_protocol(stream, u - 1, u - 1, F,
                               rng=random.Random(8))
    assert left.accepted and left.value.as_dict() == {0: 1}
    assert right.accepted and right.value.as_dict() == {u - 1: 2}


def test_subvector_query_in_padding_region():
    """u = 100 pads to 128; queries may touch the padded tail and see
    only zeros there."""
    stream = Stream(100, [(99, 7)])
    result = subvector_protocol(stream, 90, 99, F, rng=random.Random(9))
    assert result.accepted
    assert result.value.as_dict() == {99: 7}


def test_range_sum_negative_values():
    stream = Stream(32, [(3, -10), (5, 4)])
    result = range_sum_protocol(stream, 0, 15, F, rng=random.Random(10))
    assert result.accepted
    assert result.value == (-6) % F.p


def test_predecessor_of_zero():
    stream = Stream.from_items(32, [0, 9])
    prover, verifier = build_reporting_session(stream, F,
                                               rng=random.Random(11))
    result = predecessor_query(prover, verifier, 0)
    assert result.accepted and result.value == 0


def test_successor_of_last_key():
    u = 32
    stream = Stream.from_items(u, [u - 1])
    prover, verifier = build_reporting_session(stream, F,
                                               rng=random.Random(12))
    result = successor_query(prover, verifier, u - 1)
    assert result.accepted and result.value == u - 1


def test_prover_reusable_across_proof_attempts():
    """Every proof starts again from the stored vector: running the
    proof twice from the same prover yields identical messages."""
    stream = Stream.from_items(32, [5, 5, 9])
    verifier1 = F2Verifier(F, 32, rng=random.Random(13))
    verifier2 = F2Verifier(F, 32, rng=random.Random(14))
    prover = BatchedSumcheckEngine(F, 32)
    for i, d in stream.updates():
        verifier1.process(i, d)
        verifier2.process(i, d)
        prover.process(i, d)
    r1 = run_f2(prover, verifier1)
    r2 = run_f2(prover, verifier2)
    assert r1.accepted and r2.accepted
    assert r1.value == r2.value


def test_protocols_usable_with_custom_prime():
    bertrand = PrimeField(131)  # a small non-Mersenne prime
    stream = Stream(64, [(9, 2)])
    result = self_join_size_protocol(stream, bertrand,
                                     rng=random.Random(15))
    assert result.accepted
    assert result.value == 4


def test_verification_result_reason_only_on_rejection():
    stream = Stream.from_items(16, [3])
    good = self_join_size_protocol(stream, F, rng=random.Random(16))
    assert good.reason is None

    verifier = F2Verifier(F, 16, rng=random.Random(17))
    prover = BatchedSumcheckEngine(F, 32)
    bad = run_f2(prover, verifier)
    assert not bad.accepted and bad.reason


def test_updates_after_protocol_would_need_fresh_randomness():
    """State keeps accepting updates after a proof (the stream goes on),
    but a verified query then needs a fresh session — document by test."""
    stream = Stream.from_items(16, [3])
    verifier = F2Verifier(F, 16, rng=random.Random(18))
    prover = BatchedSumcheckEngine(F, 16)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    first = run_f2(prover, verifier)
    assert first.accepted and first.value == 1
    # More stream arrives.
    verifier.process(5, 2)
    prover.process(5, 2)
    second = run_f2(prover, verifier)
    assert second.accepted and second.value == 1 + 4
