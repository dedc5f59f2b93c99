"""Tests for repro.adversary — every cheating strategy must be caught.

This is the library-level version of the Section 5 robustness experiment:
"In all cases, the protocols caught the error, and rejected the proof."
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    AdaptiveF2Cheater,
    AlteringSubVectorProver,
    ConcealingHeavyHittersProver,
    InflatingHeavyHittersProver,
    InjectingSubVectorProver,
    ModifiedStreamF2Prover,
    OffsetClaimF2Prover,
    OmittingSubVectorProver,
    corrupted_copy,
)
from repro.core.f2 import F2Verifier, run_f2
from repro.core.heavy_hitters import HeavyHittersVerifier, run_heavy_hitters
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import sparse_stream, uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD
U = 128


@pytest.fixture()
def stream():
    return uniform_frequency_stream(U, max_frequency=20,
                                    rng=random.Random(42))


def f2_run(stream, prover, seed=1):
    verifier = F2Verifier(F, stream.u, rng=random.Random(seed))
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    return run_f2(prover, verifier)


def test_modified_stream_prover_rejected(stream):
    prover = ModifiedStreamF2Prover(F, U, corrupt_key=5, offset=3)
    result = f2_run(stream, prover)
    assert not result.accepted
    # Its messages are internally consistent, so only the final LDE check
    # can catch it.
    assert "final check" in result.reason


def test_offset_claim_prover_rejected(stream):
    result = f2_run(stream, OffsetClaimF2Prover(F, U, offset=7))
    assert not result.accepted
    assert "round 1" in result.reason


def test_adaptive_cheater_survives_until_final_check(stream):
    result = f2_run(stream, AdaptiveF2Cheater(F, U, offset=1))
    assert not result.accepted
    assert "final check" in result.reason


def test_adaptive_cheater_would_claim_wrong_value(stream):
    """Verify the cheater actually inflates the claim before being caught."""
    prover = AdaptiveF2Cheater(F, U, offset=5)
    prover.process_stream(stream.updates())
    prover.receive_batch([batch_f2()])
    (msg,) = prover.round_messages()
    claimed = (msg[0] + msg[1]) % F.p
    assert claimed == (stream.self_join_size() + 5) % F.p


def test_honest_control_accepted(stream):
    assert f2_run(stream, BatchedSumcheckEngine(F, U)).accepted


def test_corrupted_copy_helper(stream):
    copy = corrupted_copy(stream, key=3, offset=2)
    assert len(copy) == len(stream) + 1
    assert copy.frequency_vector()[3] == stream.frequency_vector()[3] + 2
    # Proof built from the corrupted copy fails against the true stream.
    prover = BatchedSumcheckEngine(F, U)
    verifier = F2Verifier(F, U, rng=random.Random(2))
    verifier.process_stream(stream.updates())
    prover.process_stream(copy.updates())
    assert not run_f2(prover, verifier).accepted


def subvector_run(stream, prover, lo, hi, seed=3):
    verifier = TreeHashVerifier(F, stream.u, rng=random.Random(seed))
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    return run_subvector(prover, verifier, lo, hi)


def test_omitting_subvector_prover_rejected():
    stream = sparse_stream(U, 12, rng=random.Random(4))
    present = sorted(stream.sparse_frequencies())
    prover = OmittingSubVectorProver(F, U, omit_key=present[0])
    result = subvector_run(stream, prover, 0, U - 1)
    assert not result.accepted


def test_altering_subvector_prover_rejected():
    stream = sparse_stream(U, 12, rng=random.Random(5))
    present = sorted(stream.sparse_frequencies())
    prover = AlteringSubVectorProver(F, U, alter_key=present[1], offset=9)
    result = subvector_run(stream, prover, 0, U - 1)
    assert not result.accepted


def test_injecting_subvector_prover_rejected():
    stream = Stream(U, [(10, 5)])
    prover = InjectingSubVectorProver(F, U, inject_key=11, value=3)
    result = subvector_run(stream, prover, 8, 15)
    assert not result.accepted


def test_injecting_prover_validates_key():
    stream = Stream(U, [(10, 5)])
    prover = InjectingSubVectorProver(F, U, inject_key=10)
    prover.process_stream(stream.updates())
    prover.receive_query(8, 15)
    with pytest.raises(ValueError):
        prover.answer_entries()


def test_honest_subvector_control():
    stream = sparse_stream(U, 12, rng=random.Random(6))
    prover = SubVectorProver(F, U)
    result = subvector_run(stream, prover, 0, U - 1)
    assert result.accepted


def hh_run(stream, prover, phi, seed=7):
    verifier = HeavyHittersVerifier(F, stream.u, phi,
                                    rng=random.Random(seed))
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    return run_heavy_hitters(prover, verifier)


def test_concealing_hh_prover_rejected():
    stream = Stream.from_items(U, [3] * 60 + [90] * 50 + [7] * 10)
    prover = ConcealingHeavyHittersProver(F, U, 0.3, conceal_key=3)
    assert not hh_run(stream, prover, 0.3).accepted


def test_inflating_hh_prover_rejected():
    stream = Stream.from_items(U, [3] * 60 + [7] * 10)
    prover = InflatingHeavyHittersProver(F, U, 0.3, inflate_key=7,
                                         amount=1000)
    assert not hh_run(stream, prover, 0.3).accepted


def test_soundness_error_bound_is_negligible():
    """Lemma 1: failure probability 2dℓ/p. For u = 2^20 over p = 2^61 - 1
    that is ~2^-54 — document the arithmetic the experiments rely on."""
    d, ell, p = 20, 2, F.p
    assert 2 * d * ell / p < 1e-16
