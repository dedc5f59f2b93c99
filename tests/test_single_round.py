"""Tests for the single-round (√u, √u) baseline (Chakrabarti et al. [6])."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, drop_last_word, flip_word
from repro.core.single_round import (
    SingleRoundF2Prover,
    SingleRoundF2Verifier,
    matrix_side,
    run_single_round_f2,
    single_round_f2_protocol,
)
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def run_on(stream, seed=0, channel=None):
    verifier = SingleRoundF2Verifier(F, stream.u, rng=random.Random(seed))
    prover = SingleRoundF2Prover(F, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_single_round_f2(prover, verifier, channel)


def test_matrix_side():
    assert matrix_side(1) == 2
    assert matrix_side(4) == 2
    assert matrix_side(5) == 3
    assert matrix_side(16) == 4
    assert matrix_side(17) == 5
    with pytest.raises(ValueError):
        matrix_side(0)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=48),
                          st.integers(min_value=-15, max_value=15)),
                max_size=40))
def test_completeness_random(updates):
    stream = Stream(49, updates)
    result = run_on(stream)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_agrees_with_multi_round():
    from repro.core.f2 import self_join_size_protocol

    stream = uniform_frequency_stream(200, max_frequency=30,
                                      rng=random.Random(1))
    single = run_on(stream, seed=2)
    multi = self_join_size_protocol(stream, F, rng=random.Random(3))
    assert single.accepted and multi.accepted
    assert single.value == multi.value == stream.self_join_size() % F.p


def test_one_round_only():
    stream = uniform_frequency_stream(64, rng=random.Random(4))
    result = run_on(stream)
    assert result.accepted
    assert result.transcript.rounds == 1
    assert result.transcript.verifier_words == 0


def test_sqrt_u_costs():
    """Space and communication are Θ(√u) — the Figure 2(c) contrast."""
    for u in (64, 256, 1024):
        ell = matrix_side(u)
        stream = uniform_frequency_stream(u, max_frequency=4,
                                          rng=random.Random(u))
        result = run_on(stream)
        assert result.accepted
        assert result.transcript.total_words == 2 * ell - 1
        assert result.verifier_space_words == 2 * ell + 1
        assert result.verifier_space_words >= math.isqrt(u)


def test_space_grows_against_multi_round():
    from repro.core.f2 import F2Verifier, run_f2
    from repro.core.multiquery import BatchedSumcheckEngine

    u = 1 << 12
    stream = Stream.from_items(u, [1, 2, 3])
    single = run_on(stream)
    verifier = F2Verifier(F, u, rng=random.Random(5))
    prover = BatchedSumcheckEngine(F, u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    multi = run_f2(prover, verifier)
    assert single.verifier_space_words > 4 * multi.verifier_space_words
    assert single.transcript.total_words > 2 * multi.transcript.total_words


def test_gap_grows_with_u():
    """The Figure 2(c) separation on the Section 5 workload (u = n,
    counts uniform in [0, 1000]): the one-round / multi-round words ratio
    widens as u grows."""
    from repro.core.f2 import F2Verifier, run_f2
    from repro.core.multiquery import BatchedSumcheckEngine

    ratios = []
    for u in (1 << 10, 1 << 12, 1 << 14):
        stream = uniform_frequency_stream(u, max_frequency=1000,
                                          rng=random.Random(0))
        verifier = F2Verifier(F, u, rng=random.Random(6))
        prover = BatchedSumcheckEngine(F, u)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        multi = run_f2(prover, verifier)
        single = run_on(stream, seed=7)
        assert multi.accepted and single.accepted
        ratios.append(
            single.transcript.total_words / multi.transcript.total_words
        )
    assert ratios[0] < ratios[1] < ratios[2]


def test_tampered_proof_rejected():
    stream = uniform_frequency_stream(100, rng=random.Random(6))
    channel = Channel(tamper=flip_word(round_index=0, position=3))
    result = run_on(stream, channel=channel)
    assert not result.accepted


def test_truncated_proof_rejected():
    stream = uniform_frequency_stream(64, rng=random.Random(7))
    channel = Channel(tamper=drop_last_word(round_index=0))
    result = run_on(stream, channel=channel)
    assert not result.accepted
    assert "words" in result.reason


def test_modified_stream_proof_rejected():
    """Proof for a slightly different stream fails the g(r) check."""
    stream = uniform_frequency_stream(64, rng=random.Random(8))
    verifier = SingleRoundF2Verifier(F, 64, rng=random.Random(9))
    prover = SingleRoundF2Prover(F, 64)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    prover.process(0, 1)  # prover's view diverges by one update
    result = run_single_round_f2(prover, verifier)
    assert not result.accepted


def test_shape_mismatch_rejected():
    verifier = SingleRoundF2Verifier(F, 64, rng=random.Random(10))
    prover = SingleRoundF2Prover(F, 256)
    assert not run_single_round_f2(prover, verifier).accepted


def test_verifier_key_validation():
    verifier = SingleRoundF2Verifier(F, 10, rng=random.Random(11))
    with pytest.raises(ValueError):
        verifier.process(10, 1)


def test_end_to_end_helper():
    stream = Stream.from_items(64, [9, 9, 9])
    result = single_round_f2_protocol(stream, F, rng=random.Random(12))
    assert result.accepted
    assert result.value == 9
