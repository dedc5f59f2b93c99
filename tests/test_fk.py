"""Tests for the frequency-moment protocol (Section 3.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.f2 import F2Verifier, run_f2
from repro.core.fk import FkVerifier, frequency_moment_protocol, run_fk
from repro.core.multiquery import BatchedSumcheckEngine, batch_fk
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def run_on(stream, k, seed=0, channel=None):
    verifier = FkVerifier(F, stream.u, k, rng=random.Random(seed))
    prover = BatchedSumcheckEngine(F, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_fk(prover, verifier, channel)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_completeness_all_orders(k):
    stream = uniform_frequency_stream(64, max_frequency=6,
                                      rng=random.Random(k))
    result = run_on(stream, k, seed=k + 100)
    assert result.accepted
    assert result.value == stream.frequency_moment(k) % F.p


def test_f1_is_stream_mass():
    stream = Stream.from_items(32, [1, 1, 2, 30])
    result = run_on(stream, 1)
    assert result.accepted
    assert result.value == 4


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=-8, max_value=8)),
                max_size=30),
       st.integers(min_value=1, max_value=4))
def test_completeness_random(updates, k):
    stream = Stream(32, updates)
    result = run_on(stream, k)
    assert result.accepted
    assert result.value == stream.frequency_moment(k) % F.p


def test_message_size_grows_with_k():
    """Communication O(k log u): each message is k+1 words."""
    stream = uniform_frequency_stream(64, max_frequency=3,
                                      rng=random.Random(7))
    words = {}
    for k in (2, 3, 5):
        result = run_on(stream, k)
        assert result.accepted
        words[k] = result.transcript.prover_words
        assert words[k] == (k + 1) * 6  # d = 6 rounds
    assert words[2] < words[3] < words[5]


def test_space_independent_of_k_up_to_message():
    stream = uniform_frequency_stream(64, rng=random.Random(8))
    r2 = run_on(stream, 2)
    r5 = run_on(stream, 5)
    # Verifier storage differs only by the current-message buffer.
    assert r5.verifier_space_words - r2.verifier_space_words == 3


def test_f2_consistency_with_specialised_protocol():
    """Fk with k=2 and the dedicated F2 protocol agree."""
    stream = uniform_frequency_stream(32, max_frequency=9,
                                      rng=random.Random(9))
    fk_result = run_on(stream, 2, seed=10)

    verifier = F2Verifier(F, stream.u, rng=random.Random(11))
    prover = BatchedSumcheckEngine(F, stream.u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    f2_result = run_f2(prover, verifier)

    assert fk_result.accepted and f2_result.accepted
    assert fk_result.value == f2_result.value


def test_tampering_rejected():
    stream = uniform_frequency_stream(64, rng=random.Random(12))
    channel = Channel(tamper=flip_word(round_index=1, position=2))
    result = run_on(stream, 3, channel=channel)
    assert not result.accepted


def test_k_validation():
    with pytest.raises(ValueError):
        batch_fk(0)
    with pytest.raises(ValueError):
        FkVerifier(F, 8, 0, rng=random.Random(0))


def test_parameter_mismatch_rejected():
    """The order is the verifier's; the prover's universe must match."""
    verifier = FkVerifier(F, 64, 3, rng=random.Random(13))
    prover = BatchedSumcheckEngine(F, 128)
    assert not run_fk(prover, verifier).accepted


def test_end_to_end_helper():
    stream = Stream.from_items(16, [4, 4, 4])
    result = frequency_moment_protocol(stream, 3, F, rng=random.Random(14))
    assert result.accepted
    assert result.value == 27


def test_negative_frequencies_cube_correctly():
    """Odd moments of negative frequencies stay correct mod p."""
    stream = Stream(16, [(3, -2), (5, 4)])
    result = run_on(stream, 3)
    assert result.accepted
    assert result.value == ((-8) + 64) % F.p
