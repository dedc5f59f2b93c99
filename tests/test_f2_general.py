"""Tests for the general-ℓ F2 protocol (Section 3.1 tradeoff)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.f2 import self_join_size_protocol
from repro.core.f2_general import (
    GeneralF2Prover,
    GeneralF2Verifier,
    general_f2_protocol,
    run_general_f2,
)
from repro.core.single_round import single_round_f2_protocol
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


@pytest.mark.parametrize("ell", [2, 3, 4, 8])
def test_completeness_across_bases(ell):
    stream = uniform_frequency_stream(64, max_frequency=7,
                                      rng=random.Random(ell))
    result = general_f2_protocol(stream, ell, F, rng=random.Random(10 + ell))
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=26),
                          st.integers(min_value=-6, max_value=6)),
                max_size=25),
       st.integers(min_value=2, max_value=5))
def test_completeness_random(updates, ell):
    stream = Stream(27, updates)
    result = general_f2_protocol(stream, ell, F, rng=random.Random(0))
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_ell2_matches_main_protocol():
    stream = uniform_frequency_stream(128, max_frequency=9,
                                      rng=random.Random(1))
    general = general_f2_protocol(stream, 2, F, rng=random.Random(2))
    main = self_join_size_protocol(stream, F, rng=random.Random(3))
    assert general.accepted and main.accepted
    assert general.value == main.value
    assert general.transcript.rounds == main.transcript.rounds
    assert general.transcript.prover_words == main.transcript.prover_words


def test_large_ell_recovers_single_round_costs():
    """ℓ = √u, d = 2 is (up to the extra round) the [6] baseline shape."""
    u = 256
    stream = uniform_frequency_stream(u, max_frequency=5,
                                      rng=random.Random(4))
    general = general_f2_protocol(stream, 16, F, rng=random.Random(5))
    single = single_round_f2_protocol(stream, F, rng=random.Random(6))
    assert general.accepted and single.accepted
    assert general.value == single.value
    assert general.transcript.rounds == 2
    # Message sizes match: 2ℓ-1 words with ℓ = 16.
    assert all(
        m.payload_words == 31
        for m in general.transcript.messages_from("prover")
    )


def test_rounds_shrink_and_messages_grow_with_ell():
    u = 4096
    stream = Stream.from_items(u, [1, 2, 3])
    stats = {}
    for ell in (2, 4, 8, 16):
        result = general_f2_protocol(stream, ell, F,
                                     rng=random.Random(7))
        assert result.accepted
        stats[ell] = (result.transcript.rounds,
                      result.transcript.prover_words,
                      result.transcript.total_words)
    rounds = {ell: s[0] for ell, s in stats.items()}
    assert rounds[2] > rounds[4] > rounds[8] > rounds[16]
    assert rounds[2] == 12 and rounds[4] == 6 and rounds[8] == 4
    words_per_round = {
        ell: stats[ell][1] / rounds[ell] for ell in stats
    }
    assert (words_per_round[2] < words_per_round[4] < words_per_round[8]
            < words_per_round[16])
    # The §3.1 trade-off: total communication is least at the small-ℓ
    # end of the sweep ("ℓ = 2 is probably the most economical").
    total = {ell: s[2] for ell, s in stats.items()}
    assert min(total.values()) in (total[2], total[4])


def test_tampering_rejected():
    stream = uniform_frequency_stream(81, max_frequency=4,
                                      rng=random.Random(8))
    channel = Channel(tamper=flip_word(round_index=1, position=2))
    result = general_f2_protocol(stream, 3, F, rng=random.Random(9),
                                 channel=channel)
    assert not result.accepted


def test_lying_prover_rejected():
    u = 64
    stream = Stream.from_items(u, [5, 9, 9])
    verifier = GeneralF2Verifier(F, u, 4, rng=random.Random(10))
    prover = GeneralF2Prover(F, u, 4)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    prover.freq[5] += 1
    result = run_general_f2(prover, verifier)
    assert not result.accepted


def test_parameter_validation():
    with pytest.raises(ValueError):
        GeneralF2Prover(F, 8, 1)
    with pytest.raises(ValueError):
        GeneralF2Verifier(F, 8, 1, rng=random.Random(0))


def test_parameter_mismatch_rejected():
    verifier = GeneralF2Verifier(F, 64, 4, rng=random.Random(11))
    prover = GeneralF2Prover(F, 64, 2)
    assert not run_general_f2(prover, verifier).accepted


def test_non_power_universe_padded():
    stream = Stream.from_items(10, [9, 9])
    result = general_f2_protocol(stream, 3, F, rng=random.Random(12))
    assert result.accepted
    assert result.value == 4
