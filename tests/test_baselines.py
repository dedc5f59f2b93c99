"""Tests for repro.baselines — the (n,1) and (1,n) comparators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.trivial import (
    LocalStateVerifier,
    ShipAnswerProver,
    ShipAnswerVerifier,
    ship_and_verify,
    ship_and_verify_f2,
)
from repro.comm.channel import Channel
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import sparse_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31),
              st.integers(min_value=-9, max_value=9)),
    max_size=30,
)


@given(updates_strategy)
def test_local_state_oracle(updates):
    stream = Stream(32, updates)
    verifier = LocalStateVerifier(32)
    verifier.process_stream(stream.updates())
    assert verifier.self_join_size() == stream.self_join_size()
    assert verifier.range_sum(5, 20) == stream.range_sum(5, 20)


def test_local_state_space_linear():
    verifier = LocalStateVerifier(1 << 20)
    for i in range(500):
        verifier.process(i * 7, 1)
    assert verifier.space_words == 1000


def test_local_state_universe_check():
    verifier = LocalStateVerifier(8)
    with pytest.raises(ValueError):
        verifier.process(8, 1)


@given(updates_strategy)
def test_ship_and_verify_f2_correct(updates):
    stream = Stream(32, updates)
    result = ship_and_verify_f2(stream, F, rng=random.Random(1))
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_ship_and_verify_communication_is_linear():
    """(1, n): communication = the shipped data, unlike (log u, log u)."""
    stream = sparse_stream(1 << 16, 200, rng=random.Random(2))
    result = ship_and_verify_f2(stream, F, rng=random.Random(3))
    assert result.accepted
    assert result.transcript.total_words == 2 * 200
    assert result.verifier_space_words == 2


def test_ship_and_verify_detects_forged_vector():
    stream = Stream(32, [(3, 5), (9, 7)])
    verifier = ShipAnswerVerifier(F, 32)
    verifier.init_randomness(random.Random(4))
    prover = ShipAnswerProver(F, 32)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    prover.freq[3] = 6  # the cloud lies about one value
    result = ship_and_verify(
        prover, verifier,
        lambda entries: sum(v * v for _, v in entries) % F.p,
    )
    assert not result.accepted
    assert "fingerprint" in result.reason


def test_ship_and_verify_detects_omission():
    stream = Stream(32, [(3, 5), (9, 7)])
    verifier = ShipAnswerVerifier(F, 32)
    verifier.init_randomness(random.Random(5))
    prover = ShipAnswerProver(F, 32)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    del prover.freq[9]
    result = ship_and_verify(
        prover, verifier,
        lambda entries: sum(v * v for _, v in entries) % F.p,
    )
    assert not result.accepted


def test_ship_and_verify_structural_checks():
    stream = Stream(16, [(3, 5)])
    verifier = ShipAnswerVerifier(F, 16)
    verifier.init_randomness(random.Random(6))
    prover = ShipAnswerProver(F, 16)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    channel = Channel(
        tamper=lambda m: list(m.payload) + [7]  # odd word count
    )
    result = ship_and_verify(
        prover, verifier, lambda entries: 0, channel
    )
    assert not result.accepted


def test_ship_verifier_requires_randomness():
    verifier = ShipAnswerVerifier(F, 16)
    with pytest.raises(RuntimeError):
        verifier.process(0, 1)
    with pytest.raises(RuntimeError):
        verifier.check([])


def test_cost_landscape_ordering():
    """The Section 1 landscape: (1,n) ships everything; (log u, log u)
    beats it on communication while staying tiny on space."""
    from repro.core.f2 import self_join_size_protocol

    stream = sparse_stream(1 << 12, 300, rng=random.Random(7))
    ship = ship_and_verify_f2(stream, F, rng=random.Random(8))
    ours = self_join_size_protocol(stream, F, rng=random.Random(9))
    assert ship.accepted and ours.accepted
    assert ship.value == ours.value
    assert ours.transcript.total_words < ship.transcript.total_words / 10


def test_landscape_ordering():
    """Space × communication on the Section 5 workload (u = n = 2^12,
    counts uniform in [0, 1000]): the lower bound s·t = Ω(u) binds the
    non-interactive protocols — local state, shipping the answer, the
    one-round (√u, √u) protocol — and interaction breaks it."""
    from repro.core.f2 import self_join_size_protocol
    from repro.core.single_round import single_round_f2_protocol
    from repro.streams.generators import uniform_frequency_stream

    stream = uniform_frequency_stream(1 << 12, max_frequency=1000,
                                      rng=random.Random(120))
    ship = ship_and_verify_f2(stream, F, rng=random.Random(124))
    single = single_round_f2_protocol(stream, F, rng=random.Random(125))
    multi = self_join_size_protocol(stream, F, rng=random.Random(126))
    assert ship.accepted and single.accepted and multi.accepted

    def product(result):
        return result.verifier_space_words * result.transcript.total_words

    local = 2 * stream.stats().num_nonzero  # (n, 1): no communication
    assert product(multi) < product(single) / 4
    assert product(multi) < product(ship) / 4
    assert product(multi) < local / 4
