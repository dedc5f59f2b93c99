"""Tests for the SELF-JOIN SIZE protocol (Section 3.1, Theorem 4)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, drop_last_word, flip_word
from repro.core.f2 import F2Verifier, run_f2, self_join_size_protocol
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import turnstile_stream, uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=-30, max_value=30)),
    max_size=50,
)


def run_on(stream, seed=0, channel=None):
    verifier = F2Verifier(F, stream.u, rng=random.Random(seed))
    prover = BatchedSumcheckEngine(F, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_f2(prover, verifier, channel)


@given(updates_strategy)
def test_completeness_random_streams(updates):
    """An honest prover is always accepted and the value is exact."""
    stream = Stream(64, updates)
    result = run_on(stream)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_exact_value_on_known_stream():
    stream = Stream.from_items(8, [1, 3, 3, 5, 7, 7, 7])
    result = run_on(stream)
    assert result.accepted
    assert result.value == 1 + 4 + 1 + 9


def test_empty_stream():
    result = run_on(Stream(16))
    assert result.accepted
    assert result.value == 0


def test_single_key_universe():
    stream = Stream(1, [(0, 5)])
    result = run_on(stream)
    assert result.accepted
    assert result.value == 25


def test_non_power_of_two_universe_padded():
    stream = Stream.from_items(100, [99, 99, 0])
    result = run_on(stream)
    assert result.accepted
    assert result.value == 5


def test_turnstile_deletions():
    stream = turnstile_stream(64, 300, rng=random.Random(2))
    result = run_on(stream)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_rounds_and_communication_logarithmic():
    """(log u, log u): d rounds, 3 words per prover message."""
    for log_u in (4, 8, 10):
        u = 1 << log_u
        stream = uniform_frequency_stream(u, max_frequency=5,
                                          rng=random.Random(3))
        result = run_on(stream)
        assert result.accepted
        assert result.transcript.rounds == log_u
        assert result.transcript.prover_words == 3 * log_u
        assert result.transcript.verifier_words == log_u - 1
        assert result.verifier_space_words <= log_u + 10


def test_challenge_rd_never_revealed():
    """The final coordinate r_d stays private (soundness hinges on it)."""
    stream = uniform_frequency_stream(64, rng=random.Random(4))
    verifier = F2Verifier(F, 64, rng=random.Random(5))
    prover = BatchedSumcheckEngine(F, 64)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    result = run_f2(prover, verifier)
    sent = [
        w
        for m in result.transcript.messages_from("verifier")
        for w in m.payload
    ]
    assert verifier.r[-1] not in sent
    assert len(sent) == verifier.d - 1


@pytest.mark.parametrize("round_index", [0, 3, 5])
def test_tampered_message_rejected(round_index):
    stream = uniform_frequency_stream(64, rng=random.Random(6))
    channel = Channel(tamper=flip_word(round_index=round_index, position=1))
    result = run_on(stream, seed=7, channel=channel)
    assert not result.accepted
    assert result.reason


def test_truncated_message_rejected_for_degree():
    """A short message = degree violation: rejected structurally."""
    stream = uniform_frequency_stream(32, rng=random.Random(8))
    channel = Channel(tamper=drop_last_word(round_index=2))
    result = run_on(stream, seed=9, channel=channel)
    assert not result.accepted
    assert "words" in result.reason


def test_dimension_mismatch_rejected():
    verifier = F2Verifier(F, 64, rng=random.Random(10))
    prover = BatchedSumcheckEngine(F, 128)
    result = run_f2(prover, verifier)
    assert not result.accepted


def test_prover_requires_begin_proof():
    """No round message and no fold before the prover has the query."""
    prover = BatchedSumcheckEngine(F, 8)
    with pytest.raises(RuntimeError):
        prover.round_messages()
    with pytest.raises(RuntimeError):
        prover.receive_challenge(1)


def test_prover_true_answer_is_integer_f2():
    """A deletion below zero still squares: the verified answer is the
    integer F2, not a sum of wrapped counts."""
    result = run_on(Stream(8, [(0, 3), (1, -2)]))
    assert result.accepted and result.value == 9 + 4


def test_prover_table_folding_preserves_sum_identity():
    """Internal invariant of Appendix B.1: after folding with r, the round
    polynomial evaluated at r equals the next round's g(0)+g(1)."""
    rng = random.Random(11)
    prover = BatchedSumcheckEngine(F, 32)
    for _ in range(40):
        prover.process(rng.randrange(32), rng.randint(-5, 5))
    prover.receive_batch([batch_f2()])
    from repro.field.polynomial import evaluate_from_evals

    for _ in range(prover.d - 1):
        (msg,) = prover.round_messages()
        r = F.rand(rng)
        expected = evaluate_from_evals(F, msg, r)
        prover.receive_challenge(r)
        (nxt,) = prover.round_messages()
        assert (nxt[0] + nxt[1]) % F.p == expected


def test_verifier_rejects_out_of_universe_key():
    verifier = F2Verifier(F, 16, rng=random.Random(12))
    with pytest.raises(ValueError):
        verifier.process(16, 1)


def test_end_to_end_helper():
    stream = Stream.from_items(32, [5, 5, 9])
    result = self_join_size_protocol(stream, F, rng=random.Random(13))
    assert result.accepted
    assert result.value == stream.self_join_size()


def test_independent_runs_use_independent_randomness():
    stream = Stream.from_items(16, [3, 3])
    v1 = F2Verifier(F, 16, rng=random.Random(14))
    v2 = F2Verifier(F, 16, rng=random.Random(15))
    assert v1.r != v2.r


def test_fixed_point_reproducible():
    point = [5, 6, 7, 8]
    v1 = F2Verifier(F, 16, point=point)
    v2 = F2Verifier(F, 16, point=point)
    stream = Stream.from_items(16, [1, 2, 3])
    v1.process_stream(stream.updates())
    v2.process_stream(stream.updates())
    assert v1.lde.value == v2.lde.value
