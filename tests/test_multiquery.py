"""Tests for multiple-query support (Section 7, "Multiple Queries")."""

from __future__ import annotations

import random

import pytest

from reference_sumcheck import ReferenceProver
from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    IndependentCopies,
    batch_range_sum,
    run_batch_range_sum,
)
from repro.core.range_sum import RangeSumVerifier
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def batch_session(stream, seed=0):
    verifier = RangeSumVerifier(F, stream.u, rng=random.Random(seed))
    prover = BatchedSumcheckEngine(F, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process_a(i, delta)
    return prover, verifier


def test_batch_all_queries_verified():
    stream = uniform_frequency_stream(64, max_frequency=9,
                                      rng=random.Random(1))
    queries = [(0, 10), (5, 40), (63, 63), (0, 63)]
    prover, verifier = batch_session(stream)
    results = run_batch_range_sum(prover, verifier, queries)
    assert len(results) == 4
    for (lo, hi), result in zip(queries, results):
        assert result.accepted
        assert result.value == stream.range_sum(lo, hi) % F.p


def test_batch_engine_prover_matches_range_sum_prover_run():
    """Driving the engine produces the same transcript as driving the
    reference RANGE-SUM prover (dense indicators, Python ints) through
    the same three methods — the seam the service's remote proxy stands
    behind."""
    stream = uniform_frequency_stream(64, max_frequency=9,
                                      rng=random.Random(4))
    queries = [(0, 10), (5, 40), (63, 63)]
    _, verifier = batch_session(stream, seed=9)
    prover = ReferenceProver(F, stream.u, stream.updates())
    ch_wrapped = Channel()
    wrapped = run_batch_range_sum(prover, verifier, queries, ch_wrapped)

    engine = BatchedSumcheckEngine(F, stream.u)
    engine.process_stream(stream.updates())
    verifier2 = RangeSumVerifier(F, stream.u, rng=random.Random(9))
    verifier2.process_stream(stream.updates())
    ch_engine = Channel()
    direct = run_batch_range_sum(engine, verifier2, queries, ch_engine)

    assert ch_wrapped.transcript.messages == ch_engine.transcript.messages
    assert [r.accepted for r in wrapped] == [r.accepted for r in direct]
    assert [r.value for r in wrapped] == [r.value for r in direct]


def test_batch_engine_validates_usage():
    engine = BatchedSumcheckEngine(F, 64)
    with pytest.raises(RuntimeError):
        engine.round_messages()
    with pytest.raises(RuntimeError):
        engine.receive_challenge(3)
    with pytest.raises(ValueError):
        engine.receive_batch([batch_range_sum(5, 90)])
    with pytest.raises(ValueError):
        engine.process(64, 1)


def test_batch_shares_challenges():
    """Direct-sum: one challenge per round regardless of query count."""
    stream = Stream(64, [(3, 5)])
    prover, verifier = batch_session(stream, seed=2)
    channel = Channel()
    run_batch_range_sum(prover, verifier, [(0, 7), (8, 15), (16, 31)],
                        channel)
    challenge_words = sum(
        m.payload_words
        for m in channel.transcript.messages_from("verifier")
        if m.label.startswith("r")
    )
    assert challenge_words == verifier.d - 1  # shared across all queries


def test_batch_communication_scales_with_queries():
    stream = Stream(64, [(3, 5)])
    words = {}
    for count in (1, 4):
        prover, verifier = batch_session(stream, seed=3)
        channel = Channel()
        run_batch_range_sum(prover, verifier,
                            [(i, i + 8) for i in range(count)], channel)
        words[count] = channel.transcript.prover_words
    assert words[4] == 4 * words[1]


def test_batch_single_tampered_query_fails_alone():
    """Tampering one query's messages must not sink the others."""
    stream = uniform_frequency_stream(64, max_frequency=5,
                                      rng=random.Random(4))
    queries = [(0, 20), (30, 50)]
    prover, verifier = batch_session(stream, seed=5)

    def tamper(message):
        if message.label.startswith("q1-"):
            payload = list(message.payload)
            payload[0] += 1
            return payload
        return message.payload

    results = run_batch_range_sum(prover, verifier, queries,
                                  Channel(tamper=tamper))
    assert results[0].accepted
    assert not results[1].accepted


def test_batch_validates_ranges():
    stream = Stream(16, [(0, 1)])
    prover, verifier = batch_session(stream)
    with pytest.raises(ValueError):
        run_batch_range_sum(prover, verifier, [(5, 4)])


def test_independent_copies_lifecycle():
    stream = uniform_frequency_stream(32, max_frequency=4,
                                      rng=random.Random(6))
    copies = IndependentCopies(
        3,
        lambda rng: F2Verifier(F, 32, rng=rng),
        rng=random.Random(7),
    )
    copies.process_stream(stream.updates())
    assert copies.remaining == 3
    seen_points = []
    for _ in range(3):
        verifier = copies.take()
        seen_points.append(tuple(verifier.r))
    assert copies.remaining == 0
    # Copies carry independent randomness.
    assert len(set(seen_points)) == 3
    with pytest.raises(LookupError):
        copies.take()


def test_independent_copies_usable_for_repeated_queries():
    from repro.core.f2 import run_f2

    stream = uniform_frequency_stream(32, max_frequency=4,
                                      rng=random.Random(8))
    copies = IndependentCopies(
        2,
        lambda rng: F2Verifier(F, 32, rng=rng),
        rng=random.Random(9),
    )
    prover = BatchedSumcheckEngine(F, 32)
    for i, d in stream.updates():
        copies.process(i, d)
        prover.process(i, d)
    for _ in range(2):
        result = run_f2(prover, copies.take())
        assert result.accepted
        assert result.value == stream.self_join_size() % F.p


def test_independent_copies_space_scales():
    copies = IndependentCopies(
        4,
        lambda rng: F2Verifier(F, 1024, rng=rng),
        rng=random.Random(10),
    )
    single = F2Verifier(F, 1024, rng=random.Random(11))
    assert copies.space_words == 4 * single.space_words


def test_independent_copies_validates_count():
    with pytest.raises(ValueError):
        IndependentCopies(0, lambda rng: None)


# -- error amplification (Definition 1 remark) ---------------------------------


def _f2_run_once_factory(stream, prover_cls):
    from repro.core.f2 import run_f2

    def run_once(rng):
        from repro.core.f2 import F2Verifier

        verifier = F2Verifier(F, stream.u, rng=rng)
        prover = prover_cls(F, stream.u)
        for i, d in stream.updates():
            verifier.process(i, d)
            prover.process(i, d)
        return run_f2(prover, verifier)

    return run_once


def test_amplified_honest_accepted():
    from repro.core.multiquery import amplified_protocol

    stream = uniform_frequency_stream(32, max_frequency=5,
                                      rng=random.Random(20))
    result = amplified_protocol(
        _f2_run_once_factory(stream, BatchedSumcheckEngine), 3,
        random.Random(21)
    )
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p
    # Costs add linearly: 3 instances of a 5-round protocol.
    assert result.transcript.total_words == 3 * (3 * 5 + 4)


def test_amplified_rejects_on_any_rejection():
    from repro.adversary import ModifiedStreamF2Prover
    from repro.core.multiquery import amplified_protocol

    stream = uniform_frequency_stream(32, max_frequency=5,
                                      rng=random.Random(22))

    def prover_cls(field, u):
        return ModifiedStreamF2Prover(field, u, corrupt_key=1)

    result = amplified_protocol(
        _f2_run_once_factory(stream, prover_cls), 3, random.Random(23)
    )
    assert not result.accepted
    assert "repetition rejected" in result.reason


def test_amplified_error_compounds():
    """Over Z_101 one repetition escapes measurably; three repetitions
    (reject-if-any-rejects) should essentially never escape."""
    from repro.core.multiquery import amplified_protocol
    from repro.adversary import ModifiedStreamF2Prover
    from repro.core.f2 import F2Verifier, run_f2
    from repro.field.modular import PrimeField
    from repro.streams.model import Stream

    tiny = PrimeField(101)
    stream = Stream.from_items(8, [1, 3, 3])

    def run_once(rng):
        verifier = F2Verifier(tiny, 8, rng=rng)
        prover = ModifiedStreamF2Prover(tiny, 8, corrupt_key=1)
        for i, d in stream.updates():
            verifier.process(i, d)
            prover.process(i, d)
        return run_f2(prover, verifier)

    master = random.Random(24)
    escapes = sum(
        amplified_protocol(run_once, 3, master).accepted
        for _ in range(120)
    )
    # Single-run escape rate is ~0.1; cubed it is ~1e-3.
    assert escapes <= 2


def test_amplified_validates_repetitions():
    from repro.core.multiquery import amplified_protocol

    with pytest.raises(ValueError):
        amplified_protocol(lambda rng: None, 0)


# -- batched-path satellites ---------------------------------------------------


def test_batch_empty_queries_returns_empty():
    stream = Stream(16, [(0, 1)])
    prover, verifier = batch_session(stream)
    channel = Channel()
    assert run_batch_range_sum(prover, verifier, [], channel) == []
    assert len(channel.transcript) == 0  # nothing hit the wire


def test_batch_per_query_accounting_comparable_to_independent():
    """query_cost(q) = own messages + shared challenges — the figure an
    independent single-query run would pay for its prover+challenge words."""
    from repro.core.range_sum import run_range_sum

    stream = uniform_frequency_stream(64, max_frequency=9,
                                      rng=random.Random(30))
    queries = [(0, 10), (20, 50), (63, 63)]
    prover, verifier = batch_session(stream, seed=31)
    channel = Channel()
    results = run_batch_range_sum(prover, verifier, queries, channel)
    assert all(r.accepted for r in results)
    # Every query was charged the same number of its own words: the
    # 2-word range announcement plus one 3-word polynomial per round.
    assert set(channel.query_words) == {0, 1, 2}
    assert len(set(channel.query_words.values())) == 1
    per_query = channel.query_words[0]
    assert per_query == 2 + 3 * verifier.d
    # Shared words: the d-1 revealed challenges, once for the batch.
    assert channel.shared_words == verifier.d - 1
    assert channel.query_cost(1) == per_query + channel.shared_words
    # The per-query figure matches an independent run of the same query
    # exactly: query + prover polynomials + revealed challenges.
    single_prover, single_verifier = batch_session(stream, seed=32)
    single_channel = Channel()
    run_range_sum(single_prover, single_verifier, 20, 50, single_channel)
    assert single_channel.transcript.total_words == channel.query_cost(1)


def test_independent_copies_batched_matches_loop():
    stream = uniform_frequency_stream(48, max_frequency=6,
                                      rng=random.Random(33))
    updates = list(stream.updates())
    loop = IndependentCopies(3, lambda rng: F2Verifier(F, 48, rng=rng),
                             rng=random.Random(34))
    batched = IndependentCopies(3, lambda rng: F2Verifier(F, 48, rng=rng),
                                rng=random.Random(34))
    loop.process_stream(updates)
    batched.process_stream_batched(updates, block=7)
    for _ in range(3):
        a = loop.take()
        b = batched.take()
        assert a.r == b.r
        assert a.lde.value == b.lde.value


def test_independent_copies_batched_validates_universe():
    copies = IndependentCopies(2, lambda rng: F2Verifier(F, 40, rng=rng),
                               rng=random.Random(35))
    with pytest.raises(ValueError):
        copies.process_stream_batched([(0, 1), (40, 2)])
    with pytest.raises(ValueError):
        copies.process_stream_batched([(0, 1)], block=0)


def test_independent_copies_batched_falls_back_without_lde():
    class Counter:
        def __init__(self):
            self.total = 0

        def process(self, i, delta):
            self.total += delta

    copies = IndependentCopies(2, lambda rng: Counter(),
                               rng=random.Random(36))
    copies.process_stream_batched([(0, 1), (1, 2)])
    assert all(v.total == 3 for v in copies._fresh)


def test_independent_copies_batched_preserves_non_lde_state():
    """Verifiers with streaming state beyond .lde (no ``stream_sketches``)
    must take the per-update fallback, not lose their sketches."""
    from repro.core.frequency_based import FrequencyBasedVerifier

    stream = uniform_frequency_stream(32, max_frequency=4,
                                      rng=random.Random(50))
    updates = list(stream.updates())
    loop = IndependentCopies(
        2, lambda rng: FrequencyBasedVerifier(F, 32, 0.2, rng=rng),
        rng=random.Random(51),
    )
    batched = IndependentCopies(
        2, lambda rng: FrequencyBasedVerifier(F, 32, 0.2, rng=rng),
        rng=random.Random(51),
    )
    loop.process_stream(updates)
    batched.process_stream_batched(updates)
    for a, b in zip(loop._fresh, batched._fresh):
        assert a.lde.value == b.lde.value
        assert a.hh.n == b.hh.n  # the heavy-hitters sketch streamed too
        assert b.hh.n == sum(d for _, d in updates)
