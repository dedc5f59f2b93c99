"""Tests for the INNER PRODUCT (join size) protocol (Section 3.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.inner_product import (
    InnerProductVerifier,
    inner_product_protocol,
    run_inner_product,
)
from repro.core.multiquery import BatchedSumcheckEngine
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import paired_streams_for_join
from repro.streams.model import Stream

F = DEFAULT_FIELD

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31),
              st.integers(min_value=-10, max_value=10)),
    max_size=30,
)


def run_on(stream_a, stream_b, seed=0, channel=None):
    verifier = InnerProductVerifier(F, stream_a.u, rng=random.Random(seed))
    prover = BatchedSumcheckEngine(F, stream_a.u)
    for i, delta in stream_a.updates():
        verifier.process_a(i, delta)
        prover.process_a(i, delta)
    for i, delta in stream_b.updates():
        verifier.process_b(i, delta)
        prover.process_b(i, delta)
    return run_inner_product(prover, verifier, channel)


@given(updates_strategy, updates_strategy)
def test_completeness_random(ua, ub):
    a, b = Stream(32, ua), Stream(32, ub)
    result = run_on(a, b)
    assert result.accepted
    assert result.value == a.inner_product(b) % F.p


def test_known_value():
    a = Stream.from_frequency_vector([1, 2, 3, 0])
    b = Stream.from_frequency_vector([4, 0, 5, 6])
    result = run_on(a, b)
    assert result.accepted
    assert result.value == 1 * 4 + 3 * 5


def test_join_size_semantics():
    """Inner product of indicator-ish streams = join size."""
    a, b = paired_streams_for_join(128, 40, overlap=0.6,
                                   rng=random.Random(1))
    result = run_on(a, b, seed=2)
    assert result.accepted
    assert result.value == a.inner_product(b) % F.p


def test_disjoint_streams_zero():
    a = Stream.from_items(16, [0, 1, 2])
    b = Stream.from_items(16, [8, 9])
    result = run_on(a, b)
    assert result.accepted
    assert result.value == 0


def test_f2_identity():
    """a·a = F2(a): the identity motivating the shared machinery."""
    a = Stream.from_items(32, [3, 3, 17, 29, 29, 29])
    result = run_on(a, a)
    assert result.accepted
    assert result.value == a.self_join_size()


def test_polarisation_identity():
    """F2(a+b) = F2(a) + F2(b) + 2·(a·b) — the paper's reduction."""
    rng = random.Random(3)
    a = Stream(32, [(rng.randrange(32), rng.randint(1, 5)) for _ in range(20)])
    b = Stream(32, [(rng.randrange(32), rng.randint(1, 5)) for _ in range(20)])
    combined = Stream(32, list(a) + list(b))
    lhs = combined.self_join_size()
    rhs = a.self_join_size() + b.self_join_size() + 2 * a.inner_product(b)
    assert lhs == rhs
    result = run_on(a, b, seed=4)
    assert result.accepted
    assert result.value == a.inner_product(b)


def test_costs_logarithmic():
    u = 1 << 10
    a = Stream.from_items(u, [1, 2, 3])
    b = Stream.from_items(u, [2, 3, 4])
    result = run_on(a, b)
    assert result.accepted
    assert result.transcript.rounds == 10
    assert result.transcript.prover_words == 30
    assert result.verifier_space_words <= 20


def test_tampering_rejected():
    a = Stream.from_items(64, [5, 6])
    b = Stream.from_items(64, [6, 7])
    channel = Channel(tamper=flip_word(round_index=3))
    result = run_on(a, b, channel=channel)
    assert not result.accepted


def test_dimension_mismatch_rejected():
    verifier = InnerProductVerifier(F, 16, rng=random.Random(7))
    prover = BatchedSumcheckEngine(F, 64)
    assert not run_inner_product(prover, verifier).accepted


def test_end_to_end_helper_validates_universe():
    with pytest.raises(ValueError):
        inner_product_protocol(Stream(8), Stream(16), F)


def test_end_to_end_helper():
    a = Stream.from_items(32, [1, 1])
    b = Stream.from_items(32, [1])
    result = inner_product_protocol(a, b, F, rng=random.Random(8))
    assert result.accepted
    assert result.value == 2
