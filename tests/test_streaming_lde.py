"""Tests for repro.lde.streaming — Theorem 1 machinery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.modular import DEFAULT_FIELD
from repro.lde.streaming import (
    MultipointStreamingLDE,
    StreamingLDE,
    dimension_for,
)

F = DEFAULT_FIELD

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=-50, max_value=50)),
    max_size=40,
)


def test_dimension_for():
    assert dimension_for(1, 2) == 1
    assert dimension_for(2, 2) == 1
    assert dimension_for(3, 2) == 2
    assert dimension_for(64, 2) == 6
    assert dimension_for(65, 2) == 7
    assert dimension_for(9, 3) == 2
    assert dimension_for(10, 3) == 3


def test_dimension_for_validation():
    with pytest.raises(ValueError):
        dimension_for(0, 2)
    with pytest.raises(ValueError):
        dimension_for(4, 1)


@given(updates_strategy)
def test_streaming_matches_direct_binary(updates):
    rng = random.Random(5)
    lde = StreamingLDE(F, 64, ell=2, rng=rng)
    a = [0] * 64
    for i, delta in updates:
        lde.update(i, delta)
        a[i] += delta
    assert lde.value == StreamingLDE.direct_evaluate(F, a, 2, lde.point)


@pytest.mark.parametrize("ell", [2, 3, 4, 16])
def test_streaming_matches_direct_other_bases(ell):
    rng = random.Random(6)
    u = ell**3
    lde = StreamingLDE(F, u, ell=ell, rng=rng)
    a = [0] * u
    gen = random.Random(7)
    for _ in range(50):
        i = gen.randrange(u)
        delta = gen.randint(-10, 10)
        lde.update(i, delta)
        a[i] += delta
    assert lde.value == StreamingLDE.direct_evaluate(F, a, ell, lde.point)


def test_lde_agrees_with_vector_on_grid_points():
    # f_a(v) = a_v for v on the grid: evaluate the LDE at integer points.
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    for i, ai in enumerate(a):
        bits = [(i >> j) & 1 for j in range(3)]
        value = StreamingLDE.direct_evaluate(F, a, 2, bits)
        assert value == ai % F.p


@given(updates_strategy, updates_strategy)
def test_linearity(u1, u2):
    """f_{a+b}(r) = f_a(r) + f_b(r): the property making streaming work."""
    rng = random.Random(8)
    point = F.rand_vector(rng, 6)
    la = StreamingLDE(F, 64, point=point)
    lb = StreamingLDE(F, 64, point=point)
    lab = StreamingLDE(F, 64, point=point)
    for i, delta in u1:
        la.update(i, delta)
        lab.update(i, delta)
    for i, delta in u2:
        lb.update(i, delta)
        lab.update(i, delta)
    assert lab.value == F.add(la.value, lb.value)


def test_update_order_irrelevant():
    rng = random.Random(9)
    point = F.rand_vector(rng, 4)
    updates = [(3, 5), (7, -2), (3, 1), (0, 10)]
    forward = StreamingLDE(F, 16, point=point)
    backward = StreamingLDE(F, 16, point=point)
    for i, d in updates:
        forward.update(i, d)
    for i, d in reversed(updates):
        backward.update(i, d)
    assert forward.value == backward.value


def test_deletion_cancels_insertion():
    rng = random.Random(10)
    lde = StreamingLDE(F, 32, rng=rng)
    lde.update(11, 7)
    lde.update(11, -7)
    assert lde.value == 0


def test_key_out_of_universe_rejected():
    lde = StreamingLDE(F, 16, rng=random.Random(1))
    with pytest.raises(ValueError):
        lde.update(16, 1)
    with pytest.raises(ValueError):
        lde.update(-1, 1)


def test_explicit_point_used():
    point = [5, 6, 7]
    lde = StreamingLDE(F, 8, point=point)
    assert lde.point == point
    lde.update(7, 1)  # bits (1,1,1): chi = 5*6*7
    assert lde.value == 5 * 6 * 7 % F.p


def test_point_dimension_validated():
    with pytest.raises(ValueError):
        StreamingLDE(F, 8, point=[1, 2])


def test_requires_point_or_rng():
    with pytest.raises(ValueError):
        StreamingLDE(F, 8)


def test_space_accounting():
    lde = StreamingLDE(F, 1 << 20, rng=random.Random(2))
    assert lde.space_words == 21  # d + 1 = 20 + 1


def test_updates_processed_counter():
    lde = StreamingLDE(F, 8, rng=random.Random(3))
    lde.process_stream([(0, 1), (1, 2), (2, 3)])
    assert lde.updates_processed == 3


def test_multipoint_tracks_each_point():
    rng = random.Random(4)
    points = [F.rand_vector(rng, 4) for _ in range(3)]
    multi = MultipointStreamingLDE(F, 16, points)
    singles = [StreamingLDE(F, 16, point=pt) for pt in points]
    for i, delta in [(0, 3), (5, -1), (15, 4)]:
        multi.update(i, delta)
        for s in singles:
            s.update(i, delta)
    assert multi.values == [s.value for s in singles]
    assert multi.space_words == sum(s.space_words for s in singles)
