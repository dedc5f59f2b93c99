"""Tests for repro.field.modular (the Z_p arithmetic substrate)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.primes import MERSENNE_61

F = DEFAULT_FIELD
elements = st.integers(min_value=-(2**80), max_value=2**80)
canonical = st.integers(min_value=0, max_value=F.p - 1)


def test_constructor_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_constructor_check_can_be_skipped():
    # check_prime=False is for known primes (used by DEFAULT_FIELD).
    f = PrimeField(MERSENNE_61, check_prime=False)
    assert f.p == MERSENNE_61


def test_default_field_is_paper_field():
    assert F.p == 2**61 - 1
    assert F.word_bytes == 8


@given(elements)
def test_reduce_canonical(a):
    assert 0 <= F.reduce(a) < F.p


@given(elements, elements)
def test_add_commutative(a, b):
    assert F.add(a, b) == F.add(b, a)


@given(elements, elements, elements)
def test_add_associative(a, b, c):
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


@given(elements, elements, elements)
def test_mul_distributes_over_add(a, b, c):
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(elements)
def test_additive_inverse(a):
    assert F.add(a, F.sub(0, a)) == 0


@given(elements, elements)
def test_sub_is_add_neg(a, b):
    assert F.sub(a, b) == F.add(a, -b % F.p)


@given(canonical.filter(lambda x: x != 0))
def test_multiplicative_inverse(a):
    assert F.mul(a, F.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.p)  # zero in canonical form


@given(canonical.filter(lambda x: x != 0), canonical)
def test_div_then_mul_roundtrip(a, b):
    assert F.mul(F.mul(b, F.inv(a)), a) == F.reduce(b)


@given(canonical, st.integers(min_value=0, max_value=1000))
def test_pow_matches_builtin(a, e):
    assert F.pow(a, e) == pow(a, e, F.p)


@given(canonical.filter(lambda x: x != 0), st.integers(min_value=1, max_value=50))
def test_negative_exponent(a, e):
    assert F.mul(F.pow(a, e), F.pow(a, -e)) == 1


def test_fermat_little_theorem():
    rng = random.Random(1)
    for _ in range(10):
        a = rng.randrange(1, F.p)
        assert F.pow(a, F.p - 1) == 1


@given(st.lists(elements, max_size=20))
def test_sum_matches_python_sum(xs):
    assert F.sum(xs) == sum(xs) % F.p


@given(st.lists(elements, max_size=12))
def test_prod_matches_reference(xs):
    expected = 1
    for x in xs:
        expected = expected * x % F.p
    assert F.prod(xs) == expected


@given(st.lists(st.tuples(elements, elements), max_size=15))
def test_dot_matches_reference(pairs):
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    assert F.dot(xs, ys) == sum(a * b for a, b in pairs) % F.p


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        F.dot([1, 2], [1])


@given(st.lists(canonical.filter(lambda x: x != 0), min_size=1, max_size=25))
def test_batch_inv_matches_single(xs):
    batch = F.batch_inv(xs)
    assert batch == [F.inv(x) for x in xs]


def test_batch_inv_empty():
    assert F.batch_inv([]) == []


def test_batch_inv_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        F.batch_inv([3, 0, 5])


def test_rand_in_range():
    rng = random.Random(7)
    for _ in range(100):
        assert 0 <= F.rand(rng) < F.p


def test_rand_vector_length_and_range():
    rng = random.Random(8)
    v = F.rand_vector(rng, 17)
    assert len(v) == 17
    assert all(0 <= x < F.p for x in v)


def test_contains():
    assert 0 in F
    assert F.p - 1 in F
    assert F.p not in F
    assert -1 not in F


def test_equality_and_hash():
    other = PrimeField(F.p, check_prime=False)
    assert F == other
    assert hash(F) == hash(other)
    assert F != PrimeField(13)


def test_repr():
    assert "2305843009213693951" in repr(F)
