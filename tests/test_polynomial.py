"""Tests for repro.field.polynomial."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.polynomial import Polynomial, evaluate_from_evals

F = DEFAULT_FIELD
coeff = st.integers(min_value=-1000, max_value=1000)
coeff_lists = st.lists(coeff, max_size=8)


def poly(coeffs):
    return Polynomial(F, coeffs)


def test_zero_polynomial_degree():
    assert Polynomial.zero(F).degree == -1
    assert poly([0, 0, 0]).degree == -1


def test_trailing_zero_stripping():
    p = poly([1, 2, 0, 0])
    assert p.coeffs == [1, 2]
    assert p.degree == 1


def test_constant():
    c = Polynomial.constant(F, 42)
    assert c.degree == 0
    assert c(123456) == 42


@given(coeff_lists, st.integers(min_value=-100, max_value=100))
def test_horner_evaluation_matches_reference(coeffs, x):
    p = poly(coeffs)
    expected = sum(c * x**k for k, c in enumerate(coeffs)) % F.p
    assert p(x) == expected


@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=50))
def test_add_is_pointwise(a, b, x):
    assert (poly(a) + poly(b))(x) == F.add(poly(a)(x), poly(b)(x))


@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=50))
def test_sub_is_pointwise(a, b, x):
    assert (poly(a) - poly(b))(x) == F.sub(poly(a)(x), poly(b)(x))


@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=50))
def test_mul_is_pointwise(a, b, x):
    assert (poly(a) * poly(b))(x) == F.mul(poly(a)(x), poly(b)(x))


@given(coeff_lists, coeff, st.integers(min_value=0, max_value=50))
def test_scale_is_pointwise(a, c, x):
    assert poly(a).scale(c)(x) == F.mul(c, poly(a)(x))


@given(coeff_lists, coeff_lists)
def test_mul_degree_additive(a, b):
    pa, pb = poly(a), poly(b)
    prod = pa * pb
    if pa.degree < 0 or pb.degree < 0:
        assert prod.degree == -1
    else:
        assert prod.degree == pa.degree + pb.degree


def test_mixed_field_arithmetic_rejected():
    other = Polynomial(PrimeField(13), [1])
    with pytest.raises(ValueError):
        poly([1]) + other


def test_interpolate_recovers_polynomial():
    rng = random.Random(3)
    coeffs = [rng.randrange(F.p) for _ in range(6)]
    p = poly(coeffs)
    points = [(x, p(x)) for x in range(6)]
    assert Polynomial.interpolate(F, points) == p


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30), coeff),
                min_size=1, max_size=6,
                unique_by=lambda t: t[0]))
def test_interpolation_passes_through_points(points):
    p = Polynomial.interpolate(F, points)
    for x, y in points:
        assert p(x) == y % F.p
    assert p.degree < len(points)


def test_interpolation_rejects_duplicate_x():
    with pytest.raises(ValueError):
        Polynomial.interpolate(F, [(1, 2), (1, 3)])


def test_equality_and_hash():
    assert poly([1, 2]) == poly([1, 2, 0])
    assert hash(poly([1, 2])) == hash(poly([1, 2, 0]))
    assert poly([1]) != poly([2])


# -- evaluate_from_evals: the protocol message format -------------------------


@given(coeff_lists.filter(lambda c: len(c) >= 1),
       st.integers(min_value=0, max_value=2**61 - 2))
def test_evaluate_from_evals_matches_polynomial(coeffs, x):
    p = poly(coeffs)
    m = max(len(coeffs), 1)
    evals = [p(i) for i in range(m)]
    assert evaluate_from_evals(F, evals, x) == p(x)


def test_evaluate_from_evals_at_grid_point_is_lookup():
    evals = [10, 20, 30]
    assert evaluate_from_evals(F, evals, 1) == 20


def test_evaluate_from_evals_single_point_is_constant():
    assert evaluate_from_evals(F, [7], 999) == 7


def test_evaluate_from_evals_empty_rejected():
    with pytest.raises(ValueError):
        evaluate_from_evals(F, [], 3)


def test_evaluate_from_evals_degree_two_closed_form():
    # g(x) = x^2: evals at 0,1,2 are 0,1,4.
    for x in (5, 17, 123456789):
        assert evaluate_from_evals(F, [0, 1, 4], x) == x * x % F.p


def test_evaluate_from_evals_works_in_small_field():
    small = PrimeField(101)
    # p(x) = 3x + 7 over Z_101.
    evals = [(3 * i + 7) % 101 for i in range(2)]
    for x in range(101):
        assert evaluate_from_evals(small, evals, x) == (3 * x + 7) % 101


def test_denominator_cache_consistency_across_lengths():
    # Different message lengths must not contaminate each other's caches.
    p = poly([5, 4, 3, 2])
    for m in (4, 5, 6):
        evals = [p(i) for i in range(m)]
        assert evaluate_from_evals(F, evals, 777) == p(777)
