"""Tests for repro.field.polynomial."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.polynomial import coefficients_from_evals, evaluate_from_evals

F = DEFAULT_FIELD
SMALL = PrimeField(257)  # above the largest table tested
coeff = st.integers(min_value=-1000, max_value=1000)
coeff_lists = st.lists(coeff, max_size=8)


def horner(field, coeffs, x):
    """The oracle: ``Σ_k coeffs[k]·x^k mod p``."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % field.p
    return acc


def padded(field, coeffs, m):
    return [c % field.p for c in coeffs] + [0] * (m - len(coeffs))


# -- coefficients_from_evals: the frequency-based prover's h~ ----------------


@pytest.mark.parametrize("field", [F, SMALL], ids=["m61", "p257"])
@pytest.mark.parametrize("m", [1, 2, 3, 240])
def test_coefficients_from_evals_match_evaluate_from_evals(field, m):
    rng = random.Random(m)
    evals = [rng.randrange(field.p) for _ in range(m)]
    coeffs = coefficients_from_evals(field, evals)
    assert len(coeffs) == m
    for x in [rng.randrange(field.p) for _ in range(8)] + [0, m - 1]:
        assert horner(field, coeffs, x) == evaluate_from_evals(field, evals, x)


def test_zero_polynomial_degree():
    assert coefficients_from_evals(F, [0, 0, 0]) == [0, 0, 0]


def test_constant():
    assert coefficients_from_evals(F, [42] * 5) == [42, 0, 0, 0, 0]


@given(coeff_lists, st.integers(min_value=-100, max_value=100))
def test_horner_evaluation_matches_reference(coeffs, x):
    m = max(len(coeffs), 1)
    evals = [horner(F, coeffs, i) for i in range(m)]
    expected = sum(c * x**k for k, c in enumerate(coeffs)) % F.p
    assert horner(F, coefficients_from_evals(F, evals), x) == expected


@given(coeff_lists, coeff_lists)
def test_add_is_pointwise(a, b):
    m = max(len(a), len(b), 1)
    ea = [horner(F, a, i) for i in range(m)]
    eb = [horner(F, b, i) for i in range(m)]
    assert coefficients_from_evals(F, [F.add(x, y) for x, y in zip(ea, eb)]) \
        == [F.add(x, y) for x, y in zip(coefficients_from_evals(F, ea),
                                         coefficients_from_evals(F, eb))]


@given(coeff_lists, coeff_lists)
def test_sub_is_pointwise(a, b):
    m = max(len(a), len(b), 1)
    ea = [horner(F, a, i) for i in range(m)]
    eb = [horner(F, b, i) for i in range(m)]
    assert coefficients_from_evals(F, [F.sub(x, y) for x, y in zip(ea, eb)]) \
        == [F.sub(x, y) for x, y in zip(coefficients_from_evals(F, ea),
                                         coefficients_from_evals(F, eb))]


@given(coeff_lists, coeff_lists)
def test_mul_is_pointwise(a, b):
    """Pointwise products of evaluation tables long enough for the
    product are the convolution of the coefficient vectors."""
    m = max(len(a) + len(b) - 1, 1)
    product = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    evals = [F.mul(horner(F, a, i), horner(F, b, i)) for i in range(m)]
    assert coefficients_from_evals(F, evals) == padded(F, product, m)


@given(coeff_lists, coeff)
def test_scale_is_pointwise(a, c):
    m = max(len(a), 1)
    evals = [horner(F, a, i) for i in range(m)]
    assert coefficients_from_evals(F, [F.mul(c, v) for v in evals]) == \
        [F.mul(c, v) for v in coefficients_from_evals(F, evals)]


def test_interpolate_recovers_polynomial():
    rng = random.Random(3)
    coeffs = [rng.randrange(F.p) for _ in range(6)]
    evals = [horner(F, coeffs, x) for x in range(6)]
    assert coefficients_from_evals(F, evals) == coeffs


@given(st.lists(coeff, min_size=1, max_size=8))
def test_interpolation_passes_through_points(evals):
    for field in (F, SMALL):
        coeffs = coefficients_from_evals(field, evals)
        assert len(coeffs) == len(evals)
        for x, y in enumerate(evals):
            assert horner(field, coeffs, x) == y % field.p


def test_interpolation_rejects_duplicate_x():
    # Six consecutive points in Z_5 repeat 0 = 5.
    with pytest.raises(ZeroDivisionError):
        coefficients_from_evals(PrimeField(5), [1, 2, 3, 4, 0, 1])
    with pytest.raises(ValueError):
        coefficients_from_evals(F, [])


# -- evaluate_from_evals: the protocol message format -------------------------


@given(coeff_lists.filter(lambda c: len(c) >= 1),
       st.integers(min_value=0, max_value=2**61 - 2))
def test_evaluate_from_evals_matches_polynomial(coeffs, x):
    evals = [horner(F, coeffs, i) for i in range(len(coeffs))]
    assert evaluate_from_evals(F, evals, x) == horner(F, coeffs, x)


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
    coeffs = [5, 4, 3, 2]
    for m in (4, 5, 6):
        evals = [horner(F, coeffs, i) for i in range(m)]
        assert evaluate_from_evals(F, evals, 777) == horner(F, coeffs, 777)
