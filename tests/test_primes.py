"""Tests for repro.field.primes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.primes import (
    MERSENNE_61,
    MERSENNE_127,
    field_prime_for,
    is_prime,
    next_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 101, 65_537, 2_147_483_647]
KNOWN_COMPOSITES = [1, 4, 6, 9, 15, 100, 65_536, 2_147_483_649]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites(n):
    assert not is_prime(n)


def test_zero_and_negatives_not_prime():
    assert not is_prime(0)
    assert not is_prime(-7)


def test_mersenne_constants_are_prime():
    assert MERSENNE_61 == 2**61 - 1
    assert MERSENNE_127 == 2**127 - 1
    assert is_prime(MERSENNE_61)
    assert is_prime(MERSENNE_127)


def test_carmichael_numbers_rejected():
    # Classic Miller-Rabin stress cases (Fermat pseudoprimes).
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(carmichael)


def test_next_prime_small_values():
    assert next_prime(0) == 2
    assert next_prime(2) == 2
    assert next_prime(3) == 3
    assert next_prime(4) == 5
    assert next_prime(14) == 17


@given(st.integers(min_value=2, max_value=10**6))
def test_next_prime_is_prime_and_minimal(n):
    p = next_prime(n)
    assert p >= n
    assert is_prime(p)
    # No prime in [n, p): check the gap by trial division (gap is small).
    for q in range(n, p):
        assert not is_prime(q)


@given(st.integers(min_value=1, max_value=10**9))
def test_bertrand_prime_in_range(u):
    """The paper's prime-size rule: a prime in [u, 2u] exists (Bertrand's
    postulate), and the first one at or above u is it."""
    p = next_prime(u)
    assert is_prime(p)
    assert u <= p <= 2 * u or (u == 1 and p == 2)


def test_field_prime_for_prefers_mersenne61():
    assert field_prime_for(10**6) == MERSENNE_61
    assert field_prime_for(2**60) == MERSENNE_61


def test_field_prime_for_error_exponent():
    # u^2 beyond 2^61 pushes to the bigger Mersenne prime.
    assert field_prime_for(2**40, error_exponent=2) == MERSENNE_127


def test_field_prime_for_huge_universe():
    p = field_prime_for(2**128)
    assert is_prime(p)
    assert p >= 2**128


def test_field_prime_for_rejects_nonpositive():
    with pytest.raises(ValueError):
        field_prime_for(0)
