"""Prime generation and testing for protocol fields.

The protocols of the paper work over ``Z_p`` for a prime ``p`` with
``u <= p <= 2u`` (guaranteed to exist by Bertrand's postulate) or, for the
experiments, the Mersenne prime ``p = 2^61 - 1``.  This module provides a
deterministic Miller--Rabin primality test (exact for all 64-bit inputs and
overwhelmingly reliable beyond) and helpers to find such primes.
"""

from __future__ import annotations

# Witnesses proven sufficient for a deterministic Miller-Rabin test of any
# integer below 3,317,044,064,679,887,385,961,981 (> 2^81).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Mersenne prime 2^61 - 1, the field used in the paper's experiments.
MERSENNE_61 = (1 << 61) - 1

#: Mersenne prime 2^127 - 1, mentioned in Section 5 for error < 1e-35.
MERSENNE_127 = (1 << 127) - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Return True if ``n`` is prime.

    Deterministic for all inputs below 2^81; for larger inputs the fixed
    witness set still gives an error probability far below 2^-80.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _DETERMINISTIC_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime ``p >= n``."""
    if n <= 2:
        return 2
    candidate = n | 1  # first odd >= n
    while not is_prime(candidate):
        candidate += 2
    return candidate


def field_prime_for(u: int, error_exponent: int = 1) -> int:
    """Pick a protocol prime for universe size ``u``.

    With ``error_exponent=c`` the prime is at least ``u**c``, driving the
    soundness error of the (log u)-round protocols down to
    ``O(log(u) / u^c)`` (see the remarks after Theorems 4 and 5).  The
    Mersenne prime 2^61 - 1 is preferred whenever it is large enough,
    matching the experimental setup of Section 5.
    """
    if u < 1:
        raise ValueError("universe size must be positive, got %r" % (u,))
    lower = max(2, u**error_exponent)
    if lower <= MERSENNE_61:
        return MERSENNE_61
    if lower <= MERSENNE_127:
        return MERSENNE_127
    return next_prime(lower)
