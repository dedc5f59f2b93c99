"""Univariate polynomials over a prime field, held as evaluation tables.

A polynomial of degree < m is the table of its values at the consecutive
points ``0, 1, ..., m-1`` — the wire format for every prover message (a
degree-D message is the table of D+1 evaluations) and the verifier's
form of the interpolant ``h~`` of Section 6.2.
:func:`evaluate_from_evals` evaluates such a table at the verifier's
secret point ``r_j`` in O(m) field operations;
:func:`coefficients_from_evals` gives the prover the monomial
coefficients in O(m^2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.field.modular import PrimeField


# Cache of factorial-product tables keyed by (p, m): for consecutive-point
# interpolation the denominator of basis k is k! * (m-1-k)! * (-1)^(m-1-k).
_DENOM_CACHE: Dict[Tuple[int, int], List[int]] = {}


def _denominator_inverses(field: PrimeField, m: int) -> List[int]:
    key = (field.p, m)
    cached = _DENOM_CACHE.get(key)
    if cached is not None:
        return cached
    p = field.p
    fact = [1] * m
    for k in range(1, m):
        fact[k] = fact[k - 1] * k % p
    denoms = []
    for k in range(m):
        d = fact[k] * fact[m - 1 - k] % p
        if (m - 1 - k) % 2 == 1:
            d = (-d) % p
        denoms.append(d)
    inverses = field.batch_inv(denoms)
    _DENOM_CACHE[key] = inverses
    return inverses


def evaluate_from_evals(field: PrimeField, evals: Sequence[int], x: int) -> int:
    """Evaluate at ``x`` the unique degree < m interpolant through
    ``(0, evals[0]), ..., (m-1, evals[m-1])``.

    O(m) field multiplications via prefix/suffix products.  This is how the
    verifier evaluates a prover message ``g_j`` at its secret coordinate
    ``r_j`` without ever forming coefficients.
    """
    m = len(evals)
    if m == 0:
        raise ValueError("cannot interpolate an empty evaluation table")
    p = field.p
    x %= p
    if x < m:
        return evals[x] % p
    weights = interpolation_weights(field, m, x)
    return sum(evals[k] * weights[k] for k in range(m)) % p


def interpolation_weights(field: PrimeField, m: int, x: int) -> List[int]:
    """Lagrange weights w_k with interpolant(x) = Σ_k evals[k]·w_k.

    ``prefix[k] = Π_{j<k} (x - j)``, ``suffix[k] = Π_{j>k} (x - j)``, and
    the factorial denominators are cached.  Depends only on (m, x), so
    one weight vector serves every same-length message of a batched
    round at the shared challenge (Section 7, "Multiple Queries") — and
    :func:`evaluate_from_evals`.  At a node ``x < m`` the weights are the
    indicator of ``x``.
    """
    p = field.p
    prefix = [1] * m
    for k in range(1, m):
        prefix[k] = prefix[k - 1] * (x - (k - 1)) % p
    suffix = [1] * m
    for k in range(m - 2, -1, -1):
        suffix[k] = suffix[k + 1] * (x - (k + 1)) % p
    denom_inv = _denominator_inverses(field, m)
    return [
        prefix[k] * suffix[k] % p * denom_inv[k] % p for k in range(m)
    ]


def coefficients_from_evals(field: PrimeField, evals: Sequence[int]
                            ) -> List[int]:
    """``[c_0, ..., c_{m-1}]`` with ``Σ_k c_k·x^k`` the degree < m
    interpolant through ``(0, evals[0]), ..., (m-1, evals[m-1])``.

    O(m^2): the forward differences give the Newton form
    ``Σ_k Δ^k h(0)/k! · x(x-1)···(x-k+1)``, and Horner over its nested
    factors ``(x - k)`` turns that into monomial coefficients.
    """
    m = len(evals)
    if m == 0:
        raise ValueError("cannot interpolate an empty evaluation table")
    p = field.p
    row = [v % p for v in evals]
    newton = []
    for _ in range(m):
        newton.append(row[0])
        row = [(b - a) % p for a, b in zip(row, row[1:])]
    fact = 1
    for k in range(2, m):
        fact = fact * k % p
    inv_fact = field.inv(fact)  # 1/(m-1)!
    coeffs = [newton[m - 1] * inv_fact % p]
    for k in range(m - 2, -1, -1):
        inv_fact = inv_fact * (k + 1) % p  # 1/k!
        # coeffs·(x - k) + Δ^k h(0)/k!
        coeffs = [(newton[k] * inv_fact - k * coeffs[0]) % p] + [
            (lo - k * hi) % p for lo, hi in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    return coeffs
