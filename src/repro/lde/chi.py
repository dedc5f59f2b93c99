"""Lagrange basis (indicator) polynomials and base-ℓ digit tools.

Equation (2) of the paper: over the evaluation set ``[ℓ] = {0,..,ℓ-1}``,

    χ_k(x) = Π_{j != k} (x - j) / (k - j)

is 1 at ``x = k`` and 0 at every other point of ``[ℓ]``.  The d-variate
indicator of ``v ∈ [ℓ]^d`` is the product ``χ_v(x) = Π_j χ_{v_j}(x_j)``
(equation (1)), which is the building block of every LDE in the library.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.field.modular import PrimeField


def digits(i: int, ell: int, d: int) -> List[int]:
    """Base-ℓ digits of ``i``, least-significant first, padded to length d.

    This is the canonical remapping ``v(i)`` of a key ``i ∈ [u]`` into the
    grid ``[ℓ]^d`` used throughout Sections 2-4.
    """
    if i < 0:
        raise ValueError("key must be non-negative, got %d" % i)
    out = []
    for _ in range(d):
        out.append(i % ell)
        i //= ell
    if i:
        raise ValueError("key does not fit in %d base-%d digits" % (d, ell))
    return out


def from_digits(v: Sequence[int], ell: int) -> int:
    """Inverse of :func:`digits`."""
    out = 0
    for digit in reversed(v):
        if not 0 <= digit < ell:
            raise ValueError("digit %r out of range [0, %d)" % (digit, ell))
        out = out * ell + digit
    return out


def chi_value(field: PrimeField, ell: int, k: int, x: int) -> int:
    """Evaluate the basis polynomial ``χ_k`` (over ``[ℓ]``) at ``x``.

    O(ℓ) field operations, straight from equation (2).
    """
    if not 0 <= k < ell:
        raise ValueError("basis index %d out of range [0, %d)" % (k, ell))
    p = field.p
    num = 1
    den = 1
    for j in range(ell):
        if j == k:
            continue
        num = num * (x - j) % p
        den = den * (k - j) % p
    return num * field.inv(den) % p


@lru_cache(maxsize=512)
def _chi_denominator_inverses(p: int, ell: int) -> Tuple[int, ...]:
    """Inverses of ``Π_{j != k} (k - j)`` for all k — independent of x."""
    denoms = []
    for k in range(ell):
        d = 1
        for j in range(ell):
            if j != k:
                d = d * (k - j) % p
        denoms.append(d)
    # Montgomery batch inversion with plain ints (no PrimeField needed).
    prefix = []
    acc = 1
    for d in denoms:
        acc = acc * d % p
        prefix.append(acc)
    inv_acc = pow(acc, p - 2, p)
    out = [0] * ell
    for k in range(ell - 1, 0, -1):
        out[k] = prefix[k - 1] * inv_acc % p
        inv_acc = inv_acc * denoms[k] % p
    out[0] = inv_acc
    return tuple(out)


#: Tables wider than this bypass the memoisation cache: the cache exists
#: for the ℓ = 2..16 protocol tables that are rebuilt constantly, not
#: for the ℓ ~ √u single-round tables, which would pin large memory.
_CHI_CACHE_MAX_ELL = 64


def _chi_table_impl(p: int, ell: int, x: int) -> Tuple[int, ...]:
    """Body of :func:`chi_table`; ``x`` is canonical in ``[0, p)``."""
    if x < ell:
        # x lies in the evaluation set: the table is an indicator vector.
        out = [0] * ell
        out[x] = 1
        return tuple(out)
    prefix = [1] * ell  # prefix[k] = prod_{j<k} (x - j)
    for k in range(1, ell):
        prefix[k] = prefix[k - 1] * (x - (k - 1)) % p
    suffix = [1] * ell  # suffix[k] = prod_{j>k} (x - j)
    for k in range(ell - 2, -1, -1):
        suffix[k] = suffix[k + 1] * (x - (k + 1)) % p
    inverses = _chi_denominator_inverses(p, ell)
    return tuple(
        prefix[k] * suffix[k] % p * inverses[k] % p for k in range(ell)
    )


_chi_table_cached = lru_cache(maxsize=4096)(_chi_table_impl)


def chi_table(field: PrimeField, ell: int, x: int) -> List[int]:
    """All basis values ``[χ_0(x), ..., χ_{ℓ-1}(x)]`` in O(ℓ) total.

    Uses prefix/suffix products of ``(x - j)`` and a batch inversion of the
    factorial denominators, so building the per-dimension lookup tables for
    a streaming LDE costs O(dℓ) once instead of O(dℓ) *per update*.

    Results for small ℓ are memoised on ``(p, ℓ, x)``:
    :class:`MultipointStreamingLDE` instances sharing coordinates and
    repeated protocol repetitions reuse tables instead of recomputing
    them.  Wide tables (ℓ > 64, e.g. the single-round √u grids) are
    computed fresh to keep the cache's footprint bounded.
    """
    x %= field.p
    if ell > _CHI_CACHE_MAX_ELL:
        return list(_chi_table_impl(field.p, ell, x))
    return list(_chi_table_cached(field.p, ell, x))


def multilinear_chi(field: PrimeField, bits: Sequence[int], point: Sequence[int]) -> int:
    """χ_v(x) for ℓ = 2: ``Π_j ((1 - x_j)(1 - v_j) + x_j v_j)``.

    For the binary grid the basis polynomials collapse to
    ``χ_0(x) = 1 - x`` and ``χ_1(x) = x``, which is the fast path used by
    every ℓ = 2 protocol (Appendix B.1).
    """
    if len(bits) != len(point):
        raise ValueError("bit vector and point have different dimensions")
    p = field.p
    acc = 1
    for bit, x in zip(bits, point):
        if bit:
            acc = acc * x % p
        else:
            acc = acc * (1 - x) % p
    return acc


def monomial_weight(field: PrimeField, bits: Sequence[int], point: Sequence[int]) -> int:
    """``Π_j x_j^{v_j}`` — the *unnormalised* tree-hash weight of Section 4.

    Equation (8): with hash ``v = v_L + r_j v_R`` the stream contribution of
    key ``i`` is ``Π_j r_j^{bit_j(i)}``.  The Appendix B.2 remark notes the
    variant ``(1-r_j) v_L + r_j v_R`` recovers :func:`multilinear_chi`.
    """
    if len(bits) != len(point):
        raise ValueError("bit vector and point have different dimensions")
    p = field.p
    acc = 1
    for bit, x in zip(bits, point):
        if bit:
            acc = acc * x % p
    return acc
