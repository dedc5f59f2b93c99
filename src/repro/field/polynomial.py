"""Univariate polynomials over a prime field.

Two representations are used by the protocols:

* coefficient vectors (:class:`Polynomial`) — used by the verifier when it
  must *store* a polynomial, e.g. the interpolant ``h~`` of Section 6.2; and
* evaluation tables at the consecutive points ``0, 1, ..., m-1`` — the wire
  format for every prover message (a degree-D message is the table of D+1
  evaluations).  :func:`evaluate_from_evals` lets the verifier evaluate such
  a message at its secret point ``r_j`` in O(m) field operations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.field.modular import PrimeField


class Polynomial:
    """Dense univariate polynomial with coefficients in ``Z_p``.

    ``coeffs[k]`` is the coefficient of ``x**k``; trailing zeros are
    stripped so ``degree`` is exact (the zero polynomial has degree -1).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence[int]):
        self.field = field
        reduced = [c % field.p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        self.coeffs = reduced

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "Polynomial":
        return cls(field, [c])

    @classmethod
    def interpolate(
        cls, field: PrimeField, points: Sequence[Tuple[int, int]]
    ) -> "Polynomial":
        """Lagrange interpolation through ``(x, y)`` pairs with distinct x.

        O(m^2) field operations; used for small m (protocol messages and
        the ``h~`` interpolant), never on data-sized inputs.
        """
        xs = [x % field.p for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must have distinct x")
        result = cls.zero(field)
        for k, (xk, yk) in enumerate(points):
            # basis_k(x) = prod_{j != k} (x - x_j) / (x_k - x_j)
            basis = cls.constant(field, 1)
            denom = 1
            for j, (xj, _) in enumerate(points):
                if j == k:
                    continue
                basis = basis * cls(field, [-xj, 1])
                denom = denom * (xk - xj) % field.p
            scale = yk * field.inv(denom) % field.p
            result = result + basis.scale(scale)
        return result

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        """Horner evaluation at ``x``."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    # -- arithmetic ------------------------------------------------------------

    def _check_field(self, other: "Polynomial") -> None:
        if other.field.p != self.field.p:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial(self.field, [x - y for x, y in zip(a, b)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, out)

    def scale(self, c: int) -> "Polynomial":
        p = self.field.p
        return Polynomial(self.field, [coef * c % p for coef in self.coeffs])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field.p == self.field.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return "Polynomial(%r)" % (self.coeffs,)


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
