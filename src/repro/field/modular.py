"""Prime-field arithmetic ``Z_p``.

Field elements are plain Python integers in ``[0, p)``; a :class:`PrimeField`
instance carries the modulus and provides the operations.  This matches the
paper's cost model: one "word" is one field element (8 bytes for the
experimental field ``p = 2^61 - 1``).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from repro.field.primes import MERSENNE_61, is_prime


class PrimeField:
    """The finite field ``Z_p`` for a prime ``p``.

    Elements are canonical integers in ``[0, p)``.  All methods reduce their
    result; inputs may be any integers (negative values are accepted and
    reduced, which is how stream deletions ``delta < 0`` enter the field).
    """

    __slots__ = ("p", "_word_bytes")

    def __init__(self, p: int, check_prime: bool = True):
        if check_prime and not is_prime(p):
            raise ValueError("field modulus must be prime, got %d" % p)
        self.p = p
        self._word_bytes = (p.bit_length() + 7) // 8

    # -- basic arithmetic --------------------------------------------------

    def reduce(self, a: int) -> int:
        """Canonical representative of ``a`` in ``[0, p)``."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def pow(self, a: int, e: int) -> int:
        """``a**e mod p``; negative exponents use the inverse."""
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in Z_%d" % self.p)
        # Fermat's little theorem; pow() is the fastest route in CPython.
        return pow(a, self.p - 2, self.p)

    # -- aggregate helpers ---------------------------------------------------

    def sum(self, values: Iterable[int]) -> int:
        return sum(values) % self.p

    def prod(self, values: Iterable[int]) -> int:
        out = 1
        p = self.p
        for v in values:
            out = out * v % p
        return out

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Inner product of two equal-length vectors."""
        if len(xs) != len(ys):
            raise ValueError("dot of vectors with different lengths")
        return sum(x * y for x, y in zip(xs, ys)) % self.p

    def batch_inv(self, values: Sequence[int]) -> List[int]:
        """Inverses of all values with a single modular inversion.

        Standard Montgomery batch-inversion trick: one ``inv`` plus
        ``3(n-1)`` multiplications.  All values must be nonzero mod p.
        """
        if not values:
            return []
        p = self.p
        prefix: List[int] = []
        acc = 1
        for v in values:
            v %= p
            if v == 0:
                raise ZeroDivisionError("batch_inv of a zero element")
            acc = acc * v % p
            prefix.append(acc)
        inv_acc = self.inv(acc)
        out = [0] * len(values)
        for k in range(len(values) - 1, 0, -1):
            out[k] = prefix[k - 1] * inv_acc % p
            inv_acc = inv_acc * (values[k] % p) % p
        out[0] = inv_acc
        return out

    # -- randomness and sizes ------------------------------------------------

    def rand(self, rng: random.Random) -> int:
        """Uniform field element drawn from ``rng``."""
        return rng.randrange(self.p)

    def rand_vector(self, rng: random.Random, length: int) -> List[int]:
        return [rng.randrange(self.p) for _ in range(length)]

    @property
    def word_bytes(self) -> int:
        """Bytes needed to store one field element ("word" in the paper)."""
        return self._word_bytes

    # -- dunder conveniences ---------------------------------------------------

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return "PrimeField(p=%d)" % self.p


#: The field used by the paper's experimental study (Section 5).
DEFAULT_FIELD = PrimeField(MERSENNE_61, check_prime=False)
