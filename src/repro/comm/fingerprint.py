"""Fingerprints of sequences over ``Z_p``: a polynomial in a secret key.

A fingerprint of the sequence ``w_1..w_m`` under a secret key ``z`` is
``Σ_k w_k · z^k mod p``.  Two distinct sequences of length ≤ m collide
with probability at most ``m/p`` over the choice of z (Schwartz–Zippel).

Used by (a) the low-space heavy-hitters variant of Section 6.1 — the
verifier remembers one word per level instead of O(1/φ) records — and
(b) the [28]-style "ship the answer" baseline (``repro.baselines``),
where the verifier checks a claimed frequency vector against a streamed
fingerprint.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.field.modular import PrimeField


class SequenceFingerprint:
    """Incrementally fingerprints a sequence of words under key ``z``."""

    __slots__ = ("field", "z", "value", "length", "_power")

    def __init__(self, field: PrimeField, z: Optional[int] = None,
                 rng: Optional[random.Random] = None):
        self.field = field
        if z is None:
            if rng is None:
                raise ValueError("provide either a key z or an rng")
            z = field.rand(rng)
        self.z = z % field.p
        self.value = 0
        self.length = 0
        self._power = self.z  # z^(length+1)

    def absorb(self, word: int) -> None:
        p = self.field.p
        self.value = (self.value + word * self._power) % p
        self._power = self._power * self.z % p
        self.length += 1

    def absorb_all(self, words: Iterable[int]) -> None:
        for w in words:
            self.absorb(w)

    @property
    def space_words(self) -> int:
        return 3  # z, value, current power (length is a machine counter)


def fingerprint_words(field: PrimeField, z: int,
                      words: Iterable[int]) -> int:
    """One-shot fingerprint of a word sequence."""
    fp = SequenceFingerprint(field, z=z)
    fp.absorb_all(words)
    return fp.value


class StreamFingerprint:
    """Fingerprint of a *frequency vector* built from stream updates.

    ``F(a) = Σ_i a_i · z^(i+1)``: linear in a, so it is maintained under
    turnstile updates in O(1) words — the synopsis of Yi et al. [28] used
    by the ship-the-answer baseline.  Note the difference from
    :class:`SequenceFingerprint`: position = key, not arrival order.
    """

    __slots__ = ("field", "u", "z", "value")

    def __init__(self, field: PrimeField, u: int,
                 z: Optional[int] = None,
                 rng: Optional[random.Random] = None):
        self.field = field
        self.u = u
        if z is None:
            if rng is None:
                raise ValueError("provide either a key z or an rng")
            z = field.rand(rng)
        self.z = z % field.p

        self.value = 0

    def update(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        p = self.field.p
        self.value = (self.value + delta * pow(self.z, i + 1, p)) % p

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.update(i, delta)

    def matches_claimed_vector(self, entries) -> bool:
        """Does the streamed fingerprint equal that of a claimed sparse
        vector ``[(key, value), ...]``?  Error ≤ u/p on a mismatch."""
        p = self.field.p
        claimed = 0
        for i, value in entries:
            if not 0 <= i < self.u:
                return False
            claimed = (claimed + value * pow(self.z, i + 1, p)) % p
        return claimed == self.value

    @property
    def space_words(self) -> int:
        return 2  # z and the running value
