"""The single-round (√u, √u) F2 protocol of Chakrabarti et al. [6].

This is the experimental comparator of Section 5: our multi-round protocol
viewed with d = 2 and ℓ = √u.  The data is arranged as an ℓ × ℓ matrix;
the verifier keeps one random coordinate r and the row restriction
``f_a(r, y)`` for every y ∈ [ℓ] (√u words).  The prover sends the single
polynomial ``g(X) = Σ_y f_a(X, y)²`` of degree 2(ℓ-1) as 2ℓ-1 evaluations
(√u words), and the verifier checks ``g(r) = Σ_y f_a(r, y)²``.

Costs (the paper's Figure 2 shapes): verifier space and communication
Θ(√u); honest prover time Θ(u^{3/2}) — visibly super-linear versus the
multi-round prover's Θ(u).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, accepted, rejected
from repro.field.modular import PrimeField
from repro.field.polynomial import evaluate_from_evals
from repro.lde.chi import chi_table


def matrix_side(u: int) -> int:
    """Smallest ℓ with ℓ² >= u."""
    if u < 1:
        raise ValueError("universe size must be positive, got %r" % (u,))
    ell = math.isqrt(u)
    if ell * ell < u:
        ell += 1
    return max(ell, 2)


class SingleRoundF2Prover:
    """Stores the ℓ × ℓ matrix; builds the one proof polynomial."""

    def __init__(self, field: PrimeField, u: int):
        self.field = field
        self.u = u
        self.ell = matrix_side(u)
        self.freq: List[int] = [0] * (self.ell * self.ell)

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.freq[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def proof_message(self) -> List[int]:
        """Evaluations of g at 0..2ℓ-2 — Θ(u^{3/2}) work.

        For each evaluation point c, rebuild the χ table over [ℓ] at c
        (O(ℓ)) and accumulate Σ_y (Σ_x a[x,y]·χ_x(c))².
        """
        p = self.field.p
        ell = self.ell
        freq = self.freq
        out = []
        for c in range(2 * ell - 1):
            table = chi_table(self.field, ell, c)
            acc = 0
            base = 0
            for _y in range(ell):
                row_value = 0
                for x in range(ell):
                    a = freq[base + x]
                    if a:
                        row_value += a * table[x]
                row_value %= p
                acc += row_value * row_value
                base += ell
            out.append(acc % p)
        return out


class SingleRoundF2Verifier:
    """√u-space streaming verifier with a χ lookup table (as in Sec. 5)."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        rng: Optional[random.Random] = None,
        r: Optional[int] = None,
    ):
        self.field = field
        self.u = u
        self.ell = matrix_side(u)
        if r is None:
            if rng is None:
                rng = random.Random()
            r = field.rand(rng)
        self.r = r % field.p
        # Lookup table χ_x(r) for all x: the "slight advantage" the paper
        # notes the one-round verifier has within its O(√u) space budget.
        self._chi_at_r = chi_table(field, self.ell, self.r)
        self.row_values: List[int] = [0] * self.ell

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        x = i % self.ell
        y = i // self.ell
        p = self.field.p
        self.row_values[y] = (self.row_values[y] + delta * self._chi_at_r[x]) % p

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    @property
    def space_words(self) -> int:
        # r + the ℓ row restrictions + the ℓ-entry lookup table.
        return 1 + self.ell + self.ell


def run_single_round_f2(
    prover: SingleRoundF2Prover,
    verifier: SingleRoundF2Verifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """One prover message; check ``g(r) = Σ_y f_a(r, y)²``; output Σ_x g(x)."""
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    ell = verifier.ell
    if prover.ell != ell:
        return rejected(ch.transcript, "prover/verifier shape mismatch")

    message = ch.prover_says(0, "g", prover.proof_message())
    if len(message) != 2 * ell - 1:
        return rejected(
            ch.transcript,
            "proof has %d words, degree-2(ℓ-1) polynomial needs %d"
            % (len(message), 2 * ell - 1),
            verifier.space_words,
        )
    evals = [v % p for v in message]
    expected = sum(v * v for v in verifier.row_values) % p
    if evaluate_from_evals(field, evals, verifier.r) != expected:
        return rejected(
            ch.transcript,
            "check failed: g(r) != Σ_y f_a(r, y)²",
            verifier.space_words,
        )
    value = sum(evals[:ell]) % p
    return accepted(ch.transcript, value, verifier.space_words)


def single_round_f2_protocol(
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end single-round F2 over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = SingleRoundF2Verifier(field, stream.u, rng=rng)
    prover = SingleRoundF2Prover(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_single_round_f2(prover, verifier, channel)
