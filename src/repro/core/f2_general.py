"""SELF-JOIN SIZE over a general grid base ℓ — the Section 3.1 tradeoff.

The main F2 protocol fixes ℓ = 2 ("probably the most economical
tradeoff").  The underlying sum-check works for any ℓ ≥ 2 with
d = ceil(log_ℓ u) rounds: messages are degree-2(ℓ-1) polynomials
(2ℓ-1 words), the verifier's space is O(d + ℓ), and the consistency check
becomes ``g_{j-1}(r_{j-1}) = Σ_{x∈[ℓ]} g_j(x)``.  Larger ℓ therefore buys
fewer rounds at the price of more communication per round — the footnote
instantiation ``ℓ = log^ε u`` gives O(log u / log log u) space with
O(log^{1+ε} u) communication.  This module exists to measure that
tradeoff (``benchmarks/test_ablation_ell_protocol.py``); ℓ = 2 recovers
the main protocol exactly.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, rejected
from repro.core.sumcheck import SingleLDEVerifier, run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.lde.chi import chi_table
from repro.lde.streaming import dimension_for


class GeneralF2Prover:
    """Table-folding prover over base-ℓ digits (Appendix B.1, general ℓ)."""

    def __init__(self, field: PrimeField, u: int, ell: int):
        if ell < 2:
            raise ValueError("grid base ℓ must be at least 2, got %r" % ell)
        self.field = field
        self.u = u
        self.ell = ell
        self.d = dimension_for(u, ell)
        self.size = ell**self.d
        self.freq: List[int] = [0] * self.size
        self._table: Optional[List[int]] = None

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.freq[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def true_answer(self) -> int:
        return sum(f * f for f in self.freq)

    def begin_proof(self) -> None:
        p = self.field.p
        self._table = [f % p for f in self.freq]

    def round_message(self) -> List[int]:
        """Evaluations [g(0), ..., g(2ℓ-2)]:
        g(c) = Σ_t (Σ_k χ_k(c)·A[ℓt+k])²."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
        ell = self.ell
        table = self._table
        out = []
        for c in range(2 * ell - 1):
            chi_at_c = chi_table(self.field, ell, c)
            acc = 0
            for t in range(0, len(table), ell):
                line = 0
                for k in range(ell):
                    a = table[t + k]
                    if a:
                        line += chi_at_c[k] * a
                line %= p
                acc += line * line
            out.append(acc % p)
        return out

    def receive_challenge(self, r: int) -> None:
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
        ell = self.ell
        chi_at_r = chi_table(self.field, ell, r)
        table = self._table
        self._table = [
            sum(chi_at_r[k] * table[t + k] for k in range(ell)) % p
            for t in range(0, len(table), ell)
        ]


class GeneralF2Verifier(SingleLDEVerifier):
    """Streaming verifier with O(d + ℓ) words of state."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        ell: int,
        rng: Optional[random.Random] = None,
        point: Optional[Sequence[int]] = None,
    ):
        if ell < 2:
            raise ValueError("grid base ℓ must be at least 2, got %r" % ell)
        self.ell = ell
        super().__init__(field, u, rng=rng, point=point)

    @property
    def space_words(self) -> int:
        # r (d) + f_a(r) + previous eval + claim + one (2ℓ-1)-word message.
        return self.d + 3 + (2 * self.ell - 1)


def run_general_f2(
    prover: GeneralF2Prover,
    verifier: GeneralF2Verifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round, base-ℓ F2 protocol."""
    ch = channel or Channel()
    ell = verifier.ell
    if prover.d != verifier.d or prover.ell != ell:
        return rejected(ch.transcript, "prover/verifier parameter mismatch")
    prover.begin_proof()
    return run_sumcheck_rounds(
        prover, verifier, ch, message_len=2 * ell - 1, sum_len=ell,
        target=verifier.lde.value**2, target_name="f_a(r)^2",
    )


def general_f2_protocol(
    stream,
    ell: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end base-ℓ F2 over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = GeneralF2Verifier(field, stream.u, ell, rng=rng)
    prover = GeneralF2Prover(field, stream.u, ell)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_general_f2(prover, verifier, channel)
