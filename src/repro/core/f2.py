"""SELF-JOIN SIZE (F2) — the multi-round sum-check protocol of Section 3.1.

With ℓ = 2 and d = log u the verifier keeps the secret point ``r`` and the
streaming LDE value ``f_a(r)``; the prover sends one degree-2 polynomial
per round (as 3 evaluations), the verifier checks the sum-check invariant

    g_{j-1}(r_{j-1}) = g_j(0) + g_j(1)

and finally ``g_d(r_d) = f_a(r)^2``.  Soundness error 2dℓ/p = 4·log(u)/p
(Lemma 1).  The honest prover uses the Appendix B.1 table-folding
algorithm: O(u) total work across all rounds.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, pow2_dimension, rejected
from repro.core.sumcheck import SingleLDEVerifier, run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    f2_round_sums,
    fold_pairs,
    get_backend,
)


class F2Prover:
    """Honest prover: stores the frequency vector, folds it per round.

    With a vectorized backend the per-round message and fold run as whole-
    array operations; the scalar path below is the reference
    implementation and produces identical messages.
    """

    def __init__(self, field: PrimeField, u: int, backend=None, freq=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq = freq if freq is not None else [0] * self.size
        self._table = None

    # -- stream phase -------------------------------------------------------

    def process(self, i: int, delta: int) -> None:
        self.freq[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.freq[i] += delta

    def true_answer(self) -> int:
        """Exact integer F2 (what an honest cloud reports)."""
        return sum(f * f for f in self.backend.to_list(self.freq))

    # -- proof phase ---------------------------------------------------------

    def begin_proof(self) -> None:
        self._table = canonical_table(self.backend, self.field, self.freq)

    def round_message(self) -> List[int]:
        """Evaluations [g_j(0), g_j(1), g_j(2)] of the round polynomial.

        With the current folded table A (pairs sharing a suffix adjacent):
        g(c) = Σ_t ((1-c)·A[2t] + c·A[2t+1])².
        """
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        return f2_round_sums(self.backend, self.field, self._table)

    def receive_challenge(self, r: int) -> None:
        """Fold the table: A'[t] = (1-r)·A[2t] + r·A[2t+1]."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        self._table = fold_pairs(self.backend, self.field, self._table, r)


class F2Verifier(SingleLDEVerifier):
    """Streaming verifier: secret point ``r``, running LDE, O(log u) words."""


def run_f2(
    prover: F2Prover,
    verifier: F2Verifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round F2 protocol; returns the verified self-join size.

    The returned value is F2 mod p; as in the paper, p is chosen large
    enough (2^61 - 1 by default) that this equals the exact integer F2.
    """
    ch = channel or Channel()
    if prover.d != verifier.d:
        return rejected(ch.transcript, "prover/verifier dimension mismatch")
    prover.begin_proof()
    return run_sumcheck_rounds(
        prover, verifier, ch, message_len=3,
        target=verifier.lde.value**2, target_name="f_a(r)^2",
    )


def self_join_size_protocol(
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Convenience end-to-end run over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = F2Verifier(field, stream.u, rng=rng)
    prover = F2Prover(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_f2(prover, verifier, channel)
