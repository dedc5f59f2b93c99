"""FREQUENCY MOMENTS Fk — Section 3.2, "Higher frequency moments".

The F2 protocol generalises by replacing ``f_a²`` with ``f_a^k``: the round
polynomial has degree k (per variable), so each message is k+1 evaluations
and the communication grows to O(k log u) words while the verifier's space
stays O(log u).  The same machinery also verifies the sum of any fixed
polynomial function of the frequencies (used by Section 6.2).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import (
    VerificationResult,
    accepted,
    pow2_dimension,
    rejected,
)
from repro.field.modular import PrimeField
from repro.field.polynomial import evaluate_from_evals
from repro.field.vectorized import (
    canonical_table,
    fk_round_sums,
    fold_pairs,
    get_backend,
)
from repro.lde.streaming import StreamingLDE


class FkProver:
    """Honest prover for the k-th frequency moment, table folding as in B.1.

    The degree-k round messages and folds run as whole-array operations
    under a vectorized backend; the scalar loops are the reference path.
    """

    def __init__(self, field: PrimeField, u: int, k: int, backend=None,
                 freq=None):
        if k < 1:
            raise ValueError("moment order k must be >= 1, got %d" % k)
        self.field = field
        self.u = u
        self.k = k
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq = freq if freq is not None else [0] * self.size
        self._table = None

    def process(self, i: int, delta: int) -> None:
        self.freq[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.freq[i] += delta

    def true_answer(self) -> int:
        return sum(f**self.k for f in self.freq)

    def begin_proof(self) -> None:
        self._table = canonical_table(self.backend, self.field, self.freq)

    def round_message(self) -> List[int]:
        """Evaluations [g(0), ..., g(k)] of the degree-k round polynomial:
        g(c) = Σ_t ((1-c)·A[2t] + c·A[2t+1])^k — one pair-line stack and
        its per-row power sums (shared with the batched engine)."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        return fk_round_sums(self.backend, self.field, self._table, self.k)

    def receive_challenge(self, r: int) -> None:
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        self._table = fold_pairs(self.backend, self.field, self._table, r)


class FkVerifier:
    """Same streaming state as the F2 verifier; checks degree-k messages."""

    STREAM_STATE_IS_LDE = True  # see F2Verifier / IndependentCopies

    def __init__(
        self,
        field: PrimeField,
        u: int,
        k: int,
        rng: Optional[random.Random] = None,
        point: Optional[Sequence[int]] = None,
    ):
        if k < 1:
            raise ValueError("moment order k must be >= 1, got %d" % k)
        self.field = field
        self.u = u
        self.k = k
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        if point is None:
            if rng is None:
                rng = random.Random()
            point = field.rand_vector(rng, self.d)
        self.lde = StreamingLDE(field, self.size, ell=2, point=point)
        self.r = self.lde.point

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.lde.update(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    @property
    def space_words(self) -> int:
        return self.d + 1 + 1 + 1 + (self.k + 1)


def run_fk(
    prover: FkProver,
    verifier: FkVerifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round Fk protocol; message size k+1 words per round."""
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    d = verifier.d
    k = verifier.k
    if prover.d != d or prover.k != k:
        return rejected(ch.transcript, "prover/verifier parameter mismatch")

    prover.begin_proof()
    claimed = None
    previous_eval = None
    for j in range(d):
        message = ch.prover_says(j, "g%d" % (j + 1), prover.round_message())
        if len(message) != k + 1:
            return rejected(
                ch.transcript,
                "round %d: message has %d words, degree-%d polynomial needs %d"
                % (j, len(message), k, k + 1),
                verifier.space_words,
            )
        evals = [v % p for v in message]
        round_sum = (evals[0] + evals[1]) % p
        if j == 0:
            claimed = round_sum
        elif round_sum != previous_eval:
            return rejected(
                ch.transcript,
                "round %d: g_j(0)+g_j(1) != g_{j-1}(r_{j-1})" % j,
                verifier.space_words,
            )
        previous_eval = evaluate_from_evals(field, evals, verifier.r[j])
        if j < d - 1:
            ch.verifier_says(j, "r%d" % (j + 1), [verifier.r[j]])
            prover.receive_challenge(verifier.r[j])

    if previous_eval != field.pow(verifier.lde.value, k):
        return rejected(
            ch.transcript,
            "final check failed: g_d(r_d) != f_a(r)^%d" % k,
            verifier.space_words,
        )
    return accepted(ch.transcript, claimed, verifier.space_words)


def frequency_moment_protocol(
    stream,
    k: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end Fk over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = FkVerifier(field, stream.u, k, rng=rng)
    prover = FkProver(field, stream.u, k)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_fk(prover, verifier, channel)
