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
from repro.core.base import VerificationResult, pow2_dimension, rejected
from repro.core.sumcheck import SingleLDEVerifier, run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    fk_round_sums,
    fold_pairs,
    get_backend,
)


#: Largest moment order the service and the batch constructors accept.
#: A proof is (k + 1)·d words and the prover's weights (k + 1)² integers
#: of k·log k bits, so the order is a resource an open must bound before
#: it allocates; 64 is (k + 1)·d <= 1300 words at d = 20, and the
#: soundness error d·k/p stays below 2^-50.
MAX_MOMENT_ORDER = 64


def check_moment_order(k: int) -> int:
    """``k`` if a request may name it as a moment order, else ValueError."""
    if not 1 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(
            "moment order k must be in 1..%d, got %d" % (MAX_MOMENT_ORDER, k)
        )
    return k


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
        # Python ints: a ``freq=`` table may be a uint64 array.
        return sum(f**self.k for f in self.backend.to_list(self.freq))

    def begin_proof(self) -> None:
        self._table = canonical_table(self.backend, self.field, self.freq)

    def round_message(self) -> List[int]:
        """Evaluations [g(0), ..., g(k)] of the degree-k round polynomial:
        g(c) = Σ_t ((1-c)·A[2t] + c·A[2t+1])^k, from the k + 1 pair
        moments of the table (shared with the batched engine)."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        return fk_round_sums(self.backend, self.field, self._table, self.k)

    def receive_challenge(self, r: int) -> None:
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        self._table = fold_pairs(self.backend, self.field, self._table, r)


class FkVerifier(SingleLDEVerifier):
    """Same streaming state as the F2 verifier; checks degree-k messages."""

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
        super().__init__(field, u, rng=rng, point=point)
        self.k = k

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
    k = verifier.k
    if prover.d != verifier.d or prover.k != k:
        return rejected(ch.transcript, "prover/verifier parameter mismatch")
    prover.begin_proof()
    return run_sumcheck_rounds(
        prover, verifier, ch, message_len=k + 1,
        target=verifier.field.pow(verifier.lde.value, k),
        target_name="f_a(r)^%d" % k,
    )


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
