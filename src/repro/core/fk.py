"""FREQUENCY MOMENTS Fk — Section 3.2, "Higher frequency moments".

The F2 protocol generalises by replacing ``f_a²`` with ``f_a^k``: the round
polynomial has degree k (per variable), so each message is k+1 evaluations
and the communication grows to O(k log u) words while the verifier's space
stays O(log u).  The same machinery also verifies the sum of any fixed
polynomial function of the frequencies (used by Section 6.2).  The honest
prover is the batched engine's Fk member (:mod:`repro.core.multiquery`).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import VerificationResult
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_fk,
    run_batched_sumcheck,
)
from repro.core.sumcheck import SingleLDEVerifier
from repro.field.modular import PrimeField


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
    prover,
    verifier: FkVerifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round Fk protocol for the verifier's k: a batch of one Fk
    member, k+1 words per round."""
    return run_batched_sumcheck(prover, verifier, [batch_fk(verifier.k)],
                                channel)[0]


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
    prover = BatchedSumcheckEngine(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_fk(prover, verifier, channel)
