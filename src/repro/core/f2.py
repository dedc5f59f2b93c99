"""SELF-JOIN SIZE (F2) — the multi-round sum-check protocol of Section 3.1.

With ℓ = 2 and d = log u the verifier keeps the secret point ``r`` and the
streaming LDE value ``f_a(r)``; the prover sends one degree-2 polynomial
per round (as 3 evaluations), the verifier checks the sum-check invariant

    g_{j-1}(r_{j-1}) = g_j(0) + g_j(1)

and finally ``g_d(r_d) = f_a(r)^2``.  Soundness error 2dℓ/p = 4·log(u)/p
(Lemma 1).  The honest prover is the batched engine's F2 member
(:mod:`repro.core.multiquery`), which uses the Appendix B.1
table-folding algorithm: O(u) total work across all rounds.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    run_batched_sumcheck,
)
from repro.core.sumcheck import SingleLDEVerifier
from repro.field.modular import PrimeField


class F2Verifier(SingleLDEVerifier):
    """Streaming verifier: secret point ``r``, running LDE, O(log u) words."""


def run_f2(
    prover,
    verifier: F2Verifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round F2 protocol; returns the verified self-join size.

    A batch of one F2 member.  The returned value is F2 mod p; as in the
    paper, p is chosen large enough (2^61 - 1 by default) that this
    equals the exact integer F2.
    """
    return run_batched_sumcheck(prover, verifier, [batch_f2()], channel)[0]


def self_join_size_protocol(
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Convenience end-to-end run over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = F2Verifier(field, stream.u, rng=rng)
    prover = BatchedSumcheckEngine(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_f2(prover, verifier, channel)
