"""INNER PRODUCT (join size) — Section 3.2, "Inner product".

Two streams define vectors a and b; the verifier evaluates both LDEs at
the *same* secret point r (:class:`~repro.core.sumcheck.
InnerProductVerifier`), and the prover's round polynomials are sums of
``f_a · f_b`` (degree 2 per variable, like F2).  The final check is
``g_d(r_d) = f_a(r) · f_b(r)``.  The honest prover is the batched
engine's INNER-PRODUCT member (:mod:`repro.core.multiquery`).

RANGE-SUM (``repro.core.range_sum``) runs the same rounds with b the
indicator of the query range, which its prover never materialises.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_inner_product,
    run_batched_sumcheck,
)
from repro.core.sumcheck import InnerProductVerifier
from repro.field.modular import PrimeField


def run_inner_product(
    prover,
    verifier: InnerProductVerifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round inner-product protocol: a batch of one
    INNER-PRODUCT member."""
    return run_batched_sumcheck(prover, verifier, [batch_inner_product()],
                                channel)[0]


def inner_product_protocol(
    stream_a,
    stream_b,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end join-size verification for two streams."""
    if stream_a.u != stream_b.u:
        raise ValueError("streams must share a universe")
    rng = rng or random.Random(0)
    verifier = InnerProductVerifier(field, stream_a.u, rng=rng)
    prover = BatchedSumcheckEngine(field, stream_a.u)
    for i, delta in stream_a.updates():
        verifier.process_a(i, delta)
        prover.process_a(i, delta)
    for i, delta in stream_b.updates():
        verifier.process_b(i, delta)
        prover.process_b(i, delta)
    return run_inner_product(prover, verifier, channel)
