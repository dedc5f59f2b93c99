"""RANGE-SUM — Section 3.2, "Range-sum".

A special case of INNER PRODUCT where b is the indicator of the query
range ``[qL, qR]``, chosen *after* the stream.  Neither party ever
builds b: the verifier evaluates ``f_b(r)`` in O(log² u) via the
canonical-interval identity of Section 3.2 (``repro.lde.canonical``),
and the prover answers every inner-product round from the same O(log u)
dyadic cover, in closed form against its folded a-table — the batched
engine's RANGE-SUM member (:mod:`repro.core.multiquery`).  A dense
u-entry indicator is this prover's oracle in the test suite, no more.

RANGE-COUNT (all values 1) is the same protocol over unit updates and is
used by SUB-VECTOR to pre-verify the answer size k (Appendix B.2 remark).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, check_range, rejected
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.sumcheck import SingleLDEVerifier
from repro.field.modular import PrimeField


class RangeSumVerifier(SingleLDEVerifier):
    """Streams only a; ``f_b(r)`` of the query range comes from its
    canonical intervals in O(log² u) once the range is known."""


def run_range_sum(
    prover,
    verifier: RangeSumVerifier,
    lo: int,
    hi: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Verify ``Σ_{lo <= i <= hi} a_i``: a batch of one RANGE-SUM member.

    The query is sent to the prover first (2 words from the verifier), then
    the inner-product rounds run with the final check target
    ``f_a(r) · f_b(r)``.
    """
    try:
        check_range(lo, hi, verifier.size)
    except ValueError as exc:
        return rejected((channel or Channel()).transcript, str(exc))
    return run_batched_sumcheck(prover, verifier, [batch_range_sum(lo, hi)],
                                channel)[0]


def range_sum_protocol(
    stream,
    lo: int,
    hi: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end RANGE-SUM over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = RangeSumVerifier(field, stream.u, rng=rng)
    prover = BatchedSumcheckEngine(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process_a(i, delta)
    return run_range_sum(prover, verifier, lo, hi, channel)


def range_count_protocol(
    stream,
    lo: int,
    hi: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """RANGE-COUNT: number of stream items (with multiplicity) in the range.

    Identical to RANGE-SUM because the stream already carries unit deltas
    for item-style inputs; provided as a named operation because SUB-VECTOR
    uses it to bound the answer size k before reporting.
    """
    return range_sum_protocol(stream, lo, hi, field, rng, channel)
