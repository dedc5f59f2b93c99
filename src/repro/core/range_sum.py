"""RANGE-SUM — Section 3.2, "Range-sum".

A special case of INNER PRODUCT where b is the indicator of the query
range ``[qL, qR]``, chosen *after* the stream.  Neither party ever
builds b: the verifier evaluates ``f_b(r)`` in O(log² u) via the
canonical-interval identity of Section 3.2 (``repro.lde.canonical``),
and the prover answers every inner-product round from the same O(log u)
dyadic cover, in closed form against its folded a-table — it is the
batched engine of :mod:`repro.core.multiquery` with one member.  A dense
u-entry indicator is this prover's oracle in the test suite, no more.

RANGE-COUNT (all values 1) is the same protocol over unit updates and is
used by SUB-VECTOR to pre-verify the answer size k (Appendix B.2 remark).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, rejected
from repro.core.inner_product import InnerProductVerifier, run_inner_product
from repro.core.multiquery import BatchedSumcheckEngine, batch_range_sum
from repro.core.sumcheck import SingleLDEVerifier
from repro.field.modular import PrimeField
from repro.lde.canonical import range_indicator_eval


class RangeSumProver(BatchedSumcheckEngine):
    """Stores the (key → value) vector a; the query range stays a cover.

    The engine's RANGE-SUM member at Q = 1 behind the inner-product
    prover interface.
    """

    def __init__(self, field: PrimeField, u: int, backend=None, freq_a=None):
        super().__init__(field, u, backend=backend, freq_a=freq_a)
        self._query = None

    def true_answer(self, lo: int, hi: int) -> int:
        return sum(self.backend.to_list(self.freq_a[lo : hi + 1]))

    def receive_query(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi < self.size:
            raise ValueError("query range [%d, %d] invalid" % (lo, hi))
        self._query = batch_range_sum(lo, hi)

    def begin_proof(self) -> None:
        if self._query is None:
            raise RuntimeError("receive_query() must be called first")
        self.receive_batch([self._query])

    def round_message(self) -> List[int]:
        """[g(0), g(1), g(2)] with g(c) = Σ_t lineA_t(c) · lineB_t(c)."""
        return self.round_messages()[0]


class RangeSumVerifier(SingleLDEVerifier):
    """Streams only a; computes ``f_b(r)`` for the query range on demand."""

    def indicator_lde_at_r(self, lo: int, hi: int) -> int:
        """``f_b(r)`` in O(log² u) — no pass over the data."""
        return range_indicator_eval(self.field, self.d, self.r, lo, hi)


def run_range_sum(
    prover: RangeSumProver,
    verifier: RangeSumVerifier,
    lo: int,
    hi: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Verify ``Σ_{lo <= i <= hi} a_i``.

    The query is sent to the prover first (2 words from the verifier), then
    the inner-product rounds run with the final check target
    ``f_a(r) · f_b(r)``.
    """
    ch = channel or Channel()
    field = verifier.field
    if not 0 <= lo <= hi < verifier.size:
        return rejected(ch.transcript, "query range [%d, %d] invalid" % (lo, hi))
    ch.verifier_says(0, "query", [lo, hi])
    prover.receive_query(lo, hi)

    fb_at_r = verifier.indicator_lde_at_r(lo, hi)
    expected_final = verifier.lde.value * fb_at_r % field.p

    # Adapt the RangeSumVerifier into the inner-product driver: same r,
    # f_a(r) from the stream, f_b(r) from the canonical intervals.
    inner_verifier = InnerProductVerifier(
        field, verifier.u, point=verifier.r
    )
    inner_verifier.lde_a.value = verifier.lde.value
    inner_verifier.lde_b.value = fb_at_r
    return run_inner_product(
        prover, inner_verifier, channel=ch, expected_final=expected_final
    )


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
    prover = RangeSumProver(field, stream.u)
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
