"""The dense range indicator: the independent oracle for RANGE-SUM.

An INNER-PRODUCT prover whose b is the explicit u-entry indicator of the
query range — the textbook statement of the protocol (Section 3.2), and
everything the library's RANGE-SUM provers (standalone or batched, both
the dyadic fold) must agree with word for word.  It shares no code with
them beyond the inner-product kernels.
"""

from __future__ import annotations

from repro.core.inner_product import InnerProductProver


class DenseRangeSumProver(InnerProductProver):
    """RANGE-SUM with b materialised at query time."""

    process = InnerProductProver.process_a

    def receive_query(self, lo: int, hi: int) -> None:
        b = [0] * self.size
        b[lo : hi + 1] = [1] * (hi - lo + 1)
        self.set_b_vector(b)

    # The engine's interface for a batch of one RANGE-SUM member — what
    # the service drives a lone RANGE-SUM query through.

    def receive_batch(self, queries) -> None:
        (query,) = queries
        self.receive_query(*query.params)
        self.begin_proof()

    def round_messages(self):
        return [self.round_message()]
