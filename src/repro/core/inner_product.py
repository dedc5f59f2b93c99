"""INNER PRODUCT (join size) — Section 3.2, "Inner product".

Two streams define vectors a and b; the verifier evaluates both LDEs at
the *same* secret point r, and the prover's round polynomials are sums of
``f_a · f_b`` (degree 2 per variable, like F2).  The final check is
``g_d(r_d) = f_a(r) · f_b(r)``.

RANGE-SUM (``repro.core.range_sum``) runs the same rounds with b the
indicator of the query range, which its prover never materialises.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, pow2_dimension, rejected
from repro.core.sumcheck import run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    fold_pairs,
    get_backend,
    inner_product_round_sums,
)
from repro.lde.streaming import StreamingLDE


class InnerProductProver:
    """Honest prover holding both frequency vectors; folds both per round.

    Round messages and folds run as whole-array passes under a vectorized
    backend (shared with the batched multi-query engine); the scalar path
    is the reference and produces identical messages.
    """

    def __init__(self, field: PrimeField, u: int, backend=None,
                 freq_a=None, freq_b=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq_a = freq_a if freq_a is not None else [0] * self.size
        self.freq_b = freq_b if freq_b is not None else [0] * self.size
        self._table_a: Optional[List[int]] = None
        self._table_b: Optional[List[int]] = None

    def process_a(self, i: int, delta: int) -> None:
        self.freq_a[i] += delta

    def process_b(self, i: int, delta: int) -> None:
        self.freq_b[i] += delta

    def process_streams(self, updates_a, updates_b) -> None:
        for i, delta in updates_a:
            self.freq_a[i] += delta
        for i, delta in updates_b:
            self.freq_b[i] += delta

    def true_answer(self) -> int:
        to_list = self.backend.to_list
        return sum(x * y for x, y in zip(to_list(self.freq_a),
                                         to_list(self.freq_b)))

    def set_b_vector(self, b: Sequence[int]) -> None:
        """Install an explicit b (e.g. a dense query-time range indicator)."""
        if len(b) > self.size:
            raise ValueError("vector b longer than padded universe")
        self.freq_b = list(b) + [0] * (self.size - len(b))

    def begin_proof(self) -> None:
        self._table_a = canonical_table(self.backend, self.field, self.freq_a)
        self._table_b = canonical_table(self.backend, self.field, self.freq_b)

    def round_message(self) -> List[int]:
        """[g(0), g(1), g(2)] with g(c) = Σ_t lineA_t(c) · lineB_t(c)."""
        if self._table_a is None or self._table_b is None:
            raise RuntimeError("begin_proof() must be called first")
        return inner_product_round_sums(
            self.backend, self.field, self._table_a, self._table_b
        )

    def receive_challenge(self, r: int) -> None:
        if self._table_a is None or self._table_b is None:
            raise RuntimeError("begin_proof() must be called first")
        self._table_a = fold_pairs(self.backend, self.field, self._table_a, r)
        self._table_b = fold_pairs(self.backend, self.field, self._table_b, r)


class InnerProductVerifier:
    """Tracks LDEs of both streams at the same secret point (2d+2 words)."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        rng: Optional[random.Random] = None,
        point: Optional[Sequence[int]] = None,
    ):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        if point is None:
            if rng is None:
                rng = random.Random()
            point = field.rand_vector(rng, self.d)
        self.lde_a = StreamingLDE(field, self.size, ell=2, point=point)
        self.lde_b = StreamingLDE(field, self.size, ell=2, point=point)
        self.r = self.lde_a.point

    @property
    def stream_sketches(self):
        """Vector 0 streams into ``lde_a``, vector 1 into ``lde_b``."""
        return (self.lde_a, self.lde_b)

    def process_a(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.lde_a.update(i, delta)

    def process_b(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.lde_b.update(i, delta)

    def expected_final_value(self) -> int:
        return self.lde_a.value * self.lde_b.value % self.field.p

    @property
    def space_words(self) -> int:
        # r is shared between the two LDEs: d + two running values + checks.
        return self.d + 2 + 1 + 1 + 3


def run_inner_product(
    prover: InnerProductProver,
    verifier: InnerProductVerifier,
    channel: Optional[Channel] = None,
    expected_final: Optional[int] = None,
) -> VerificationResult:
    """Run the d-round inner-product protocol.

    ``expected_final`` overrides the final-check target (RANGE-SUM passes
    ``f_a(r) · f_b(r)`` with its O(log² u)-computed ``f_b(r)``).
    """
    ch = channel or Channel()
    if prover.d != verifier.d:
        return rejected(ch.transcript, "prover/verifier dimension mismatch")
    prover.begin_proof()
    return run_sumcheck_rounds(
        prover, verifier, ch, message_len=3,
        target=(
            expected_final
            if expected_final is not None
            else verifier.expected_final_value()
        ),
        target_name="f_a(r)·f_b(r)",
    )


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
    prover = InnerProductProver(field, stream_a.u)
    for i, delta in stream_a.updates():
        verifier.process_a(i, delta)
        prover.process_a(i, delta)
    for i, delta in stream_b.updates():
        verifier.process_b(i, delta)
        prover.process_b(i, delta)
    return run_inner_product(prover, verifier, channel)
