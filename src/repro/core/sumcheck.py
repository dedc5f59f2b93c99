"""The sum-check verifier, once — Sections 3.1, 3.2 and 6.2.

F2, Fk, INNER-PRODUCT, RANGE-SUM, base-ℓ F2 and the frequency-based
second phase are one d-round protocol.  The prover sends the round
polynomial ``g_j`` as evaluations at 0, 1, 2, ...; the verifier checks

    g_{j-1}(r_{j-1}) = Σ_{x∈[ℓ]} g_j(x)      and finally      g_d(r_d) = target

and reveals ``r_j`` only after ``g_j`` arrived — ``r_d`` never.  The
soundness error 2dℓ/p of Lemma 1 rests on exactly these checks.  Two
drivers make them: :func:`~repro.core.multiquery.run_batched_sumcheck`
for F2, Fk, INNER-PRODUCT and RANGE-SUM (a batch of one is the
one-query protocol) and :func:`run_sumcheck_rounds` below for base-ℓ
F2, the frequency-based second phase and the sharded F2 prover; the
protocol modules supply the message length, how many leading
evaluations sum to the claim, and the target.  The streaming verifier
states live here too: one LDE (:class:`SingleLDEVerifier`) or two at
one point (:class:`InnerProductVerifier`).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import (
    VerificationResult,
    accepted,
    pow2_dimension,
    rejected,
)
from repro.field.modular import PrimeField
from repro.field.polynomial import evaluate_from_evals
from repro.lde.streaming import StreamingLDE, dimension_for


class SingleLDEVerifier:
    """Streaming verifier state of the one-vector sum-check family.

    The secret point ``r`` and the running LDE value ``f_a(r)``:
    O(log u) words, counted for a degree-2 message (F2, RANGE-SUM) by
    ``space_words``; subclasses add what differs — the moment order or
    the grid base.
    """

    #: Grid base ℓ of the LDE.
    ell = 2

    def __init__(
        self,
        field: PrimeField,
        u: int,
        rng: Optional[random.Random] = None,
        point: Optional[Sequence[int]] = None,
    ):
        self.field = field
        self.u = u
        self.d = dimension_for(u, self.ell)
        self.size = self.ell**self.d
        if point is None:
            if rng is None:
                rng = random.Random()
            point = field.rand_vector(rng, self.d)
        self.lde = StreamingLDE(field, self.size, ell=self.ell, point=point)
        self.r = self.lde.point

    @property
    def space_words(self) -> int:
        # r (d words), f_a(r), previous round evaluation, claimed answer,
        # and the current 3-word message being checked.
        return self.d + 1 + 1 + 1 + 3

    @property
    def stream_sketches(self):
        """The whole streaming state, one sketch per update vector: what
        a :class:`~repro.lde.streaming.SketchStack` feeds in place of
        :meth:`process`."""
        return (self.lde,)

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.lde.update(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)


class InnerProductVerifier:
    """Tracks LDEs of two streams at one secret point (2d+2 words).

    INNER-PRODUCT's verifier (Section 3.2); the batched verifier of
    :mod:`repro.core.multiquery` is one too.
    """

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

    @property
    def space_words(self) -> int:
        # r is shared between the two LDEs: d + two running values + checks.
        return self.d + 2 + 1 + 1 + 3


def run_sumcheck_rounds(
    prover,
    verifier,
    ch: Channel,
    message_len: int,
    target: int,
    target_name: str,
    sum_len: int = 2,
    round_offset: int = 0,
) -> VerificationResult:
    """Drive the d rounds against ``prover`` and make the final check.

    ``prover`` answers ``round_message()`` / ``receive_challenge(r)``;
    ``verifier`` carries ``field``, the point ``r`` and ``space_words``.
    Every message must have ``message_len`` words, its first ``sum_len``
    evaluations sum to the running claim, and round j is recorded on the
    channel under index ``round_offset + j``.  The accepted value is the
    claimed total ``Σ_x g_1(x)``.
    """
    field = verifier.field
    p = field.p
    r = verifier.r
    d = len(r)
    claimed = None
    previous_eval = None
    for j in range(d):
        message = ch.prover_says(
            round_offset + j, "g%d" % (j + 1), prover.round_message()
        )
        if len(message) != message_len:
            return rejected(
                ch.transcript,
                "round %d: message has %d words, a degree-%d polynomial "
                "needs %d" % (j, len(message), message_len - 1, message_len),
                verifier.space_words,
            )
        evals = [v % p for v in message]
        round_sum = sum(evals[:sum_len]) % p
        if j == 0:
            claimed = round_sum
        elif round_sum != previous_eval:
            return rejected(
                ch.transcript,
                "round %d: Σ_x g_j(x) != g_{j-1}(r_{j-1})" % j,
                verifier.space_words,
            )
        previous_eval = evaluate_from_evals(field, evals, r[j])
        if j < d - 1:
            ch.verifier_says(round_offset + j, "r%d" % (j + 1), [r[j]])
            prover.receive_challenge(r[j])

    if previous_eval != target % p:
        return rejected(
            ch.transcript,
            "final check failed: g_d(r_d) != %s" % target_name,
            verifier.space_words,
        )
    return accepted(ch.transcript, claimed, verifier.space_words)
