"""Ablation (Appendix B.1): the prover's table-folding trick.

The naive prover recomputes the partial-sum table from the raw frequency
vector in every round (Θ(u) folds per round, Θ(u log u) total); the
Appendix B.1 prover folds incrementally (Θ(u) total).  Both produce
identical messages — only the cost differs.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from benchmarks.conftest import section5_stream
from repro.core.base import pow2_dimension
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.field.vectorized import f2_round_sums, get_backend

U = 1 << 13


class NaiveRefoldF2Prover:
    """Appendix B.1 *without* the incremental folding: each round re-folds
    the table from scratch using all challenges received so far.  Speaks
    the engine's interface for an F2 batch of one."""

    def __init__(self, field, u):
        self.field = field
        self.d = pow2_dimension(u)
        self.freq = [0] * (1 << self.d)
        self.backend = get_backend(field)
        self._challenges: List[int] = []

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.freq[i] += delta

    def receive_batch(self, queries) -> None:
        self._challenges = []

    def round_messages(self) -> List[List[int]]:
        p = self.field.p
        # Plain ints regardless of backend: this naive fold is Python-level.
        table = [f % p for f in self.freq]
        for r in self._challenges:  # re-fold everything, every round
            one_minus_r = (1 - r) % p
            table = [
                (one_minus_r * table[t] + r * table[t + 1]) % p
                for t in range(0, len(table), 2)
            ]
        return [f2_round_sums(self.backend, self.field, table)]

    def receive_challenge(self, r: int) -> None:
        self._challenges.append(r)


def drive(prover, challenges):
    prover.receive_batch([batch_f2()])
    messages = []
    for j in range(prover.d):
        messages.append(prover.round_messages())
        if j < prover.d - 1:
            prover.receive_challenge(challenges[j])
    return messages


@pytest.fixture(scope="module")
def setup(field):
    stream = section5_stream(U, seed=90)
    challenges = field.rand_vector(random.Random(91), 13)
    return stream, challenges


def test_folding_prover(benchmark, field, setup):
    stream, challenges = setup
    prover = BatchedSumcheckEngine(field, U)
    prover.process_stream(stream.updates())
    benchmark.pedantic(lambda: drive(prover, challenges), rounds=2,
                       iterations=1)
    benchmark.extra_info["figure"] = "ablation-folding"
    benchmark.extra_info["paper_shape"] = "O(u) total (Appendix B.1)"


def test_naive_refold_prover(benchmark, field, setup):
    stream, challenges = setup
    prover = NaiveRefoldF2Prover(field, U)
    prover.process_stream(stream.updates())
    benchmark.pedantic(lambda: drive(prover, challenges), rounds=2,
                       iterations=1)
    benchmark.extra_info["figure"] = "ablation-folding"
    benchmark.extra_info["paper_shape"] = "O(u log u) without folding"


def test_identical_messages(field, setup):
    """The optimisation is cost-only: message streams must be identical."""
    stream, challenges = setup
    fast = BatchedSumcheckEngine(field, U)
    slow = NaiveRefoldF2Prover(field, U)
    fast.process_stream(stream.updates())
    slow.process_stream(stream.updates())
    assert drive(fast, challenges) == drive(slow, challenges)


def test_folding_is_faster(field, setup):
    from repro.experiments.harness import time_call

    stream, challenges = setup
    fast = BatchedSumcheckEngine(field, U)
    slow = NaiveRefoldF2Prover(field, U)
    fast.process_stream(stream.updates())
    slow.process_stream(stream.updates())
    t_fast, _ = time_call(lambda: drive(fast, challenges))
    t_slow, _ = time_call(lambda: drive(slow, challenges))
    assert t_slow > 1.5 * t_fast
