"""Figure 2(b): prover proof-generation time, one-round vs multi-round.

Paper shape: multi-round prover linear in u; one-round prover grows as
u^{3/2} ("doubling the input size increases the cost by a factor of 2.8")
and is minutes-vs-fractions-of-a-second slower at scale.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import section5_stream
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.core.single_round import SingleRoundF2Prover

MULTI_SIZES = [1 << 10, 1 << 12, 1 << 14]
SINGLE_SIZES = [1 << 8, 1 << 10, 1 << 12]  # u^1.5 forbids going further


@pytest.mark.parametrize("u", MULTI_SIZES)
def test_multi_round_prover_proof(benchmark, field, u):
    prover = BatchedSumcheckEngine(field, u)
    prover.process_stream(section5_stream(u).updates())
    challenges = field.rand_vector(random.Random(2), prover.d)

    def produce_proof():
        prover.receive_batch([batch_f2()])
        for j in range(prover.d):
            prover.round_messages()
            if j < prover.d - 1:
                prover.receive_challenge(challenges[j])

    benchmark(produce_proof)
    benchmark.extra_info["figure"] = "2b"
    benchmark.extra_info["paper_shape"] = "linear in u (table folding, B.1)"


@pytest.mark.parametrize("u", SINGLE_SIZES)
def test_single_round_prover_proof(benchmark, field, u):
    prover = SingleRoundF2Prover(field, u)
    prover.process_stream(section5_stream(u).updates())

    benchmark.pedantic(prover.proof_message, rounds=2, iterations=1)
    benchmark.extra_info["figure"] = "2b"
    benchmark.extra_info["paper_shape"] = "u^1.5 — 2x size => ~2.8x time"


def test_prover_crossover_shape(field):
    """Non-timing assertion of the headline: at equal u the single-round
    prover does asymptotically more arithmetic than the multi-round one."""
    from repro.experiments.harness import loglog_slope, time_call

    multi_times = []
    single_times = []
    sizes = [1 << 8, 1 << 10, 1 << 12]
    for u in sizes:
        stream = section5_stream(u)
        prover = BatchedSumcheckEngine(field, u)
        prover.process_stream(stream.updates())
        challenges = field.rand_vector(random.Random(3), prover.d)

        def produce():
            prover.receive_batch([batch_f2()])
            for j in range(prover.d):
                prover.round_messages()
                if j < prover.d - 1:
                    prover.receive_challenge(challenges[j])

        multi_times.append(time_call(produce)[0])
        sr = SingleRoundF2Prover(field, u)
        sr.process_stream(stream.updates())
        single_times.append(time_call(sr.proof_message)[0])
    assert loglog_slope(sizes, single_times) > loglog_slope(
        sizes, multi_times
    )
    assert single_times[-1] > multi_times[-1]
