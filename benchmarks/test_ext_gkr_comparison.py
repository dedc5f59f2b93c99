"""Extension (Sec. 2 / remark after Thm 4): GKR vs the specialised F2
protocol.

The smallest F2 circuit has depth Θ(log u), so Theorem 3 gives a
(log² u, log² u) protocol; the Section 3 protocol is a quadratic
improvement.  We run both on the same stream and compare rounds/words.
"""

from __future__ import annotations

import random

import pytest

from repro.core.f2 import F2Verifier, run_f2
from repro.core.multiquery import BatchedSumcheckEngine
from repro.gkr.circuits import f2_circuit
from repro.gkr.protocol import GKRProver, StreamingGKRVerifier, run_gkr
from repro.streams.model import Stream

SIZES = [8, 16]


def make_stream(u, seed):
    rng = random.Random(seed)
    return Stream(u, [(rng.randrange(u), rng.randint(1, 9))
                      for _ in range(2 * u)])


@pytest.mark.parametrize("u", SIZES)
def test_gkr_f2_bench(benchmark, field, u):
    stream = make_stream(u, 70 + u)
    circuit = f2_circuit(u)
    verifier = StreamingGKRVerifier(field, circuit, rng=random.Random(71))
    prover = GKRProver(field, circuit)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)

    result = benchmark.pedantic(
        lambda: run_gkr(prover, verifier), rounds=1, iterations=1
    )
    assert result.accepted
    assert result.value == [stream.self_join_size() % field.p]
    benchmark.extra_info["figure"] = "ext-gkr"
    benchmark.extra_info["rounds"] = result.transcript.rounds
    benchmark.extra_info["comm_words"] = result.transcript.total_words
    benchmark.extra_info["paper_shape"] = "(log^2 u, log^2 u) for F2"


@pytest.mark.parametrize("u", SIZES)
def test_specialised_f2_bench(benchmark, field, u):
    stream = make_stream(u, 70 + u)
    verifier = F2Verifier(field, u, rng=random.Random(72))
    prover = BatchedSumcheckEngine(field, u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())

    result = benchmark.pedantic(
        lambda: run_f2(prover, verifier), rounds=1, iterations=1
    )
    assert result.accepted
    benchmark.extra_info["figure"] = "ext-gkr"
    benchmark.extra_info["rounds"] = result.transcript.rounds
    benchmark.extra_info["comm_words"] = result.transcript.total_words
    benchmark.extra_info["paper_shape"] = "(log u, log u) — quadratic win"


def test_quadratic_improvement_shape(field):
    """Rounds: GKR uses ~2·log u per layer over ~log u layers; the
    specialised protocol uses exactly log u in total."""
    for u in SIZES:
        stream = make_stream(u, 73)
        circuit = f2_circuit(u)
        gkr_verifier = StreamingGKRVerifier(field, circuit,
                                            rng=random.Random(74))
        gkr_prover = GKRProver(field, circuit)
        f2_verifier = F2Verifier(field, u, rng=random.Random(75))
        f2_prover = BatchedSumcheckEngine(field, u)
        for i, delta in stream.updates():
            gkr_verifier.process(i, delta)
            gkr_prover.process(i, delta)
            f2_verifier.process(i, delta)
            f2_prover.process(i, delta)
        gkr = run_gkr(gkr_prover, gkr_verifier)
        f2 = run_f2(f2_prover, f2_verifier)
        assert gkr.accepted and f2.accepted
        assert gkr.value == [f2.value]
        assert gkr.transcript.rounds >= 2 * f2.transcript.rounds
        assert gkr.transcript.total_words >= 2 * f2.transcript.total_words
