"""Extension (Sec. 3.2): Fk communication grows as O(k log u) while the
verifier's space stays O(log u)."""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import section5_stream
from repro.core.fk import FkVerifier, run_fk
from repro.core.multiquery import BatchedSumcheckEngine

U = 1 << 12
ORDERS = [2, 3, 4, 6]


@pytest.mark.parametrize("k", ORDERS)
def test_fk_proof_generation(benchmark, field, k):
    stream = section5_stream(U, seed=k)
    verifier = FkVerifier(field, U, k, rng=random.Random(30 + k))
    prover = BatchedSumcheckEngine(field, U)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())

    result = benchmark.pedantic(
        lambda: run_fk(prover, verifier), rounds=2, iterations=1
    )
    assert result.accepted
    assert result.value == stream.frequency_moment(k) % field.p
    benchmark.extra_info["figure"] = "ext-fk"
    benchmark.extra_info["comm_words"] = result.transcript.total_words
    benchmark.extra_info["paper_shape"] = "communication O(k log u)"


def test_fk_communication_linear_in_k(field):
    stream = section5_stream(U, seed=1)
    words = []
    for k in ORDERS:
        verifier = FkVerifier(field, U, k, rng=random.Random(40 + k))
        prover = BatchedSumcheckEngine(field, U)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        result = run_fk(prover, verifier)
        assert result.accepted
        words.append(result.transcript.prover_words)
    d = 12
    assert words == [(k + 1) * d for k in ORDERS]
