"""Figure 2(c): verifier space and communication, one-round vs multi-round.

Paper shape: one-round costs grow as √u (still < 1MB at u ~ 10^9);
multi-round costs are O(log u) words and "never more than 1KB even when
handling gigabytes of data".
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import section5_stream
from repro.core.f2 import F2Verifier, run_f2
from repro.core.multiquery import BatchedSumcheckEngine
from repro.core.single_round import (
    SingleRoundF2Prover,
    SingleRoundF2Verifier,
    run_single_round_f2,
)

SIZES = [1 << 10, 1 << 12, 1 << 14]


@pytest.mark.parametrize("u", SIZES)
def test_multi_round_space_comm(benchmark, field, u):
    stream = section5_stream(u)
    verifier = F2Verifier(field, u, rng=random.Random(4))
    prover = BatchedSumcheckEngine(field, u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())

    result = benchmark.pedantic(
        lambda: run_f2(prover, verifier), rounds=3, iterations=1
    )
    assert result.accepted
    wb = field.word_bytes
    benchmark.extra_info["figure"] = "2c"
    benchmark.extra_info["space_bytes"] = result.verifier_space_words * wb
    benchmark.extra_info["comm_bytes"] = result.transcript.total_words * wb
    benchmark.extra_info["paper_shape"] = "O(log u) words; < 1KB"
    assert result.verifier_space_words * wb < 1024
    assert result.transcript.total_words * wb < 1024


@pytest.mark.parametrize("u", SIZES)
def test_single_round_space_comm(benchmark, field, u):
    stream = section5_stream(u)
    verifier = SingleRoundF2Verifier(field, u, rng=random.Random(5))
    prover = SingleRoundF2Prover(field, u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    proof = prover.proof_message()  # precomputed: measure the check only

    class FixedProver:
        ell = prover.ell

        @staticmethod
        def proof_message():
            return proof

    result = benchmark.pedantic(
        lambda: run_single_round_f2(FixedProver, verifier),
        rounds=3,
        iterations=1,
    )
    assert result.accepted
    wb = field.word_bytes
    benchmark.extra_info["figure"] = "2c"
    benchmark.extra_info["space_bytes"] = result.verifier_space_words * wb
    benchmark.extra_info["comm_bytes"] = result.transcript.total_words * wb
    benchmark.extra_info["paper_shape"] = "Θ(sqrt u) words"
    # √u shape: both quantities scale with the matrix side.
    assert result.verifier_space_words == 2 * prover.ell + 1
    assert result.transcript.total_words == 2 * prover.ell - 1


def test_gap_grows_with_u(field):
    """The Figure 2(c) separation: the one-round/multi-round cost ratio
    widens as u grows."""
    ratios = []
    for u in SIZES:
        stream = section5_stream(u)
        mv = F2Verifier(field, u, rng=random.Random(6))
        mp = BatchedSumcheckEngine(field, u)
        mv.process_stream(stream.updates())
        mp.process_stream(stream.updates())
        multi = run_f2(mp, mv)

        sv = SingleRoundF2Verifier(field, u, rng=random.Random(7))
        sp = SingleRoundF2Prover(field, u)
        sv.process_stream(stream.updates())
        sp.process_stream(stream.updates())
        single = run_single_round_f2(sp, sv)

        assert multi.accepted and single.accepted
        ratios.append(
            single.transcript.total_words / multi.transcript.total_words
        )
    assert ratios[0] < ratios[1] < ratios[2]
