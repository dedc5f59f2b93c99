"""Theorem 4/5 prover bound: O(min(u, n·log(u/n))).

The dense prover costs Θ(u) however sparse the data; the sparse prover
tracks only the touched keys, so at fixed n its cost stays flat as the
universe grows — that is what lets the paper contemplate 128-bit (IPv6)
key spaces.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.core.sparse import SparseF2Prover
from repro.core.sumcheck import run_sumcheck_rounds
from repro.streams.generators import sparse_stream

N_KEYS = 256
SIZES = [1 << 14, 1 << 18, 1 << 22]


def drive(prover, field, seed):
    """One F2 proof's prover side: the engine's batch of one, or the
    sparse prover's begin_proof / round_message rounds."""
    challenges = field.rand_vector(random.Random(seed), prover.d)
    if isinstance(prover, BatchedSumcheckEngine):
        prover.receive_batch([batch_f2()])
        round_message = prover.round_messages
    else:
        prover.begin_proof()
        round_message = prover.round_message
    for j in range(prover.d):
        round_message()
        if j < prover.d - 1:
            prover.receive_challenge(challenges[j])


@pytest.mark.parametrize("u", SIZES)
def test_sparse_prover_flat_in_u(benchmark, field, u):
    stream = sparse_stream(u, N_KEYS, rng=random.Random(100))
    prover = SparseF2Prover(field, u)
    prover.process_stream(stream.updates())

    benchmark.pedantic(lambda: drive(prover, field, 101), rounds=3,
                       iterations=1)
    benchmark.extra_info["figure"] = "thm4-prover-bound"
    benchmark.extra_info["n_keys"] = N_KEYS
    benchmark.extra_info["paper_shape"] = "O(n log(u/n)): ~flat at fixed n"


@pytest.mark.parametrize("u", [1 << 14, 1 << 16])
def test_dense_prover_linear_in_u(benchmark, field, u):
    stream = sparse_stream(u, N_KEYS, rng=random.Random(102))
    prover = BatchedSumcheckEngine(field, u)
    prover.process_stream(stream.updates())

    benchmark.pedantic(lambda: drive(prover, field, 103), rounds=3,
                       iterations=1)
    benchmark.extra_info["figure"] = "thm4-prover-bound"
    benchmark.extra_info["paper_shape"] = "O(u) regardless of n"


def test_sparse_beats_dense_on_sparse_data(field):
    from repro.experiments.harness import time_call

    # At u = 2^18 the tiled dense prover is only ≈ 5.2x slower than the
    # sparse one (13 vs 2.5 ms on a 2-vCPU box), so the 5x bar sat on the
    # noise; at 2^20 the gap is ≈ 18x (52 vs 2.9 ms).
    u = 1 << 20
    stream = sparse_stream(u, N_KEYS, rng=random.Random(104))
    dense = BatchedSumcheckEngine(field, u)
    sparse = SparseF2Prover(field, u)
    dense.process_stream(stream.updates())
    sparse.process_stream(stream.updates())
    # Best of 5 alternating calls per side: with one unrepeated call each,
    # a single descheduling under full-suite load could fail the bar.
    t_dense = t_sparse = float("inf")
    for _ in range(5):
        t_dense = min(t_dense, time_call(lambda: drive(dense, field, 105))[0])
        t_sparse = min(t_sparse,
                       time_call(lambda: drive(sparse, field, 105))[0])
    assert t_sparse < t_dense / 5


def test_sparse_prover_verified_at_large_u(field):
    """End-to-end acceptance at u = 2^22 with 256 keys — the regime the
    dense prover cannot reach comfortably."""
    u = 1 << 22
    stream = sparse_stream(u, N_KEYS, rng=random.Random(106))
    verifier = F2Verifier(field, u, rng=random.Random(107))
    prover = SparseF2Prover(field, u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    prover.begin_proof()
    result = run_sumcheck_rounds(prover, verifier, Channel(), message_len=3,
                                 target=verifier.lde.value ** 2,
                                 target_name="f_a(r)^2")
    assert result.accepted
    assert result.value == stream.self_join_size() % field.p
    assert result.transcript.rounds == 22
