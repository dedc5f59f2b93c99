"""Extension (Sec. 7): the distributed prover's per-worker cost shrinks
with the worker count while the wire messages stay identical."""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import section5_stream
from repro.core.f2 import F2Verifier
from repro.distributed.sharded import DistributedF2Prover, run_distributed_f2

U = 1 << 13
WORKERS = [1, 4, 16]


@pytest.mark.parametrize("workers", WORKERS)
def test_distributed_prover_by_cluster_size(benchmark, field, workers):
    stream = section5_stream(U, seed=130)
    prover = DistributedF2Prover(field, U, num_workers=workers)
    prover.process_stream(stream.updates())
    challenges = field.rand_vector(random.Random(131), prover.d)

    def produce():
        prover.begin_proof()
        for j in range(prover.d):
            prover.round_message()
            if j < prover.d - 1:
                prover.receive_challenge(challenges[j])

    benchmark.pedantic(produce, rounds=2, iterations=1)
    benchmark.extra_info["figure"] = "ext-distributed"
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["per_worker_keys"] = prover.max_worker_keys
    benchmark.extra_info["paper_shape"] = (
        "total work constant; per-worker work = total/workers"
    )


def test_distributed_accepted_end_to_end(field):
    stream = section5_stream(U, seed=132)
    verifier = F2Verifier(field, U, rng=random.Random(133))
    prover = DistributedF2Prover(field, U, num_workers=16)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    result = run_distributed_f2(prover, verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % field.p


def test_per_worker_storage_shrinks(field):
    sizes = {}
    for workers in WORKERS:
        prover = DistributedF2Prover(field, U, num_workers=workers)
        sizes[workers] = prover.max_worker_keys
    assert sizes[1] == 4 * sizes[4] == 16 * sizes[16]
