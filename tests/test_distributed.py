"""Tests for the Map-Reduce-style distributed prover (Section 7)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.f2 import F2Verifier
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.distributed.sharded import DistributedF2Prover, run_distributed_f2
from repro.field.modular import DEFAULT_FIELD
from repro.streams.generators import uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=-9, max_value=9)),
    max_size=30,
)


@given(updates_strategy, st.sampled_from([1, 2, 4, 8]))
def test_messages_identical_to_centralised(updates, workers):
    """The paper's parallelisation claim: each round message is a sum of
    per-shard inner products, so map-reduce changes nothing on the wire."""
    central = BatchedSumcheckEngine(F, 64)
    distributed = DistributedF2Prover(F, 64, num_workers=workers)
    for i, d in updates:
        central.process(i, d)
        distributed.process(i, d)
    central.receive_batch([batch_f2()])
    distributed.begin_proof()
    rng = random.Random(1)
    for j in range(central.d):
        assert central.round_messages() == [distributed.round_message()]
        if j < central.d - 1:
            r = F.rand(rng)
            central.receive_challenge(r)
            distributed.receive_challenge(r)


@given(updates_strategy)
def test_accepted_by_standard_verifier(updates):
    stream = Stream(64, updates)
    verifier = F2Verifier(F, 64, rng=random.Random(2))
    prover = DistributedF2Prover(F, 64, num_workers=4)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_distributed_f2(prover, verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_end_to_end_medium_scale():
    stream = uniform_frequency_stream(1 << 10, max_frequency=20,
                                      rng=random.Random(3))
    verifier = F2Verifier(F, 1 << 10, rng=random.Random(4))
    prover = DistributedF2Prover(F, 1 << 10, num_workers=8)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_distributed_f2(prover, verifier)
    assert result.accepted
    assert result.value == stream.self_join_size() % F.p


def test_sharding_balance():
    prover = DistributedF2Prover(F, 1 << 8, num_workers=4)
    assert prover.max_worker_keys == 64
    for worker in prover.workers:
        assert worker.shard_size == 64
    # Per-worker storage is u / workers at every cluster size.
    for workers in (1, 16):
        prover = DistributedF2Prover(F, 1 << 8, num_workers=workers)
        assert prover.max_worker_keys == (1 << 8) // workers


def test_keys_routed_to_correct_shard():
    prover = DistributedF2Prover(F, 16, num_workers=4)
    prover.process(0, 1)
    prover.process(5, 2)
    prover.process(15, 3)
    assert prover.workers[0].freq[0] == 1
    assert prover.workers[1].freq[1] == 2  # key 5 = shard 1, offset 1
    assert prover.workers[3].freq[3] == 3


def test_true_answer():
    """Keys on different shards: the verified answer is the true F2."""
    verifier = F2Verifier(F, 16, rng=random.Random(5))
    prover = DistributedF2Prover(F, 16, num_workers=2)
    for i, d in [(1, 3), (9, 4)]:
        verifier.process(i, d)
        prover.process(i, d)
    result = run_distributed_f2(prover, verifier)
    assert result.accepted and result.value == 3 * 3 + 4 * 4


def test_worker_count_validation():
    with pytest.raises(ValueError):
        DistributedF2Prover(F, 64, num_workers=3)
    with pytest.raises(ValueError):
        DistributedF2Prover(F, 64, num_workers=0)
    with pytest.raises(ValueError):
        DistributedF2Prover(F, 8, num_workers=8)  # shards of one entry


def test_universe_check():
    prover = DistributedF2Prover(F, 16, num_workers=2)
    with pytest.raises(ValueError):
        prover.process(16, 1)


def test_coordinator_takeover_rounds():
    """After log(size/workers) folds the shards are single values and the
    coordinator runs the remaining log(workers) rounds."""
    prover = DistributedF2Prover(F, 64, num_workers=4)
    prover.process_stream([(i, 1) for i in range(64)])
    prover.begin_proof()
    rng = random.Random(5)
    for j in range(prover.d - 1):
        prover.round_message()
        prover.receive_challenge(F.rand(rng))
        if j + 1 < prover._shard_bits:
            assert prover._coordinator_table is None
        else:
            assert prover._coordinator_table is not None
    assert len(prover._coordinator_table) == 2


# -- shard-count validation + backend plumbing --------------------------------


def test_worker_count_error_messages_are_clear():
    with pytest.raises(ValueError, match="power of two"):
        DistributedF2Prover(F, 64, num_workers=6)
    with pytest.raises(ValueError, match="at least two entries"):
        DistributedF2Prover(F, 16, num_workers=16)


def test_single_worker_degenerates_to_central():
    central = BatchedSumcheckEngine(F, 32)
    solo = DistributedF2Prover(F, 32, num_workers=1)
    for i, d in [(0, 3), (7, -2), (31, 5)]:
        central.process(i, d)
        solo.process(i, d)
    central.receive_batch([batch_f2()])
    solo.begin_proof()
    rng = random.Random(40)
    for j in range(central.d):
        assert central.round_messages() == [list(solo.round_message())]
        if j < central.d - 1:
            r = F.rand(rng)
            central.receive_challenge(r)
            solo.receive_challenge(r)


def test_partial_message_requires_begin_proof():
    prover = DistributedF2Prover(F, 16, num_workers=2)
    with pytest.raises(RuntimeError):
        prover.workers[0].partial_message()
    with pytest.raises(RuntimeError):
        prover.workers[0].fold(1)
