"""The dataset's shared canonical tables and all-or-nothing updates.

Every sum-check and tree-hash prover of a dataset starts from one
read-only table instead of a private copy of the frequency vector.  That
is only sound if (a) a proof in flight never sees later updates, (b) no
alias can write into the shared table, and (c) nothing NumPy-typed leaks
out of a prover that now holds an array where it used to hold a list.
``Dataset.apply`` must also refuse a bad block as a whole: the client is
never told which prefix the server kept.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.channel import Channel
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.subvector import SubVectorAnswer
from repro.distributed.sharded import DistributedF2Prover
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, frozen_table, get_backend
from repro.service import (
    ProverServer,
    QueryRouter,
    ServiceClient,
    ServiceClientError,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    k_largest,
    point_lookup,
    predecessor,
    range_scan,
    range_sum,
    successor,
)
from repro.service import protocol as sp
from repro.service.registry import Dataset, RegistryError, SessionRegistry

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])
U = 64
UPDATES = ([(key % U, 1 + key % 5) for key in range(0, 300, 7)]
           + [(9, -2), (7, 40)])  # one deletion, one heavy key


def transcript_of(channel):
    return [(m.sender, m.round_index, m.label, m.payload)
            for m in channel.transcript.messages]


class Client:
    """An in-process verifier session: registry + router, no sockets."""

    def __init__(self, seed=3):
        self.registry = SessionRegistry(F)
        self.session = self.registry.connect(U, 1)
        self.dataset = self.session.dataset
        self.updates = []
        self._rng = random.Random(seed)

    def apply(self, pairs, vector=0):
        self.dataset.apply(vector, pairs)
        self.updates.append((vector, list(pairs)))

    def verifier(self, unit, seed):
        verifier = QueryRouter.make_verifier(
            unit.pool_key, F, U, random.Random(seed))
        for vector, pairs in self.updates:
            for key, delta in pairs:
                if hasattr(verifier, "process_b"):
                    (verifier.process_a if vector == 0
                     else verifier.process_b)(key, delta)
                elif vector == 0:
                    verifier.process(key, delta)
        return verifier

    def open(self, *descriptors):
        (unit,) = QueryRouter.plan(list(descriptors))
        active = self.registry.open_query(
            self.session.session_id, list(unit.descriptors), unit.batched)
        return unit, active.prover


def run_one(unit, prover, verifier, channel=None):
    """The result of a one-descriptor unit (a batch of one included)."""
    outcome = QueryRouter.run(unit, prover, verifier, channel)
    return outcome[0] if unit.batched else outcome


# -- (a) snapshot semantics ----------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_updates_mid_proof_do_not_reach_the_proof_in_flight(
        backend_name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)

    def range_oracle(freq):
        return sum(freq[3:41]) % F.p

    def f2_oracle(freq):
        return sum(f * f for f in freq) % F.p

    # The sharded prover holds slices of the table, not the table: the
    # slices must keep the old array alive just the same.
    for query, oracle in ((range_sum(3, 40), range_oracle),
                          (f2(workers=4), f2_oracle)):
        undisturbed = Client()
        undisturbed.apply(UPDATES)
        unit, prover = undisturbed.open(query)
        channel = Channel()
        result = run_one(unit, prover, undisturbed.verifier(unit, 5),
                         channel)
        assert result.accepted

        client = Client()
        client.apply(UPDATES)
        unit, prover = client.open(query)
        verifier = client.verifier(unit, 5)  # saw exactly what the proof did
        client.apply([(4, 1000), (39, -3)])  # the dataset moves on mid-proof
        disturbed = Channel()
        result = run_one(unit, prover, verifier, disturbed)
        assert result.accepted, result.reason
        assert transcript_of(disturbed) == transcript_of(channel)

        # The next query proves the new data.
        unit, prover = client.open(query)
        result = run_one(unit, prover, client.verifier(unit, 6))
        assert result.accepted, result.reason
        assert result.value == oracle(client.dataset.freq_a)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_one_table_per_vector_is_shared_and_dropped_by_apply(
        backend_name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    dataset = Dataset(F, U, 0)
    dataset.apply(0, UPDATES)
    table = dataset.canonical_table(0)
    assert dataset.canonical_table(0) is table
    assert list(table) == [v % F.p for v in dataset.freq_a]
    dataset.apply(1, [(2, 2)])          # the other vector: a's table stays
    assert dataset.canonical_table(0) is table
    before = list(table)
    dataset.apply(0, [(2, 5)])
    assert list(table) == before        # dropped, never written
    fresh = dataset.canonical_table(0)
    assert fresh is not table and int(fresh[2]) == int(before[2]) + 5


# -- (b) the shared table is read-only -----------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_an_aliasing_write_raises(backend_name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    client = Client()
    client.apply(UPDATES)
    _unit, first = client.open(f2())
    _unit, second = client.open(fk(3))
    assert first.freq_a is second.freq_a  # no copies were made
    with pytest.raises((ValueError, TypeError)):
        first.process(2, 1)
    with pytest.raises((ValueError, TypeError)):
        first.freq_a[2] = 7
    # The server announces the batch at the open; here the test does.
    first.receive_batch([batch_f2()])
    assert first._a_table is client.dataset.canonical_table(0)
    with pytest.raises((ValueError, TypeError)):
        first._a_table[2] = 7  # round 0 still *is* the shared table
    first.round_messages()
    first.receive_challenge(12345)
    second.receive_batch([batch_fk(3)])
    assert second._a_table is client.dataset.canonical_table(0)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_sharded_f2_workers_alias_slices_of_the_shared_table(
        backend_name, monkeypatch):
    """``f2(workers=w)`` is served by the Section 7 coordinator — not
    quietly by the plain prover — and its w shards are views of the
    dataset's one table, taken without a copy and never written."""
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    client = Client()
    client.apply(UPDATES)
    table = client.dataset.canonical_table(0)
    _unit, prover = client.open(f2(workers=4))
    assert type(prover) is DistributedF2Prover and prover.num_workers == 4
    shard = len(table) // 4
    for w, worker in enumerate(prover.workers):
        assert list(worker.freq) == list(table[w * shard:(w + 1) * shard])
        if backend_name == "vectorized":
            import numpy as np

            assert np.shares_memory(worker.freq, table)
            assert not worker.freq.flags.writeable
        else:
            assert type(worker.freq) is tuple
    with pytest.raises((ValueError, TypeError)):
        prover.process(2, 1)
    assert list(table) == [v % F.p for v in client.dataset.freq_a]
    prover.begin_proof()
    for worker in prover.workers:
        assert worker._table is worker.freq  # round 0 adopts the view


# -- (c) only Python ints leave a prover ---------------------------------------

EVERY_KIND = [
    (point_lookup(9),), (range_scan(0, U - 1),), (range_sum(2, 50),),
    (f2(),), (fk(3),), (inner_product(),), (heavy_hitters(1, 8),),
    (k_largest(2),), (predecessor(U - 1),), (successor(1),),
    (range_sum(0, 9), range_sum(10, 63)),
    (range_sum(5, 6), f2(), fk(2), inner_product()),
    (f2(workers=4),),
]


def _flat_ints(value):
    if isinstance(value, SubVectorAnswer):
        return [word for entry in value.entries for word in entry]
    if isinstance(value, dict):
        return [word for item in value.items() for word in item]
    if isinstance(value, (list, tuple)):
        return [word for item in value for word in _flat_ints(item)]
    return [] if value is None else [value]


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the vectorized backend")
@pytest.mark.parametrize(
    "descriptors", EVERY_KIND,
    ids=["+".join(q.name + ("-sharded" if q == f2(workers=4) else "")
                  for q in qs) for qs in EVERY_KIND])
def test_every_transcript_word_is_a_python_int(descriptors, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    client = Client()
    client.apply(UPDATES)
    client.apply([(key, 2) for key in range(0, U, 3)], vector=1)
    unit, prover = client.open(*descriptors)
    channel = Channel()
    outcome = QueryRouter.run(unit, prover, client.verifier(unit, 11),
                              channel)
    results = outcome if unit.batched else [outcome]
    assert all(r.accepted for r in results), [r.reason for r in results]
    words = [word for m in channel.transcript.messages for word in m.payload]
    assert words and all(type(word) is int for word in words)
    answers = _flat_ints([getattr(r.value, "value", r.value)
                          for r in results])
    assert answers and all(type(word) is int for word in answers), answers


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("count", [1 << 22, 3 * 10 ** 6, 1 << 32, F.p - 1])
def test_true_answers_on_a_shared_table_are_exact_python_ints(backend_name,
                                                              count):
    """A shared table is a uint64 array under NumPy: the engine proves
    over it the exact answers, as Python ints, for counts whose powers
    pass 2^64 from 2^32 (F2, INNER-PRODUCT) or 3·10^6 (F3) up."""
    backend = get_backend(F, backend_name)
    a = [count, 7] + [0] * 14
    b = [count, 2] + [1] * 14
    engine = BatchedSumcheckEngine(F, 16, backend=backend,
                                   freq_a=frozen_table(backend, F, a),
                                   freq_b=frozen_table(backend, F, b))
    verifier = BatchedSumcheckVerifier(F, 16, rng=random.Random(count))
    for key in range(16):
        verifier.process_a(key, a[key])
        verifier.process_b(key, b[key])
    results = run_batched_sumcheck(engine, verifier, [
        batch_f2(), batch_fk(3), batch_inner_product(),
        batch_range_sum(0, 9)])
    wants = [count ** 2 + 49, count ** 3 + 343, count ** 2 + 14,
             count + 7]
    for result, want in zip(results, wants):
        assert result.accepted
        assert type(result.value) is int and result.value == want % F.p


# -- all-or-nothing apply ------------------------------------------------------


def test_a_refused_block_changes_nothing():
    dataset = Dataset(F, 16, 0)
    dataset.apply(0, [(1, 1), (3, 4)])
    table = dataset.canonical_table(0)
    freq, log = list(dataset.freq_a), list(dataset.log)
    with pytest.raises(RegistryError):
        dataset.apply(0, [(1, 5), (2, 7), (99, 1)])
    # Not integers: a columnar split must not parse "7" or truncate 7.9.
    for delta in ("7", 7.9, None):
        with pytest.raises(TypeError):
            dataset.apply(0, [(1, 5), (2, delta)])
    assert dataset.freq_a == freq and dataset.log == log
    assert dataset.n_updates == 2
    # Nothing changed, so the cached table is still the current one.
    assert dataset.canonical_table(0) is table


def test_a_refused_updates_frame_leaves_the_server_untouched():
    u = 16
    handle = ProverServer(F).serve_in_thread()
    try:
        host, port = handle.address
        with ServiceClient(host, port, F, u, dataset_id=4,
                           rng=random.Random(2)) as client:
            client.provision(("range-sum",), 1)
            good = [(1, 5), (2, 7), (15, 3), (2, -1)]
            client.send_updates(good)
            dataset = handle.server.registry.datasets[4]
            assert dataset.n_updates == len(good)
            with pytest.raises(ServiceClientError, match="outside universe"):
                client._request(
                    sp.T_UPDATES, client.session_id,
                    sp.updates_payload(F, 0, [(1, 5), (2, 7), (99, 1)]),
                    expect=sp.T_UPDATES_ACK)
            assert dataset.n_updates == len(good)
            assert dataset.freq_a[1:3] == [5, 6]
            # The verifier never saw the refused block either, so the
            # next proof still checks out against the stream it knows.
            (outcome,) = client.query(range_sum(0, 3))
            assert outcome.result.accepted, outcome.result.reason
            assert outcome.result.value == 11
    finally:
        handle.stop()
