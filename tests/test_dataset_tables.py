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
from collections import Counter

import pytest

from repro.comm.channel import Channel
from repro.core import multiquery, subvector
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
from repro.field import vectorized as V
from repro.field.vectorized import (
    HAVE_NUMPY,
    canonical_table,
    frozen_table,
    get_backend,
)
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

    def __init__(self, seed=3, u=U):
        self.u = u
        self.registry = SessionRegistry(F)
        self.session = self.registry.connect(u, 1)
        self.dataset = self.session.dataset
        self.updates = []
        self._rng = random.Random(seed)

    def apply(self, pairs, vector=0):
        self.dataset.apply(vector, pairs)
        self.updates.append((vector, list(pairs)))

    def verifier(self, unit, seed):
        verifier = QueryRouter.make_verifier(
            unit.pool_key, F, self.u, random.Random(seed))
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


# -- (d) one proof start per version of the data ------------------------------

#: A universe whose proofs start compact.  ``SPARSE`` touches 100 of its
#: 512 pairs: NumPy arrays, while the scalar backend, whose cut is half
#: as high, starts dense.  ``SPARSER`` touches 40: lists on both.
WIDE = 1024
SPARSE = [(key, 1 + key % 7) for key in range(0, 1000, 10)]
SPARSER = [(key, 2 + key % 3) for key in range(0, 1000, 25)]
START_QUERIES = [
    (f2(),), (range_sum(3, 700),), (inner_product(),),
    (fk(3), range_sum(0, 511)), (point_lookup(40),),
    (range_scan(100, 300),), (k_largest(2),),
]


def count_starts(monkeypatch):
    """``compact_tables`` calls from here on, by how many tables each
    was handed, under every name a prover or the dataset calls it by."""
    seen = Counter()
    real = V.compact_tables

    def counted(backend, field, *tables):
        seen[sum(table is not None for table in tables)] += 1
        return real(backend, field, *tables)

    for module in (V, multiquery, subvector):
        monkeypatch.setattr(module, "compact_tables", counted)
    return seen


def loaded_client(updates):
    client = Client(u=WIDE)
    client.apply(updates)
    client.apply([(key, 1) for key, _delta in updates[::2]], vector=1)
    return client


def prove(unit, prover, verifier):
    """Every value of a unit's accepted results, and its transcript."""
    channel = Channel()
    outcome = QueryRouter.run(unit, prover, verifier, channel)
    results = outcome if unit.batched else [outcome]
    assert all(r.accepted for r in results), [r.reason for r in results]
    return [r.value for r in results], transcript_of(channel)


def prove_on(client, descriptors):
    unit, prover = client.open(*descriptors)
    return prove(unit, prover, client.verifier(unit, 5))


def fresh_like(prover, freq_a, freq_b):
    """The same kind of prover built outside the service, on lists: it
    finds its start itself, every proof."""
    if isinstance(prover, BatchedSumcheckEngine):
        return BatchedSumcheckEngine(F, WIDE, freq_a=freq_a, freq_b=freq_b)
    return type(prover)(F, WIDE, freq=freq_a)


def start_words(start):
    """A start as plain ints: its layout, its backend and its tables."""
    layout, backend, *tables = start
    return (None if layout is None else ([int(i) for i in layout.ids],
                                         layout.pairs),
            backend.name, [[int(word) for word in table] for table in tables])


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_proofs_on_one_version_find_their_start_once(backend_name,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    client = loaded_client(SPARSE)
    seen = count_starts(monkeypatch)
    first = [prove_on(client, descriptors) for descriptors in START_QUERIES]
    for _ in range(2):
        assert [prove_on(client, descriptors)
                for descriptors in START_QUERIES] == first
    assert seen == {1: 1, 2: 1}  # (0,) and (0, 1), once each


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_an_apply_drops_only_the_starts_holding_its_vector(backend_name,
                                                           monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    client = loaded_client(SPARSE)
    dataset = client.dataset
    seen = count_starts(monkeypatch)
    a, ab = dataset.proof_start((0,)), dataset.proof_start((0, 1))
    client.apply([(2, 2)], vector=1)
    assert dataset.proof_start((0,)) is a
    assert dataset.proof_start((0, 1)) is not ab
    assert seen == {1: 1, 2: 2}
    ab = dataset.proof_start((0, 1))
    client.apply([(3, 1)])
    assert dataset.proof_start((0,)) is not a
    assert dataset.proof_start((0, 1)) is not ab
    assert seen == {1: 2, 2: 3}
    backend = dataset.backend
    for vectors in ((0,), (0, 1)):
        assert start_words(dataset.proof_start(vectors)) == start_words(
            V.compact_tables(backend, F, *(
                canonical_table(backend, F, freq)
                for freq in (dataset.freq_a, dataset.freq_b)[:len(vectors)])))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_start_is_read_only(backend_name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    layout, _backend, *tables = loaded_client(SPARSE).dataset.proof_start(
        (0, 1))
    if backend_name == "vectorized":
        parts = [layout.ids] + tables  # compact NumPy arrays
    else:
        assert layout is None  # past the scalar cut: the canonical tuples
        parts = tables
    for part in parts:
        with pytest.raises((ValueError, TypeError)):
            part[0] = 7

    # Lists cannot refuse a write; no proof makes one.
    client = loaded_client(SPARSER)
    starts = [client.dataset.proof_start(vectors)
              for vectors in ((0,), (0, 1))]
    for layout, _backend, *tables in starts:
        assert type(layout.ids) is list
        assert all(type(table) is list for table in tables)
    before = [start_words(start) for start in starts]
    for _ in range(2):
        for descriptors in START_QUERIES:
            prove_on(client, descriptors)
    assert [start_words(start) for start in starts] == before
    assert [client.dataset.proof_start(vectors)
            for vectors in ((0,), (0, 1))] == starts


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("updates", [SPARSE, SPARSER],
                         ids=["sparse", "sparser"])
def test_a_proof_opened_before_an_apply_keeps_its_start(backend_name,
                                                        updates, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    for descriptors in START_QUERIES:
        client = loaded_client(updates)
        before = client.dataset.freq_a, client.dataset.freq_b
        unit, prover = client.open(*descriptors)
        verifiers = [client.verifier(unit, 5) for _ in range(2)]
        client.apply([(1, 5), (512, 9)])  # both vectors move on mid-proof
        client.apply([(2, 4)], vector=1)
        assert prove(unit, prover, verifiers[0]) == prove(
            unit, fresh_like(prover, *before), verifiers[1]), descriptors


# -- (e) counts to residues ----------------------------------------------------

P = F.p
BOUNDARY = [0, 1, -1, P - 1, -(P - 1), P, -P, P + 1, -(P + 1),
            -(1 << 63), (1 << 63) - 1]


def delta_column(backend, values):
    """``values`` as the delta column of an update block (an int64 view
    under NumPy)."""
    _keys, deltas = backend.int_columns([(0, value) for value in values])
    return deltas


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("value", BOUNDARY)
def test_a_boundary_value_reduces_as_python_does(backend_name, value):
    backend = get_backend(F, backend_name)
    # Short columns and columns past V._MASK_REDUCE_MIN = 2^11 entries.
    for values in ([value], [value, 3, -2], [-5] * 3000 + [value],
                   [value] * 2048, [1, value] * 1500):
        column = delta_column(backend, values)
        if backend.vectorized:
            assert column.dtype == "int64"
        assert [int(word) for word in canonical_table(backend, F, column)] \
            == [v % P for v in values]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_whole_column_reduces_as_python_does(backend_name):
    backend = get_backend(F, backend_name)
    rng = random.Random(7)
    columns = {
        "empty": [],
        "all negative": [-rng.randrange(1, P) for _ in range(3_000)]
                        + [-1, -(P - 1)],
        "mixed sign": [rng.randrange(-P + 1, P) for _ in range(25_000)],
        "mixed sign past p": [rng.randrange(-(1 << 63), 1 << 63)
                              for _ in range(3_000)],
    }
    for name, values in columns.items():
        table = canonical_table(backend, F, delta_column(backend, values))
        assert [int(word) for word in table] == [v % P for v in values], name


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_column_of_python_ints_reduces_and_proves(backend_name,
                                                    monkeypatch):
    """Nine deltas of ±(p − 1)/2 on one key pass 2^63: the column
    becomes Python ints, and its table, start and proofs are exact."""
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    half = (P - 1) // 2
    client = Client(u=WIDE)
    for _ in range(9):
        client.apply([(5, half), (7, -half), (600, 1)])
    dataset = client.dataset
    if backend_name == "vectorized":
        assert dataset._counts[0].dtype == object
    freq = dataset.freq_a
    assert freq[5] > 1 << 63 and freq[7] < -(1 << 63)
    assert [int(word) for word in dataset.canonical_table(0)] \
        == [count % P for count in freq]
    (value,), _words = prove_on(client, (range_sum(0, 700),))
    assert value == sum(freq[:701]) % P
    (answer,), _words = prove_on(client, (range_scan(0, 10),))
    assert list(answer.entries) == [(5, freq[5] % P), (7, freq[7] % P)]


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
