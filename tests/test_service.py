"""Tests for repro.service — the prover-as-a-service subsystem.

Covers the frame protocol, the query router/planner, the session
registry, the full client/server lifecycle over real sockets (connect →
stream → query → verify → reject cheating prover), sharded
``f2(workers)`` execution, and the load generator.  The end-to-end demo
test at the bottom is the acceptance scenario: >= 10^5
OutsourcedKVStore updates streamed over the wire, >= 4 query types
verified through the QueryRouter, with per-query channel/frame costs
checked against the paper's asymptotic bounds.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import subprocess
import sys
import time

import pytest

from repro.adversary.cheating_provers import (
    ConcealingHeavyHittersProver,
    OffsetClaimF2Prover,
    OmittingHeavyHittersProver,
    OmittingSubVectorProver,
    OutOfRangeHeavyHittersProver,
    PerQueryCheatingBatchEngine,
)
from repro.comm.channel import drop_last_word, flip_word
from repro.comm.wire import MAX_MESSAGE_WORDS, encode_transcript
from repro.core.base import pow2_dimension
from repro.core.multiquery import MAX_MOMENT_ORDER
from repro.core.multiquery import BatchedSumcheckEngine, batch_fk
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.modular import PrimeField
from repro.field.vectorized import HAVE_NUMPY
from repro.service import protocol as sp
from repro.service import (
    NO_RETRY,
    ProverServer,
    QueryDescriptor,
    QueryRouter,
    RoutingError,
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceUnavailableError,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    k_largest,
    point_lookup,
    predecessor,
    range_scan,
    range_sum,
    run_load,
    successor,
)
from repro.service.registry import Dataset, RegistryError, SessionRegistry
from repro.service.router import KIND_FK, KIND_RANGE_SUM
from repro.streams.generators import key_value_pairs, uniform_frequency_stream
from repro.streams.kvstore import OutsourcedKVStore


# -- shared server fixture -----------------------------------------------------


@pytest.fixture(scope="module")
def server():
    srv = ProverServer(F)
    handle = srv.serve_in_thread()
    yield handle
    handle.stop()


def connect(server, u, dataset_id, seed=0, **kwargs):
    host, port = server.address
    return ServiceClient(host, port, F, u, dataset_id=dataset_id,
                         rng=random.Random(seed), **kwargs)


_DATASET_COUNTER = iter(range(1000, 10_000))


def fresh_dataset_id():
    return next(_DATASET_COUNTER)


# -- frame protocol ------------------------------------------------------------


def test_frame_roundtrip():
    frame = sp.pack_frame(sp.T_UPDATES, 42, b"abc")
    frame_type, session, length = sp.unpack_header(frame[: sp.HEADER_LEN])
    assert (frame_type, session, length) == (sp.T_UPDATES, 42, 3)
    assert frame[sp.HEADER_LEN :] == b"abc"


def test_frame_header_validation():
    good = sp.pack_frame(sp.T_HELLO, 0, b"")[: sp.HEADER_LEN]
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(good[:-1])
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(b"XX" + good[2:])
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(good[:2] + bytes([99]) + good[3:])
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(good[:3] + bytes([0xEE]) + good[4:])
    huge = bytearray(good)
    huge[8:12] = (sp.MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(bytes(huge))
    with pytest.raises(sp.ServiceProtocolError):
        sp.pack_frame(0xEE, 0, b"")


def test_hello_payload_roundtrip():
    payload = sp.hello_payload(F, 1 << 20, 7)
    assert sp.parse_hello(payload) == (F.p, 1 << 20, 7)
    big = PrimeField((1 << 127) - 1, check_prime=False)
    assert sp.parse_hello(sp.hello_payload(big, 5, 0)) == (big.p, 5, 0)
    with pytest.raises(sp.ServiceProtocolError):
        sp.parse_hello(payload[:-1])
    with pytest.raises(sp.ServiceProtocolError):
        sp.parse_hello(b"")


def test_updates_payload_roundtrip_signed():
    pairs = [(3, 5), (7, -2), (0, -(10**9))]
    vector, decoded = sp.parse_updates(F, sp.updates_payload(F, 0, pairs))
    assert vector == 0 and decoded == pairs
    with pytest.raises(sp.ServiceProtocolError):
        sp.parse_updates(F, sp.words_payload(F, [0, 1]))  # dangling key
    with pytest.raises(sp.ServiceProtocolError):
        sp.parse_updates(F, sp.words_payload(F, [9, 1, 1]))  # bad vector


def test_descriptor_words_roundtrip():
    for q in [point_lookup(5), range_scan(1, 9), range_sum(0, 3), f2(),
              f2(workers=4), fk(3), inner_product(), heavy_hitters(1, 8),
              k_largest(2), predecessor(7), successor(7)]:
        assert QueryDescriptor.from_words(q.to_words()) == q
    with pytest.raises(RoutingError):
        QueryDescriptor.from_words([1, 5, 2])
    with pytest.raises(RoutingError):
        QueryDescriptor(999, ())
    with pytest.raises(RoutingError):
        QueryDescriptor(KIND_RANGE_SUM, (1,))


# -- router / planner ----------------------------------------------------------


def test_plan_batches_the_sumcheck_family():
    # Mixed sum-check kinds share one heterogeneous batched unit drawing
    # from the ("batch",) two-LDE verifier pool.
    queries = [range_sum(0, 5), f2(), range_sum(2, 9), point_lookup(1)]
    units = QueryRouter.plan(queries)
    assert [u.batched for u in units] == [True, False]
    assert units[0].descriptors == (range_sum(0, 5), f2(), range_sum(2, 9))
    assert units[0].pool_key == ("batch",)
    # A homogeneous batch keeps its family pool.
    units = QueryRouter.plan([range_sum(0, 5), range_sum(2, 9),
                              k_largest(1)])
    assert [u.batched for u in units] == [True, False]
    assert units[0].pool_key == ("range-sum",)
    # A lone sum-check descriptor is a batch of one drawing from its
    # family's pool...
    units = QueryRouter.plan([range_sum(0, 5), heavy_hitters(1, 8)])
    assert [u.batched for u in units] == [True, False]
    for lone, key in ((range_sum(0, 5), ("range-sum",)), (f2(), ("f2",)),
                      (fk(3), ("fk", 3)),
                      (inner_product(), ("inner-product",))):
        (unit,) = QueryRouter.plan([lone])
        assert unit.batched and unit.pool_key == key
    # ...and sharded F2 keeps its own prover, outside any batch.
    units = QueryRouter.plan([f2(workers=4), range_sum(0, 5), fk(3)])
    assert [u.batched for u in units] == [False, True]
    assert units[1].descriptors == (range_sum(0, 5), fk(3))


def test_pool_keys_group_the_tree_family():
    tree_kinds = [point_lookup(1), range_scan(0, 3), k_largest(2),
                  predecessor(5), successor(5)]
    keys = {QueryRouter.verifier_pool_key(q) for q in tree_kinds}
    assert keys == {("tree",)}
    assert QueryRouter.verifier_pool_key(fk(3)) == ("fk", 3)
    assert QueryRouter.verifier_pool_key(heavy_hitters(1, 8)) == \
        ("heavy-hitters", 1, 8)


def test_router_runs_every_kind_in_process():
    """The router's factories and drivers work without any sockets."""
    u = 256
    store = OutsourcedKVStore(u)
    pairs = key_value_pairs(u, 40, rng=random.Random(3))
    store.put_many(pairs)
    updates = list(store.updates())
    dataset = Dataset(F, u, 0)
    for vector in (0, 1):
        dataset.apply(vector, updates)
    rng = random.Random(9)
    some_key = pairs[0][0]
    queries = [point_lookup(some_key), range_scan(0, u - 1),
               range_sum(0, u // 2), f2(), fk(3), heavy_hitters(1, 4),
               k_largest(1), predecessor(u - 1), successor(0),
               inner_product()]
    for q in queries:
        unit = QueryRouter.plan([q])[0]
        verifier = QueryRouter.make_verifier(
            unit.pool_key, F, u, random.Random(rng.getrandbits(64))
        )
        if unit.pool_key[0] == "inner-product":
            for i, delta in updates:
                verifier.process_a(i, delta)
                verifier.process_b(i, delta)
        else:
            verifier.process_stream(updates)
        prover = QueryRouter.make_prover(unit, dataset)
        result = QueryRouter.run(unit, prover, verifier)
        if unit.batched:
            (result,) = result
        assert result.accepted, (q.name, result.reason)


def test_router_validates_phi():
    with pytest.raises(RoutingError):
        QueryRouter.make_verifier(("heavy-hitters", 0, 4), F, 16,
                                  random.Random(0))
    with pytest.raises(RoutingError):
        QueryRouter.make_verifier(("heavy-hitters", 5, 4), F, 16,
                                  random.Random(0))


# -- registry ------------------------------------------------------------------


def test_registry_shares_datasets_across_sessions():
    registry = SessionRegistry(F)
    s1 = registry.connect(64, 1)
    s2 = registry.connect(64, 1)
    s3 = registry.connect(128, 2)
    assert s1.dataset is s2.dataset
    assert s1.dataset is not s3.dataset
    assert s1.dataset.sessions_attached == 2
    with pytest.raises(RegistryError):
        registry.connect(32, 1)  # universe mismatch on dataset 1
    registry.disconnect(s2.session_id)
    assert s1.dataset.sessions_attached == 1
    with pytest.raises(RegistryError):
        registry.session(s2.session_id)


def test_registry_dataset_apply_and_replay():
    dataset = Dataset(F, 16, 0)
    dataset.apply(0, [(3, 2), (5, -1)])
    dataset.apply(1, [(1, 4)])
    assert dataset.freq_a[3] == 2 and dataset.freq_a[5] == -1
    assert dataset.freq_b[1] == 4
    assert dataset.n_updates == 3
    # Catch-up replays the net entries in (vector, key) order.
    assert list(dataset.replay_slice(1, 10)) == [(0, 5, -1), (1, 1, 4)]
    dataset.apply(0, [(5, 1), (3, 4)])
    assert list(dataset.replay_slice(0, 10)) == [(0, 3, 6), (1, 1, 4)]
    with pytest.raises(RegistryError):
        dataset.apply(0, [(16, 1)])
    assert dataset.n_updates == 5  # a refused block moves nothing
    with pytest.raises(RegistryError):
        dataset.replay_slice(-1, 5)


def test_registry_query_lifecycle_and_stats():
    registry = SessionRegistry(F)
    session = registry.connect(64, 5)
    unit_desc = [range_sum(0, 9)]
    active = registry.open_query(session.session_id, unit_desc, True)
    assert registry.stats()["open_queries"] == 1
    session.close_query(active.ref)
    assert registry.stats()["open_queries"] == 0
    assert registry.stats()["queries_served"] == 1
    with pytest.raises(RegistryError):
        session.close_query(active.ref)


# -- client/server lifecycle ---------------------------------------------------


def test_session_lifecycle_connect_stream_query_verify(server):
    u = 512
    store = OutsourcedKVStore(u)
    pairs = key_value_pairs(u, 80, rng=random.Random(11))
    store.put_many(pairs)
    client = connect(server, u, fresh_dataset_id(), seed=21)
    with client:
        client.provision(("tree",), 3)
        # range_sum + f2 plan onto one mixed batched unit: one two-LDE
        # verifier copy serves both.
        client.provision(("batch",), 1)
        client.send_updates(list(store.updates()))

        some_key, some_val = pairs[0]
        outcomes = client.query(
            point_lookup(some_key),
            range_sum(0, u - 1),
            f2(),
            predecessor(u - 1),
            successor(0),
        )
        for outcome in outcomes:
            assert outcome.result.accepted, (
                outcome.descriptor.name, outcome.result.reason
            )
        # DICTIONARY decoding happens client-side (+1 shift).
        assert outcomes[0].result.value == some_val + 1
        assert outcomes[1].result.value == store.range_value_sum(0, u - 1) \
            + len(store)  # +1 per present key from the encoding
        # Every query consumed one copy from its pool (the batched unit
        # one copy for both of its members).
        assert client.pool_remaining(("tree",)) == 0
        assert client.pool_remaining(("batch",)) == 0
        # The server counted all four plan units (global counter).
        assert client.stats()["queries_served"] >= 4


def test_successor_past_the_padded_universe_over_the_wire(server):
    """A descriptor refuses only negative parameters, so ``successor(q)``
    with q at or past the padded size reaches the driver: "none", and
    the session answers the next query as usual."""
    u = 12  # padded to 16
    client = connect(server, u, fresh_dataset_id(), seed=22)
    with client:
        client.provision(("tree",), 4)
        client.send_updates([(3, 1), (9, 2)])
        outcomes = client.query(successor(16), successor(20),
                                predecessor(20), point_lookup(9))
        for outcome in outcomes:
            assert outcome.result.accepted, outcome.result.reason
        assert [o.result.value for o in outcomes] == [None, None, 9, 2]


@pytest.mark.parametrize("descriptor", [
    range_scan(0, 64), range_scan(5, 4), point_lookup(100), k_largest(0),
    range_sum(0, 64), f2(workers=3), f2(workers=64),
], ids=["scan-past-size", "scan-lo-above-hi", "lookup-past-size",
        "k-largest-0", "range-sum-past-size", "f2-3-workers",
        "f2-64-workers"])
def test_invalid_query_is_refused_at_the_open_and_keeps_its_copy(
        server, descriptor):
    """A query no answer can exist for is refused before the open is
    acked, like RANGE-SUM: no verifier copy is spent on it, and no
    "rejected" verdict suggests the prover cheated.  A shard count that
    is not a power of two, or leaves a worker under two entries, is
    refused by the sharded prover's constructor."""
    u = 60  # padded to 64
    client = connect(server, u, fresh_dataset_id(), seed=23)
    with client:
        pool = client.provision(descriptor, 2)
        client.send_updates([(3, 1), (9, 2)])
        with pytest.raises(ServiceClientError, match="invalid|worker"):
            client.query(descriptor)
        assert client.pool_remaining(pool) == 2


def test_field_mismatch_refused(server):
    host, port = server.address
    small = PrimeField((1 << 31) - 1)
    with pytest.raises(ServiceClientError, match="field mismatch"):
        ServiceClient(host, port, small, 64, dataset_id=fresh_dataset_id())


def test_pool_exhaustion_and_missing_pool(server):
    client = connect(server, 64, fresh_dataset_id(), seed=5)
    with client:
        client.provision(("f2",), 1)
        client.send_updates([(1, 2), (5, 3)])
        assert client.query(f2())[0].result.accepted
        with pytest.raises(LookupError):
            client.query(f2())
        with pytest.raises(RoutingError):
            client.query(fk(3))  # never provisioned
        with pytest.raises(ValueError):
            client.provision(("fk", 3), 1)  # too late: stream started


def test_provision_validation(server):
    client = connect(server, 64, fresh_dataset_id(), seed=6)
    with client:
        client.provision(("tree",), 2)
        with pytest.raises(ValueError):
            client.provision(("tree",), 1)  # duplicate pool
        with pytest.raises(ValueError):
            client.provision(("f2",), 0)  # zero copies


def test_server_rejects_bad_requests(server):
    client = connect(server, 64, fresh_dataset_id(), seed=7)
    with client:
        client.provision(("f2",), 1)
        # Updates outside the universe are refused client-side before
        # any pool or frame sees them...
        with pytest.raises(ValueError, match="outside universe"):
            client.send_updates([(64, 1)])
        # ...and the server validates independently: a raw frame with a
        # bad key comes back as an error frame, not a crash.
        with pytest.raises(ServiceClientError, match="outside universe"):
            client._request(
                sp.T_UPDATES, client.session_id,
                sp.updates_payload(F, 0, [(64, 1)]),
                expect=sp.T_UPDATES_ACK,
            )
        # An unknown query reference is an error frame, not a crash.
        with pytest.raises(ServiceClientError, match="unknown query"):
            client._prover_call(999, sp.M_BEGIN_PROOF, [])
        # The session survives all of the above and still verifies.
        client.send_updates([(3, 4)])
        assert client.query(f2())[0].result.accepted


def test_damaged_updates_frames_are_typed_errors_on_a_live_connection(
        server):
    """Every damaged form of a T_UPDATES body — the node decodes it
    straight into columns — is answered with a T_ERROR frame on a
    connection that stays up, and applies nothing."""
    dataset_id = fresh_dataset_id()
    client = connect(server, 64, dataset_id, seed=9)
    with client:
        client.provision(("f2",), 1)
        client.send_updates([(1, 2), (5, -3)])
        dataset = server.server.registry.datasets[dataset_id]
        good = sp.updates_payload(F, 0, [(2, 1), (3, F.p - 1), (4, 7)])
        count, raw = good[:4], good[4:]
        damaged = {
            "length prefix": [good[:2], b""],
            "does not match": [good[:-3], good + b"\x00",
                               (9).to_bytes(4, "big") + raw],
            "cap": [(MAX_MESSAGE_WORDS + 1).to_bytes(4, "big") + raw],
            "wrong shape": [(6).to_bytes(4, "big") + raw[:48]],
            "word 4 is not a canonical": [
                count + raw[:32] + F.p.to_bytes(8, "big") + raw[40:]],
            "unknown update vector": [
                count + (2).to_bytes(8, "big") + raw[8:]],
            "outside universe": [
                sp.updates_payload(F, 0, [(2, 1), (64, 1)])],
        }
        for message, payloads in damaged.items():
            for payload in payloads:
                with pytest.raises(ServiceClientError, match=message):
                    client._request(sp.T_UPDATES, client.session_id,
                                    payload, expect=sp.T_UPDATES_ACK)
                assert dataset.n_updates == 2
        assert dataset.freq_a[1] == 2 and dataset.freq_a[5] == -3
        # Same connection, same session: the good frame lands, its
        # p - 1 read as -1, and the verifier's next proof checks out
        # against the stream it knows.
        client.send_updates([(2, 1), (3, -1), (4, 7)])
        assert dataset.n_updates == 5 and dataset.freq_a[3] == -1
        assert client.query(f2())[0].result.accepted


def test_batched_range_sums_share_one_verifier_copy(server):
    u = 256
    client = connect(server, u, fresh_dataset_id(), seed=8)
    with client:
        client.provision(("range-sum",), 1)
        stream = uniform_frequency_stream(u, max_frequency=20,
                                          rng=random.Random(13))
        updates = list(stream.updates())
        client.send_updates(updates)
        outcomes = client.query(
            range_sum(0, 63), range_sum(64, 127), range_sum(0, 255)
        )
        for outcome, (lo, hi) in zip(outcomes, [(0, 63), (64, 127),
                                                (0, 255)]):
            assert outcome.result.accepted
            assert outcome.result.value == stream.range_sum(lo, hi) % F.p
        # One batched unit: a single copy served all three queries...
        assert client.pool_remaining(("range-sum",)) == 0
        # ...and the batch shared its wire frames across the queries.
        assert outcomes[0].cost.frames == outcomes[1].cost.frames


def test_mixed_batch_over_the_wire(server):
    """A mixed service request — RANGE-SUM + F2 + Fk + INNER-PRODUCT —
    plans onto one engine run: one verifier copy, one prover, shared
    frames, every member verified against the dataset."""
    u = 256
    client = connect(server, u, fresh_dataset_id(), seed=9)
    with client:
        client.provision(("batch",), 1)
        stream = uniform_frequency_stream(u, max_frequency=9,
                                          rng=random.Random(15))
        updates = list(stream.updates())
        client.send_updates(updates)
        updates_b = [(i, 1 + i % 3) for i in range(0, u, 7)]
        client.send_updates(updates_b, vector=1)

        descriptors = [range_sum(0, 100), f2(), fk(3), inner_product(),
                       range_sum(101, 255)]
        outcomes = client.query(*descriptors)
        for outcome in outcomes:
            assert outcome.result.accepted, (
                outcome.descriptor.name, outcome.result.reason
            )
        freq_b = [0] * u
        for i, delta in updates_b:
            freq_b[i] += delta
        sparse = stream.sparse_frequencies()
        assert outcomes[0].result.value == stream.range_sum(0, 100) % F.p
        assert outcomes[1].result.value == stream.self_join_size() % F.p
        assert outcomes[2].result.value == stream.frequency_moment(3) % F.p
        assert outcomes[3].result.value == sum(
            f * freq_b[i] for i, f in sparse.items()
        ) % F.p
        # One batched unit: a single two-LDE copy served all five...
        assert client.pool_remaining(("batch",)) == 0
        # ...over one shared set of wire frames.
        assert len({o.cost.frames for o in outcomes}) == 1
        # Per-query words: an Fk member pays (k+1)·d + shared, a
        # degree-2 member 3·d (+2 for a range announcement) + shared.
        d = client.d
        assert outcomes[2].cost.transcript_words == 4 * d + (d - 1)
        assert outcomes[0].cost.transcript_words == 2 + 3 * d + (d - 1)


def test_batched_cheating_prover_rejected_per_query_over_the_wire():
    """A service prover cheating on exactly one member of a mixed batch
    is rejected for that member — the honest members of the same batch
    still verify behind the real wire."""
    updates = [(i % 32, 1 + i % 4) for i in range(96)]

    def cheat_on_f2_member(unit, prover, dataset):
        if not unit.batched:
            return None
        cheat = PerQueryCheatingBatchEngine(F, dataset.u, cheat_query=1,
                                            offset=5)
        cheat.freq_a = list(prover.freq_a)
        cheat.freq_b = list(prover.freq_b)
        return cheat

    outcomes = run_against_cheating_server(
        cheat_on_f2_member, {("batch",): 1},
        [range_sum(0, 50), f2(), fk(2)], updates, u=64,
    )
    assert not outcomes[1].result.accepted
    assert "final check" in outcomes[1].result.reason
    for idx in (0, 2):
        assert outcomes[idx].result.accepted, outcomes[idx].result.reason


def test_server_refuses_resource_abuse(server):
    host, port = server.address
    # A universe above the service cap is refused in the handshake —
    # before any dense vector is allocated.
    with pytest.raises(ServiceClientError, match="limit"):
        ServiceClient(host, port, F, 1 << 25,
                      dataset_id=fresh_dataset_id())
    # The wire protocol itself caps u below the dyadic-padding bound.
    with pytest.raises(sp.ServiceProtocolError):
        sp.hello_payload(F, (1 << 60) + 1, 0)
    oversized = (bytes([8]) + F.p.to_bytes(8, "big")
                 + (1 << 61).to_bytes(8, "big") + (0).to_bytes(8, "big"))
    with pytest.raises(sp.ServiceProtocolError):
        sp.parse_hello(oversized)


def test_second_hello_on_one_connection_refused(server):
    client = connect(server, 64, fresh_dataset_id(), seed=83)
    with client:
        with pytest.raises(ServiceClientError, match="already carries"):
            client._request(
                sp.T_HELLO, 0,
                sp.hello_payload(F, 64, fresh_dataset_id()),
                expect=sp.T_HELLO_ACK,
            )
        # The original session is unharmed.
        client.provision(("f2",), 1)
        client.send_updates([(1, 1)])
        assert client.query(f2())[0].result.accepted


def test_replay_after_streaming_refused(server):
    client = connect(server, 64, fresh_dataset_id(), seed=85)
    with client:
        client.provision(("f2",), 1)
        client.send_updates([(2, 3)])
        with pytest.raises(ValueError, match="double-count"):
            client.replay_missed()


def test_late_join_replay_catches_up(server):
    u = 128
    dataset = fresh_dataset_id()
    writer = connect(server, u, dataset, seed=31)
    with writer:
        writer.provision(("f2",), 1)
        writer.send_updates([(i % u, 1) for i in range(300)])
        first = writer.query(f2())[0]
        assert first.result.accepted

        reader = connect(server, u, dataset, seed=32)
        with reader:
            assert reader.missed_updates == 300
            reader.provision(("f2",), 1)
            assert reader.replay_missed() == 300
            second = reader.query(f2())[0]
            assert second.result.accepted
            assert second.result.value == first.result.value


# -- the node process keeps its heap -------------------------------------------


def _minor_faults(pid):
    with open("/proc/%d/stat" % pid) as fh:  # field 10, after "(comm)"
        return int(fh.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/stat"),
    reason="the heap rule is two glibc mallopt calls, read back from /proc")
def test_node_process_takes_no_page_faults_per_query():
    """``python -m repro.service`` raises glibc's trim and mmap thresholds
    at start, so a steady-state query runs in memory the node already
    holds.  Without the two calls this scenario costs 28 minor faults per
    query (the heap top is trimmed after every round's temporaries and
    faulted back in on the next), with them 0 — on any heap layout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    node = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        _tag, _listening, host, port = node.stdout.readline().split()
        u = 1 << 12
        rng = random.Random(5)
        with ServiceClient(host, int(port), F, u, dataset_id=1,
                           rng=random.Random(1)) as client:
            client.provision(("range-sum",), 230)
            client.send_updates([(rng.randrange(u), rng.randrange(1, 5))
                                 for _ in range(5000)])

            def run(queries):
                for _ in range(queries):
                    lo = rng.randrange(u)
                    (outcome,) = client.query(
                        range_sum(lo, rng.randrange(lo, u)))
                    assert outcome.result.accepted

            run(30)  # warm-up: the heap grows to its working size
            before = _minor_faults(node.pid)
            run(200)
            assert _minor_faults(node.pid) - before < 200
    finally:
        node.terminate()
        node.wait(timeout=10)
        node.stdout.close()


# -- cheating provers over the wire -------------------------------------------


def run_against_cheating_server(prover_wrapper, provision, descriptors,
                                updates, u=256, tamper=None, seed=41):
    srv = ProverServer(F, prover_wrapper=prover_wrapper)
    handle = srv.serve_in_thread()
    try:
        host, port = handle.address
        client = ServiceClient(host, port, F, u, dataset_id=1,
                               rng=random.Random(seed), tamper=tamper)
        with client:
            for key, copies in provision.items():
                client.provision(key, copies)
            client.send_updates(updates)
            return client.query(*descriptors)
    finally:
        handle.stop()


def heavy_stream(u):
    updates = [(i, 1) for i in range(40)]
    updates += [(7, 1)] * 60  # key 7 is genuinely heavy
    return updates


def modified_stream_engine(dataset, corrupt_key):
    """A perfectly formed proof for a stream one update off: the engine
    over a perturbed copy of the dataset's counts."""
    freq = dataset.freq_a
    freq[corrupt_key] += 1
    return BatchedSumcheckEngine(F, dataset.u, freq_a=freq)


def test_cheating_f2_provers_rejected_over_the_wire():
    updates = [(i % 16, 1) for i in range(64)]

    def modified_stream(unit, prover, dataset):
        if unit.descriptors[0].kind != f2().kind:
            return None
        return modified_stream_engine(dataset, 3)

    def adaptive(unit, prover, dataset):
        if unit.descriptors[0].kind != f2().kind:
            return None
        cheat = PerQueryCheatingBatchEngine(F, dataset.u, cheat_query=0,
                                            offset=5)
        cheat.freq_a = prover.freq_a
        return cheat

    for wrapper in (modified_stream, adaptive):
        outcome = run_against_cheating_server(
            wrapper, {("f2",): 1}, [f2()], updates
        )[0]
        assert not outcome.result.accepted
        assert outcome.result.reason


def test_omitting_subvector_prover_rejected_over_the_wire():
    updates = [(3, 1), (9, 2), (40, 5)]

    def omitting(unit, prover, dataset):
        if unit.descriptors[0].kind != range_scan(0, 0).kind:
            return None
        cheat = OmittingSubVectorProver(F, dataset.u, omit_key=9)
        cheat.freq = list(prover.freq)
        return cheat

    outcome = run_against_cheating_server(
        omitting, {("tree",): 1}, [range_scan(0, 63)], updates
    )[0]
    assert not outcome.result.accepted
    assert "root" in outcome.result.reason


def test_concealing_heavy_hitters_prover_rejected_over_the_wire():
    def concealing(unit, prover, dataset):
        if unit.descriptors[0].kind != heavy_hitters(1, 4).kind:
            return None
        cheat = ConcealingHeavyHittersProver(F, dataset.u, 0.25,
                                             conceal_key=7)
        cheat.freq = list(prover.freq)
        return cheat

    outcome = run_against_cheating_server(
        concealing, {("heavy-hitters", 1, 4): 1}, [heavy_hitters(1, 4)],
        heavy_stream(256),
    )[0]
    assert not outcome.result.accepted


@pytest.mark.parametrize("make", [
    lambda u: OmittingHeavyHittersProver(F, u, 0.25, omit_level=0),
    lambda u: OutOfRangeHeavyHittersProver(F, u, 0.25, level=1),
])
def test_omitting_and_out_of_range_heavy_records_rejected_over_the_wire(
        make):
    def cheating(unit, prover, dataset):
        if unit.descriptors[0].kind != heavy_hitters(1, 4).kind:
            return None
        cheat = make(dataset.u)
        cheat.freq = list(prover.freq)
        return cheat

    outcome = run_against_cheating_server(
        cheating, {("heavy-hitters", 1, 4): 1}, [heavy_hitters(1, 4)],
        heavy_stream(256),
    )[0]
    assert not outcome.result.accepted
    assert outcome.result.reason.startswith("level 1: ")


def test_heavy_hitters_over_a_negative_column_rejected_over_the_wire(server):
    """Heavy hitters answers strict streams: once a count went negative,
    a proof needing a subtree count above n is refused."""
    with connect(server, 16, fresh_dataset_id(), seed=56) as client:
        client.provision(("heavy-hitters", 3, 10), 1)
        client.send_updates([(1, 5), (2, 10), (3, -3), (4, 6)])
        (outcome,) = client.query(heavy_hitters(3, 10))
    assert not outcome.result.accepted
    assert "more than the stream's mass n" in outcome.result.reason


def test_tampered_network_rejected_over_the_wire(server):
    """A corrupted frame payload (channel tamper) is caught like any
    dishonest prover — the wire adds no trust."""
    client = connect(server, 64, fresh_dataset_id(), seed=55)
    client.tamper = flip_word(round_index=1)
    with client:
        client.provision(("f2",), 1)
        client.send_updates([(i % 8, 2) for i in range(32)])
        outcome = client.query(f2())[0]
        assert not outcome.result.accepted
        assert "round 1" in outcome.result.reason


# -- f2(workers): the sharded coordinator over the wire -------------------------

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

#: u = 1000 is not a power of two; net frequencies go negative, cancel
#: to zero, and two deltas sit at the field's edge, ±(p − 1).
SHARDED_U = 1000
SHARDED_UPDATES = (
    [(key * 37 % SHARDED_U, key % 11 - 5) for key in range(1500)]
    + [(999, F.p - 1), (0, -(F.p - 1)), (500, 7), (500, -7), (123, -400)]
)


def test_service_sharded_f2_matches_plain_f2(server, monkeypatch):
    """``f2(workers=w)`` is the Section 7 coordinator, not a second
    protocol: at one verifier point its transcript is byte for byte the
    plain ``f2()`` one, for every legal w, on both backends."""
    net = {}
    for key, delta in SHARDED_UPDATES:
        net[key] = (net.get(key, 0) + delta) % F.p
    expected = sum(v * v for v in net.values()) % F.p
    assert any(v > F.p // 2 for v in net.values())  # negative nets
    for backend_name in BACKENDS:
        monkeypatch.setenv("REPRO_BACKEND", backend_name)
        plain = None
        for workers in (0, 1, 2, 4, 8):
            with connect(server, SHARDED_U, fresh_dataset_id(),
                         seed=61) as client:
                client.provision(("f2",), 1)
                client.send_updates(SHARDED_UPDATES)
                (outcome,) = client.query(f2(workers=workers))
            assert outcome.result.accepted, outcome.result.reason
            assert outcome.result.value == expected
            data = encode_transcript(F, outcome.transcript)
            plain = plain or data  # workers=0 is the plain prover
            assert data == plain, (backend_name, workers)


class _FailsAtRound:
    """An engine that dies on its ``failing``-th round message: the
    first runs at the open, the rest after the ack."""

    def __init__(self, prover, failing):
        self._prover = prover
        self._left = failing

    def receive_batch(self, queries):
        self._prover.receive_batch(queries)

    def receive_challenge(self, r):
        self._prover.receive_challenge(r)

    def round_messages(self):
        self._left -= 1
        if not self._left:
            raise RuntimeError("injected: prover lost at this round")
        return self._prover.round_messages()


def test_refused_open_returns_the_verifier_copy():
    """Copies are single-use and cannot be re-provisioned once the
    stream has started, so an open that was never acked — T_QUERY_OPEN
    carries only the descriptor — must not cost one, even when the
    prover dies on g_1, which the open computes.  An open that was acked
    and then failed still does: challenges may have left."""
    u = 64
    armed = []
    srv = ProverServer(
        F, max_inflight_queries=1,
        prover_wrapper=lambda unit, prover, dataset:
            _FailsAtRound(prover, armed[0]) if armed else None,
    )
    handle = srv.serve_in_thread()
    try:
        host, port = handle.address
        with ServiceClient(host, port, F, u, dataset_id=1,
                           rng=random.Random(7), retry=NO_RETRY) as client:
            client.provision(("f2",), 6)
            first = [(i % 16, 3) for i in range(40)] + [(63, -2)]
            client.send_updates(first)
            session = srv.registry.session(client.session_id)

            # Refused by the prover's constructor: not a power of two,
            # shards of one entry, more workers than the universe.
            for workers in (3, u, 2 ** 40):
                with pytest.raises(ServiceClientError, match="worker"):
                    client.query(f2(workers=workers))
                assert not session.queries  # opened nothing
            assert client.pool_remaining(("f2",)) == 6

            # Refused by admission control: one raw open holds the slot.
            _t, _s, payload = client._request(
                sp.T_QUERY_OPEN, client.session_id,
                sp.words_payload(F, [1, *f2().to_words()]),
                expect=sp.T_QUERY_ACK)
            with pytest.raises(ServiceBusyError):
                client.query(f2())
            ref = sp.parse_words(F, payload)[0]
            client._request(sp.T_QUERY_CLOSE, client.session_id,
                            sp.words_payload(F, [ref]),
                            expect=sp.T_QUERY_CLOSE_ACK)
            assert client.pool_remaining(("f2",)) == 6

            # Refused by the prover's first round, which the open runs:
            # closed before the error goes out, so the slot is free.
            armed.append(1)
            with pytest.raises(ServiceClientError, match="injected"):
                client.query(f2())
            assert not session.queries
            assert client.pool_remaining(("f2",)) == 6
            armed.clear()

            # The returned copy is the tail row of its pool again: the
            # stream must feed it, or the query that takes it next
            # would check the old fingerprint and reject.
            second = [(5, 9), (40, -1), (63, 2)]
            client.send_updates(second)
            freq = [0] * u
            for key, delta in first + second:
                freq[key] += delta
            (served,) = client.query(f2(workers=4))
            assert served.result.accepted, served.result.reason
            assert served.result.value == sum(f * f for f in freq)
            assert client.pool_remaining(("f2",)) == 5

            # Acked, then failed: the verifier may have spoken.
            armed.append(2)
            with pytest.raises(ServiceClientError, match="injected"):
                client.query(f2())
            assert client.pool_remaining(("f2",)) == 4
            armed.clear()
            (after,) = client.query(f2())
            assert after.result.accepted, after.result.reason
            assert client.pool_remaining(("f2",)) == 3
    finally:
        handle.stop()


#: Opens no answer can exist for, one per domain rule the open enforces
#: (u = 60, padded to 64): (batched flag, descriptors).
OUT_OF_DOMAIN = {
    "tree-range-past-u": (0, [range_scan(3, 64)]),
    "tree-range-lo-above-hi": (0, [range_scan(5, 4)]),
    "point-lookup-past-u": (0, [point_lookup(64)]),
    "k-largest-rank-zero": (0, [k_largest(0)]),
    "range-sum-member-past-u": (1, [f2(), range_sum(5, 64)]),
    "fk-order-past-max": (1, [QueryDescriptor(KIND_FK,
                                              (MAX_MOMENT_ORDER + 1,))]),
    "heavy-hitters-phi-zero": (0, [heavy_hitters(0, 4)]),
    "heavy-hitters-phi-above-one": (0, [heavy_hitters(5, 4)]),
    "heavy-hitters-phi-den-zero": (0, [heavy_hitters(1, 0)]),
    "f2-shard-count-not-a-power-of-two": (0, [f2(workers=3)]),
    "f2-shards-under-two-entries": (0, [f2(workers=64)]),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN))
def test_every_out_of_domain_open_is_refused_before_its_ack(name):
    """The open runs prover steps now, so every domain rule is pinned at
    it: a T_ERROR on a connection that stays up, no verifier copy spent
    (through ``query`` wherever the client can provision the pool) and
    no query left open on the server."""
    batched, descriptors = OUT_OF_DOMAIN[name]
    handle = ProverServer(F).serve_in_thread()
    try:
        with connect(handle, 60, 1, seed=29, retry=NO_RETRY) as client:
            (unit,) = QueryRouter.plan(descriptors)
            pools = [("tree",), ("f2",), ("batch",), ("heavy-hitters", 1, 4)]
            if unit.pool_key[0] != "heavy-hitters":
                pools.append(unit.pool_key)
            for pool in dict.fromkeys(pools):
                client.provision(pool, 2)
            client.send_updates([(3, 1), (9, 2), (59, 4)])
            words = [batched, *(w for q in descriptors for w in q.to_words())]
            client._send(client._frame(sp.T_QUERY_OPEN, client.session_id,
                                       sp.words_payload(F, words)))
            reply_type, _session, payload = client._recv()
            assert reply_type == sp.T_ERROR
            assert sp.parse_error_struct(payload)[0] == sp.E_GENERIC
            if unit.pool_key in pools:
                with pytest.raises(ServiceClientError):
                    client.query(*descriptors)
            assert [client.pool_remaining(pool) for pool in pools] \
                == [2] * len(pools)
            assert client.stats()["open_queries"] == 0
            assert client.query(f2())[0].result.accepted
            assert client.reconnects == 0
    finally:
        handle.stop()


class MangledAckServer(ProverServer):
    """A real server whose every ``T_QUERY_ACK`` is rewritten by
    ``mangle(words)``."""

    def __init__(self, mangle):
        super().__init__(F)
        self.mangle = mangle

    def _dispatch(self, frame_type, session_id, payload):
        replies = super()._dispatch(frame_type, session_id, payload)
        if frame_type != sp.T_QUERY_OPEN:
            return replies
        words = sp.parse_words(F, replies[0][sp.HEADER_LEN:])
        return [sp.pack_frame(sp.T_QUERY_ACK, session_id,
                              sp.words_payload(F, self.mangle(words)))]


#: Damaged acks: (query, rewrite of the ack's words).
MANGLED_ACKS = {
    # [ref, 3, g_1(0), g_1(1), g_1(2)] claiming more words than follow.
    "prefix-past-payload": (f2(), lambda w: [w[0], w[1] + 5, *w[2:]]),
    # Two words where a degree-2 member needs three.
    "g1-word-count": (f2(), lambda w: [w[0], w[1] - 1, *w[2:-1]]),
    # [ref, 2, key, value, 2, index, hash]: an entries list of three.
    "odd-pair-list": (point_lookup(3),
                      lambda w: [w[0], w[1] + 1, *w[2:4], 7, *w[4:]]),
}


@pytest.mark.parametrize("name", sorted(MANGLED_ACKS))
def test_a_malformed_ack_is_a_client_error_and_spends_the_copy(name):
    """A ``T_QUERY_ACK`` whose opening replies do not decode is a
    ``ServiceClientError`` — never an IndexError — and, like any acked
    open, spends its copy.  The client drops the link, and with it the
    query the server opened."""
    descriptor, mangle = MANGLED_ACKS[name]
    srv = MangledAckServer(mangle)
    handle = srv.serve_in_thread()
    try:
        with connect(handle, 64, 1, seed=31) as client:
            pool = client.provision(descriptor, 2)
            client.send_updates([(3, 1), (9, 2)])
            with pytest.raises(ServiceClientError, match="malformed") as info:
                client.query(descriptor)
            assert not isinstance(info.value, ServiceUnavailableError)
            assert client.pool_remaining(pool) == 1
            deadline = time.monotonic() + 5.0
            while srv.registry.stats()["open_queries"] \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.registry.stats()["open_queries"] == 0
    finally:
        handle.stop()


class FrameTypeClient(ServiceClient):
    """Records the type of every frame it sends."""

    def __init__(self, *args, **kwargs):
        self.sent_types = []
        super().__init__(*args, **kwargs)

    def _send(self, frame):
        self.sent_types.append(frame[3])
        super()._send(frame)


#: One request of each unit shape that closes on a reply.
SHAPED = {
    "sum-check": [f2()],
    "mixed-batch": [range_sum(0, 1), f2(), fk(3), inner_product()],
    "point-lookup": [point_lookup(1)],
    "range-scan": [range_scan(0, 1)],
}


@pytest.mark.parametrize("u", [2, (1 << 12) + 3], ids=["d1", "u4099"])
def test_no_prover_outlives_its_unit(u):
    """A completed unit of each shape costs d round trips, and its last
    reply released the prover: the server holds no query and no
    ``T_QUERY_CLOSE`` crossed the wire.  A unit the verifier abandons
    early — a cheater rejected before round d, a rejected SUB-VECTOR
    entries message — sends exactly one close.  At d = 1 the ack carries
    the whole proof and the open releases it, so even a rejected unit
    sends none."""
    d = pow2_dimension(u)
    cheating = []

    def cheater(unit, prover, dataset):
        if not cheating or not unit.batched:
            return None
        cheat = OffsetClaimF2Prover(F, dataset.u)
        cheat.freq_a = prover.freq_a
        return cheat

    srv = ProverServer(F, prover_wrapper=cheater)
    handle = srv.serve_in_thread()
    host, port = handle.address
    try:
        with FrameTypeClient(host, port, F, u, dataset_id=1,
                             rng=random.Random(37)) as client:
            for pool in {QueryRouter.plan(descriptors)[0].pool_key
                         for descriptors in SHAPED.values()}:
                client.provision(pool, 3)
            client.send_updates([(0, 2), (1, 3), (u - 1, 1)])
            for name, descriptors in SHAPED.items():
                client.sent_types.clear()
                outcomes = client.query(*descriptors)
                assert all(o.result.accepted for o in outcomes), name
                assert outcomes[0].cost.frames == 2 * d, name
                assert sp.T_QUERY_CLOSE not in client.sent_types, name
                assert client.stats()["open_queries"] == 0, name

            def abandoned(descriptor):
                client.sent_types.clear()
                (outcome,) = client.query(descriptor)
                assert not outcome.result.accepted
                assert client.sent_types.count(sp.T_QUERY_CLOSE) == (d > 1)
                assert client.stats()["open_queries"] == 0
                return outcome.result.reason

            cheating.append(True)  # every engine now overstates g_1(0)
            assert abandoned(f2()).startswith(
                "round 1" if d > 1 else "query 0: final check")
            client.tamper = drop_last_word(0)  # the entries lose a word
            assert abandoned(point_lookup(1)) == "malformed entries message"
    finally:
        handle.stop()


def test_an_oversized_moment_order_is_refused_before_it_allocates(server):
    """The order of a moment is a resource: (k + 1)·d words a proof and,
    before the moment kernel, a (k + 1) × u/2 array a round — fk(20000)
    at u = 2^12 was 4 GB and a client timeout.  Above MAX_MOMENT_ORDER
    an open is a typed error on a connection that stays up, costs no
    verifier copy and no memory, and the session keeps proving."""
    u = 1 << 12
    rng = random.Random(13)
    updates = [(rng.randrange(u), rng.randrange(1, 9)) for _ in range(3000)]
    freq = [0] * u
    for key, delta in updates:
        freq[key] += delta
    assert MAX_MOMENT_ORDER == 64
    for build in (fk, batch_fk):
        for k in (0, 65, 20000):
            with pytest.raises(ValueError, match="moment order"):
                build(k)
    with connect(server, u, fresh_dataset_id(), seed=13) as client:
        for k in (3, 64, 65, 20000):
            client.provision(("fk", k), 1)
        client.provision(("batch",), 1)
        client.send_updates(updates)
        session = server.server.registry.session(client.session_id)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for k in (65, 20000):
            refused = QueryDescriptor(KIND_FK, (k,))
            client._send(client._frame(
                sp.T_QUERY_OPEN, client.session_id,
                sp.words_payload(F, [0, *refused.to_words()])))
            reply_type, _session, payload = client._recv()
            assert reply_type == sp.T_ERROR
            code, message = sp.parse_error_struct(payload)
            assert code == sp.E_GENERIC and "moment order" in message
            started = time.perf_counter()
            with pytest.raises(ServiceClientError, match="moment order"):
                client.query(refused)
            assert time.perf_counter() - started < 0.05
            with pytest.raises(ServiceClientError, match="moment order"):
                client.query(f2(), refused)
            assert not session.queries
            assert client.pool_remaining(("fk", k)) == 1
        assert client.pool_remaining(("batch",)) == 1
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb
        assert grown_kb < 50 * 1024 or sys.platform != "linux"
        for k in (3, 64):
            (outcome,) = client.query(fk(k))
            assert outcome.result.accepted, outcome.result.reason
            assert outcome.result.value == sum(f ** k for f in freq) % F.p


# -- load generator ------------------------------------------------------------


def test_load_generator_all_sessions_verify(server):
    host, port = server.address
    report = run_load(host, port, F, 1 << 9, sessions=3,
                      updates_per_session=120, concurrency=3, seed=71,
                      dataset_base=400)
    assert not report.failures, report.failures
    assert report.queries_run == 3 * 3
    assert report.queries_verified == report.queries_run
    assert report.sessions == 3
    assert report.updates_sent == 3 * 120
    assert report.updates_per_second > 0


def test_load_generator_shared_dataset(server):
    host, port = server.address
    report = run_load(host, port, F, 1 << 8, sessions=3,
                      updates_per_session=100, concurrency=1, seed=73,
                      shared_dataset=True, dataset_base=500)
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run
    # Only the first session writes; the other two replay its stream.
    assert report.updates_sent == 100
    assert report.updates_per_second * report.elapsed_seconds == \
        pytest.approx(100)


# -- end-to-end acceptance demo ------------------------------------------------


def test_end_to_end_kvstore_demo_over_the_wire(server):
    """The acceptance scenario.

    A client streams >= 10^5 OutsourcedKVStore updates over the wire
    (vectorized builds; the no-numpy leg runs a reduced-size variant of
    the same flow), verifies six query types through the QueryRouter,
    checks every per-query Channel/frame cost against the paper's
    asymptotic bounds, and sees a cheating prover rejected.
    """
    if HAVE_NUMPY:
        u, n_pairs = 1 << 18, 100_000
    else:
        u, n_pairs = 1 << 12, 1_500
    d = pow2_dimension(u)
    store = OutsourcedKVStore(u)
    rng = random.Random(97)
    pairs = key_value_pairs(u, n_pairs, rng=rng)
    store.put_many(pairs)
    updates = list(store.updates())
    assert len(updates) == n_pairs

    phi_num, phi_den = 1, 64
    client = connect(server, u, fresh_dataset_id(), seed=101)
    with client:
        client.provision(("tree",), 4)
        # The two range-sums and the F2 plan onto one mixed batch.
        client.provision(("batch",), 1)
        client.provision(("heavy-hitters", phi_num, phi_den), 1)
        client.send_updates(updates)
        assert client.updates_streamed == n_pairs

        some_key, some_val = pairs[0]
        absent = next(k for k in range(u) if store.get(k) is None)
        lo, hi = u // 4, u // 4 + 500
        descriptors = [
            point_lookup(some_key),
            point_lookup(absent),
            range_scan(lo, hi),
            range_sum(0, u // 2),
            range_sum(u // 2, u - 1),
            f2(),
            heavy_hitters(phi_num, phi_den),
            predecessor(u // 2),
        ]
        outcomes = client.query(*descriptors)

        # 1. Every verifier check passes, and values match the store.
        for outcome in outcomes:
            assert outcome.result.accepted, (
                outcome.descriptor.name, outcome.result.reason
            )
        assert outcomes[0].result.value == some_val + 1  # +1 encoding
        assert outcomes[1].result.value == 0  # absent key reads 0
        scan = {k: v - 1 for k, v in outcomes[2].result.value.entries}
        assert sorted(scan.items()) == store.range_scan(lo, hi)
        assert outcomes[3].result.value == sum(
            v + 1 for k, v in store.range_scan(0, u // 2)
        )
        assert outcomes[7].result.value == store.predecessor_key(u // 2)

        # 2. Per-query transcript words against the paper's bounds.
        word_bounds = {
            "point-lookup": 12 * d,          # O(log u)
            "range-scan": 12 * d + 2 * len(scan),  # O(log u + k)
            "range-sum": 12 * d,             # O(log u), 3 words/round
            "f2": 12 * d,                    # O(log u)
            "heavy-hitters": 12 * d * phi_den,  # O(1/phi · log u)
            "predecessor": 12 * d,           # O(log u)
        }
        unit_of = {q: unit for unit in QueryRouter.plan(descriptors)
                   for q in unit.descriptors}
        for outcome in outcomes:
            bound = word_bounds[outcome.descriptor.name]
            assert outcome.cost.transcript_words <= bound, (
                outcome.descriptor.name, outcome.cost.transcript_words,
                bound,
            )
            # Interactive phase: one round trip per round (void calls
            # ride chained on the next replying call), plus open, close
            # and at most two more (a claim, a trailing flush): d + 4
            # round trips (heavy hitters ships O(1/phi) records in its d).
            assert outcome.cost.frames <= 2 * (d + 4)
            # Frame bytes are the unit's transcript words (a batch shares
            # its frames) plus a bounded envelope, from the frame layout:
            # every frame has a 12-byte header and a 4-byte word count; a
            # P_CALL adds ref, M_CHAIN and (method, nargs) per chained
            # call, 8 words for the longest chain a driver builds
            # (receive_query, begin_proof, round_message).  A round trip
            # so carries at most 2 * 16 + 8 * 8 = 96 bytes that are not
            # transcript — 48 per frame — and the unit's descriptor words
            # travel outside the transcript at most twice (QUERY_OPEN,
            # RECEIVE_BATCH).
            wire = outcome.cost.bytes_sent + outcome.cost.bytes_received
            descriptor_words = 1 + sum(
                len(q.to_words())
                for q in unit_of[outcome.descriptor].descriptors
            )
            assert wire <= 8 * outcome.transcript.total_words + \
                48 * outcome.cost.frames + 16 * descriptor_words

    # 3. The same flow against a cheating cloud is rejected.
    def corrupt_f2(unit, prover, dataset):
        if unit.descriptors[0].kind != f2().kind:
            return None
        return modified_stream_engine(dataset, some_key)

    small_updates = [(k, v + 1) for k, v in pairs[:200]]
    outcome = run_against_cheating_server(
        corrupt_f2, {("f2",): 1}, [f2()], small_updates, u=u, seed=103
    )[0]
    assert not outcome.result.accepted
