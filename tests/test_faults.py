"""Chaos tests: the verified-query service under injected faults.

The acceptance bar is stronger than "it still works": because
transcripts are deterministic given the data and the verifier's
randomness, every recovery path — retry, reconnect, replay catch-up,
server snapshot/restore — must reproduce the *byte identical* transcript
of an undisturbed run.  One verified conversation consumes one verifier
copy: a fault before the open's ack, or on the close after the verdict,
keeps the first copy's bytes; a fault in between spends it, and the
retry must reproduce the fault-free bytes of the *next* copy of the same
seeded pool.  These tests drive a real server and a real client through
a :class:`ChaosProxy` under scheduled connection drops, frame
truncation/corruption, delays and stalls, and compare
``encode_transcript`` bytes against those fault-free references.

Soundness must survive too: structural transport damage is retried, but
a *cheating prover* behind the same faulty wire is still rejected — the
retry layer must never convert a semantic rejection into a retry, and a
prover that saw a challenge before the wire broke never sees the same
secret point again.

``REPRO_CHAOS_SEED`` (default 0) offsets every seeded schedule so the CI
chaos leg can sweep a seed matrix over the same assertions.
"""

from __future__ import annotations

import os
import random
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import RetryAdaptiveF2Cheater, RetryAdaptiveLookupCheater
from repro.adversary.cheating_provers import _Recorder
from repro.comm.wire import encode_transcript
from repro.core.multiquery import BatchedSumcheckEngine
from repro.field.modular import DEFAULT_FIELD as F
from repro.service import protocol as sp
from repro.service import (
    ChaosProxy,
    FaultSchedule,
    NO_RETRY,
    ProverServer,
    QueryRouter,
    RetryPolicy,
    ServiceBusyError,
    ServiceClient,
    ServiceUnavailableError,
    f2,
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
from repro.service.faults import (
    Fault,
    KIND_CORRUPT,
    KIND_DELAY,
    KIND_DROP,
    KIND_STALL,
    KIND_TRUNCATE,
    SeededSchedule,
)
from repro.service.server import REPLAY_BLOCK
from retry_workload import COUNTS, FrameLog, U, UPDATES
from test_stacked_ingest import counted_feeds

#: Seed offset for the CI chaos matrix (three fixed seeds in the leg).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Tight backoff so injected outages cost milliseconds, not seconds.
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.005, max_delay=0.03)

_DATASET_COUNTER = iter(range(50_000, 90_000))


def fresh_dataset_id():
    return next(_DATASET_COUNTER)


@pytest.fixture(scope="module")
def server():
    handle = ProverServer(F).serve_in_thread()
    yield handle
    handle.stop()


#: Copies each run provisions: the first one, and the one a conversation
#: retried after its open was acked takes.
COPIES = 2


def run_workload(host, port, dataset_id, seed=0, retry=FAST_RETRY,
                 op_timeout=5.0, copies=COPIES, queries=1,
                 descriptors=(f2(),)):
    """The canonical chaos workload: provision, stream, run the one plan
    unit of ``descriptors`` (F2 by default) ``queries`` times.

    Identical seeds and pool sizes produce identical verifier copies, so
    the k-th copy a client takes has the same secret point in every such
    run, and its conversation over equal datasets is byte-identical no
    matter what the wire did in between.
    """
    client = ServiceClient(host, port, F, U, dataset_id=dataset_id,
                           rng=random.Random(seed), retry=retry,
                           op_timeout=op_timeout)
    (unit,) = QueryRouter.plan(descriptors)
    with client:
        client.provision(unit.pool_key, copies)
        client.send_updates(UPDATES)
        outcomes = [o for _ in range(queries)
                    for o in client.query(*descriptors)]
    return outcomes, client


def run_via_proxy(server, schedule, **kwargs):
    proxy = ChaosProxy(*server.address, schedule=schedule)
    handle = proxy.serve_in_thread()
    try:
        host, port = handle.address
        outcomes, client = run_workload(host, port, fresh_dataset_id(),
                                        **kwargs)
        return outcomes, client, proxy
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def reference(server):
    """The fault-free runs every recovery path must byte-match.

    ``types`` are the frame types of one conversation by global index;
    ``copy_bytes(copies)`` are the transcripts of every copy of a pool of
    ``copies``, in the order the client takes them.
    """
    log = FrameLog()
    outcomes, client, proxy = run_via_proxy(server, log)
    assert all(o.result.accepted for o in outcomes)
    assert client.retries == 0 and client.reconnects == 0
    pools = {}

    def copy_bytes(copies):
        if copies not in pools:
            runs, _client, _proxy = run_via_proxy(
                server, FaultSchedule(), copies=copies, queries=copies)
            assert all(o.result.accepted for o in runs)
            pools[copies] = [encode_transcript(F, o.transcript)
                             for o in runs]
        return pools[copies]

    return {
        "frames": proxy.global_frames,
        "types": log.types,
        "values": [o.result.value for o in outcomes],
        "copy_bytes": copy_bytes,
    }


def assert_matches_reference(outcomes, reference, client, copies=COPIES):
    """Accepted, with the reference answer and the exact fault-free bytes
    of the copy the query ran on — the last one the client took.  Returns
    how many copies the query spent."""
    spent = copies - client.pool_remaining(("f2",))
    assert all(o.result.accepted for o in outcomes), [
        o.result.reason for o in outcomes
    ]
    assert [o.result.value for o in outcomes] == reference["values"]
    assert [encode_transcript(F, o.transcript) for o in outcomes] == \
        [reference["copy_bytes"](copies)[spent - 1]]
    return spent


# -- the tentpole: byte-identity across every failure point --------------------


def test_connection_drop_at_every_frame_boundary(server, reference):
    """Kill the connection at *every* frame of the conversation in turn.

    Up to and including the open's ack nothing about the copy has left
    the client, and from the close on the verdict is in: either way the
    query ends on the first copy's exact bytes.  In between, the retried
    conversation must run on the next copy and end on its exact bytes."""
    types = reference["types"]
    opened = types.index(sp.T_QUERY_ACK)
    closing = types.index(sp.T_QUERY_CLOSE)
    for index in range(reference["frames"]):
        outcomes, client, proxy = run_via_proxy(
            server, FaultSchedule.scripted({index: KIND_DROP})
        )
        assert proxy.faults_injected == 1, index
        spent = assert_matches_reference(outcomes, reference, client)
        assert spent == (2 if opened < index < closing else 1), index
        assert client.retries == (1 if index < closing else 0), index


@pytest.mark.parametrize("frame", [sp.T_QUERY_CLOSE, sp.T_QUERY_CLOSE_ACK],
                         ids=["close", "close-ack"])
def test_drop_on_the_close_keeps_the_verdict(server, reference, frame):
    """The verdict is decided before T_QUERY_CLOSE: a fault on the close
    round trip neither re-runs the query nor spends a second copy."""
    index = reference["types"].index(frame)
    outcomes, client, proxy = run_via_proxy(
        server, FaultSchedule.scripted({index: KIND_DROP})
    )
    assert proxy.faults_injected == 1
    assert client.retries == 0
    assert client.pool_remaining(("f2",)) == COPIES - 1
    assert_matches_reference(outcomes, reference, client)


@pytest.mark.parametrize("fault", [Fault(KIND_DELAY, 0.45),
                                   Fault(KIND_CORRUPT)],
                         ids=["late", "damaged"])
def test_a_failed_close_leaves_the_next_query_whole(server, reference,
                                                    fault):
    """A close-ack that comes too late, or damaged, fails the close after
    the verdict is in.  What it leaves on the link must not be read as
    the next query's reply: the next query re-dials and runs on the next
    copy, each ending on its copy's fault-free bytes."""
    index = reference["types"].index(sp.T_QUERY_CLOSE_ACK)
    outcomes, client, proxy = run_via_proxy(
        server, FaultSchedule.scripted({index: fault}), queries=COPIES,
        op_timeout=0.3)
    assert proxy.faults_injected == 1
    assert client.pool_remaining(("f2",)) == 0
    assert all(o.result.accepted for o in outcomes)
    assert [encode_transcript(F, o.transcript) for o in outcomes] == \
        reference["copy_bytes"](COPIES)


def test_a_late_round_reply_is_retried(server, reference):
    """A prover reply that comes after the client's deadline fails its
    round.  The close behind it must not take that reply for its own ack
    and turn the transport fault into a hard error: the query is retried
    on the next copy."""
    index = reference["types"].index(sp.T_P_REPLY)
    outcomes, client, proxy = run_via_proxy(
        server, FaultSchedule.scripted({index: Fault(KIND_DELAY, 0.45)}),
        op_timeout=0.3)
    assert proxy.faults_injected == 1
    assert client.retries == 1
    assert assert_matches_reference(outcomes, reference, client) == 2


@pytest.mark.parametrize("kind", [KIND_CORRUPT, KIND_TRUNCATE, KIND_STALL])
def test_structural_damage_mid_query_recovered(server, reference, kind):
    index = reference["frames"] // 2  # inside the interactive phase
    fault = Fault(kind, 0.05 if kind == KIND_STALL else 0.0)
    outcomes, client, proxy = run_via_proxy(
        server, FaultSchedule.scripted({index: fault}), op_timeout=1.0
    )
    assert proxy.faults_injected == 1
    assert client.retries >= 1
    assert assert_matches_reference(outcomes, reference, client) == 2


def test_pure_delays_need_no_recovery(server, reference):
    plan = {index: Fault(KIND_DELAY, 0.01) for index in (2, 5, 9)}
    outcomes, client, proxy = run_via_proxy(
        server, FaultSchedule.scripted(plan)
    )
    assert proxy.faults_injected == 3
    assert client.retries == 0 and client.reconnects == 0
    assert assert_matches_reference(outcomes, reference, client) == 1


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_seeded_fault_schedules_recover_byte_identical(server, reference,
                                                       seed):
    """Hypothesis sweep (satellite): pseudo-random drop/corrupt/truncate/
    delay schedules at a small rate — every surviving query must carry
    the reference verdict and the exact bytes of the copy it ended on.
    One copy per attempt: every retry may be a post-open one."""
    schedule = SeededSchedule(
        seed ^ (CHAOS_SEED << 20), rate=0.02,
        kinds=(KIND_DROP, KIND_CORRUPT, KIND_TRUNCATE, KIND_DELAY),
        delay=0.002, stall=0.05,
    )
    retry = RetryPolicy(max_attempts=16, base_delay=0.002, max_delay=0.02)
    outcomes, client, proxy = run_via_proxy(
        server, schedule, retry=retry, copies=retry.max_attempts,
    )
    assert_matches_reference(outcomes, reference, client,
                             copies=retry.max_attempts)


def test_mid_replay_disconnect_resumes_from_last_block(server):
    """A late joiner whose catch-up replay is cut mid-stream re-requests
    only the tail — no pool double-counts, and the verdict matches."""
    u = 256
    n = REPLAY_BLOCK + 904  # so the replay spans two data frames
    updates = [(i % u, 1 + i % 5) for i in range(n)]
    dataset = fresh_dataset_id()
    host, port = server.address

    writer = ServiceClient(host, port, F, u, dataset_id=dataset,
                           rng=random.Random(7))
    with writer:
        writer.provision(("f2",), 1)
        writer.send_updates(updates)
        want = writer.query(f2())[0]
        assert want.result.accepted

    # Frames through a fresh proxy: HELLO(0) ACK(1) REQUEST(2) DATA(3)
    # DATA(4) END(5) — drop the second data block.
    proxy = ChaosProxy(host, port,
                       schedule=FaultSchedule.scripted({4: KIND_DROP}))
    handle = proxy.serve_in_thread()
    try:
        reader = ServiceClient(*handle.address, F, u, dataset_id=dataset,
                               rng=random.Random(8), retry=FAST_RETRY)
        with reader:
            assert reader.missed_updates == n
            reader.provision(("f2",), 1)
            assert reader.replay_missed() == n
            assert reader.retries >= 1
            got = reader.query(f2())[0]
            assert got.result.accepted
            assert got.result.value == want.result.value
    finally:
        handle.stop()


def test_replay_cut_between_two_vectors_resumes_in_log_order(server):
    """Replay frames are runs of the log in order: a joiner cut after
    the first run resumes at its log index.  Frames grouped by vector
    (vector 0 first) would make that count no log index, so the resumed
    replay fed the vector-0 run twice and vector 1 never."""
    u = 64
    dataset = fresh_dataset_id()
    host, port = server.address
    writer = ServiceClient(host, port, F, u, dataset_id=dataset,
                           rng=random.Random(33))
    with writer:
        writer.provision(("inner-product",), 1)
        writer.send_updates([(1, 2), (5, 3), (9, 4)], vector=1)
        writer.send_updates([(1, 5), (5, 7), (40, 1)], vector=0)
        want = writer.query(inner_product())[0]
        assert want.result.accepted and want.result.value == 31

    # HELLO(0) ACK(1) REQUEST(2) DATA(3) DATA(4) END(5): drop the
    # second run.
    proxy = ChaosProxy(host, port,
                       schedule=FaultSchedule.scripted({4: KIND_DROP}))
    handle = proxy.serve_in_thread()
    try:
        joiner = ServiceClient(*handle.address, F, u, dataset_id=dataset,
                               rng=random.Random(34), retry=FAST_RETRY)
        with joiner:
            joiner.provision(("inner-product",), 1)
            assert joiner.replay_missed() == 6
            assert joiner.retries >= 1
            got = joiner.query(inner_product())[0]
            assert got.result.accepted, got.result.reason
            assert got.result.value == 31
    finally:
        handle.stop()


def test_a_replay_cut_mid_block_refeeds_only_that_block(server,
                                                        monkeypatch):
    """The joiner buffers a replay block's runs and feeds them once per
    vector: a drop inside the second block throws away the runs it
    holds, and the resumed replay starts at the end of the first block,
    so every update is fed exactly once."""
    u = 256
    run = REPLAY_BLOCK // 8
    runs = 2 * 8 + 1  # two whole blocks of alternating runs and one more
    dataset = fresh_dataset_id()
    host, port = server.address
    writer = ServiceClient(host, port, F, u, dataset_id=dataset,
                           rng=random.Random(41))
    with writer:
        writer.provision(("inner-product",), 1)
        for index in range(runs):
            writer.send_updates(
                [((index + 3 * t) % u, 1 + t % 4) for t in range(run)],
                vector=index & 1)
        want = writer.query(inner_product())[0]
        assert want.result.accepted

    # HELLO(0) ACK(1) REQUEST(2), then eight DATA frames per block: drop
    # the fourth frame of the second block.
    drop = 3 + 8 + 3
    proxy = ChaosProxy(host, port,
                       schedule=FaultSchedule.scripted({drop: KIND_DROP}))
    handle = proxy.serve_in_thread()
    fed = counted_feeds(monkeypatch)
    try:
        joiner = ServiceClient(*handle.address, F, u, dataset_id=dataset,
                               rng=random.Random(42), retry=FAST_RETRY)
        with joiner:
            joiner.provision(("inner-product",), 1)
            assert joiner.replay_missed() == runs * run
            assert joiner.retries >= 1 and proxy.faults_injected == 1
            got = joiner.query(inner_product())[0]
            assert got.result.accepted, got.result.reason
            assert got.result.value == want.result.value
    finally:
        handle.stop()
    # Two feeds (one per vector) per whole block, one for the last run.
    assert fed == [REPLAY_BLOCK // 2] * 4 + [run]


def test_soundness_survives_the_faulty_wire():
    """A cheating prover behind the chaos proxy is still rejected: the
    retry layer recovers from transport damage, never from dishonesty."""

    def corrupt_f2(unit, prover, dataset):
        if unit.descriptors[0].kind != f2().kind:
            return None
        # A perfectly formed proof for a stream one update off.
        freq = dataset.freq_a
        freq[3] += 1
        return BatchedSumcheckEngine(F, dataset.u, freq_a=freq)

    srv = ProverServer(F, prover_wrapper=corrupt_f2)
    server_handle = srv.serve_in_thread()
    try:
        proxy = ChaosProxy(
            *server_handle.address,
            schedule=FaultSchedule.scripted({8: KIND_DROP}),
        )
        handle = proxy.serve_in_thread()
        try:
            outcomes, client = run_workload(
                *handle.address, fresh_dataset_id()
            )
            assert proxy.faults_injected == 1
            assert not outcomes[0].result.accepted
            assert outcomes[0].result.reason
        finally:
            handle.stop()
    finally:
        server_handle.stop()


# -- a retried conversation never reuses a secret point ------------------------


@pytest.mark.parametrize("cheater_class, descriptor, truth", [
    (RetryAdaptiveF2Cheater, f2(), sum(a * a for a in COUNTS)),
    (RetryAdaptiveLookupCheater, point_lookup(5), COUNTS[5]),
], ids=["f2", "point-lookup"])
def test_adaptive_cheater_rejected_after_a_drop_at_every_frame(
        cheater_class, descriptor, truth):
    """A prover that saw r_1 before the link dropped cheats on the retry
    with a lie invisible at that r_1.  With a spare copy provisioned, no
    drop index may turn the lie into an accepted answer."""
    cheater = cheater_class(F)
    server_handle = ProverServer(F, prover_wrapper=cheater).serve_in_thread()
    try:
        (clean,), _client, proxy = run_via_proxy(
            server_handle, FaultSchedule(), descriptors=(descriptor,))
        assert clean.result.accepted and clean.result.value == truth
        for index in range(proxy.global_frames):
            (outcome,), _client, _proxy = run_via_proxy(
                server_handle, FaultSchedule.scripted({index: KIND_DROP}),
                descriptors=(descriptor,))
            assert not outcome.result.accepted \
                or outcome.result.value == truth, index
        assert cheater.cheats > 0
    finally:
        server_handle.stop()


class ChallengeSpy:
    """A ``prover_wrapper`` logging the challenge words each materialised
    prover receives, one list per materialisation."""

    def __init__(self):
        self.log = []

    def __call__(self, unit, prover, dataset):
        self.log.append([])
        return _Recorder(prover, self.log[-1])


@pytest.mark.parametrize("descriptors", [
    (point_lookup(5),), (range_scan(3, 40),), (k_largest(2),),
    (predecessor(30),), (successor(30),), (heavy_hitters(1, 8),),
    (f2(workers=2),), (f2(),), (f2(), range_sum(2, 50)),
], ids=lambda ds: "+".join(q.name + "".join("-%d" % w for w in q.params)
                           for q in ds))
def test_retry_after_a_challenge_uses_fresh_challenges(descriptors):
    """Every kind the router plans: drop the reply to the last prover
    call, after the server's prover has received challenges.  The retried
    conversation must not be shown the same ones."""
    spy = ChallengeSpy()
    server_handle = ProverServer(F, prover_wrapper=spy).serve_in_thread()
    try:
        log = FrameLog()
        run_via_proxy(server_handle, log, descriptors=descriptors)
        last_reply = log.types.index(sp.T_QUERY_CLOSE) - 1
        assert log.types[last_reply] == sp.T_P_REPLY
        spy.log.clear()
        outcomes, client, _proxy = run_via_proxy(
            server_handle, FaultSchedule.scripted({last_reply: KIND_DROP}),
            descriptors=descriptors)
        assert all(o.result.accepted for o in outcomes)
        assert client.retries == 1
        first, retried = spy.log
        assert first and retried
        assert first[0] != retried[0]
    finally:
        server_handle.stop()


def test_retry_with_an_empty_pool_raises_and_never_reuses_the_copy(
        reference):
    """One copy, and a drop after the open's ack: the retry needs a new
    copy, finds none, and says which pool ran dry — the spent copy never
    meets a second prover."""
    spy = ChallengeSpy()
    server_handle = ProverServer(F, prover_wrapper=spy).serve_in_thread()
    index = reference["types"].index(sp.T_P_REPLY)
    proxy = ChaosProxy(*server_handle.address,
                       schedule=FaultSchedule.scripted({index: KIND_DROP}))
    handle = proxy.serve_in_thread()
    try:
        client = ServiceClient(*handle.address, F, U,
                               dataset_id=fresh_dataset_id(),
                               rng=random.Random(0), retry=FAST_RETRY,
                               op_timeout=5.0)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES)
            with pytest.raises(LookupError,
                               match=re.escape("('f2',)")) as raised:
                client.query(f2())
            # Chained to the transport fault that spent the copy.
            fault = raised.value.__cause__
            assert isinstance(fault, ServiceUnavailableError)
            assert fault.last_acked.startswith("query-open#")
            assert client.pool_remaining(("f2",)) == 0
            with pytest.raises(LookupError):
                client.query(f2())
        assert proxy.faults_injected == 1
        assert len(spy.log) == 1
    finally:
        handle.stop()
        server_handle.stop()


# -- typed transport errors (satellite) ----------------------------------------


def test_dead_service_surfaces_typed_unavailable_error():
    srv = ProverServer(F)
    handle = srv.serve_in_thread()
    client = ServiceClient(*handle.address, F, U,
                           dataset_id=1, rng=random.Random(1),
                           retry=NO_RETRY, op_timeout=0.5)
    client.provision(("f2",), 1)
    client.send_updates(UPDATES[:4])
    session = client.session_id
    handle.stop()
    with pytest.raises(ServiceUnavailableError) as excinfo:
        client.put(1, 1)
    err = excinfo.value
    assert err.session_id == session
    assert err.last_acked.startswith("updates@")
    assert "last acked" in str(err)


def test_unavailable_error_reports_last_acked_step(server, reference):
    """Mid-query transport death names the last acknowledged protocol
    step, so operators can see where the conversation died."""
    # Drop every frame from mid-query onward: retries burn out.  One
    # copy per attempt, so the transport error is what surfaces.
    plan = {index: Fault(KIND_DROP)
            for index in range(10, 10 + 4 * reference["frames"])}
    proxy = ChaosProxy(*server.address,
                       schedule=FaultSchedule.scripted(plan))
    handle = proxy.serve_in_thread()
    retry = RetryPolicy(max_attempts=2, base_delay=0.005)
    try:
        with pytest.raises(ServiceUnavailableError) as excinfo:
            run_workload(*handle.address, fresh_dataset_id(), retry=retry,
                         copies=retry.max_attempts)
        assert excinfo.value.last_acked
    finally:
        handle.stop()


# -- server-side robustness knobs ----------------------------------------------


def test_admission_control_refuses_cleanly_then_admits():
    srv = ProverServer(F, max_sessions=1)
    handle = srv.serve_in_thread()
    try:
        host, port = handle.address
        first = ServiceClient(host, port, F, U, dataset_id=1,
                              rng=random.Random(1), retry=NO_RETRY)
        # Without retries the refusal is immediate and typed.
        with pytest.raises(ServiceBusyError) as excinfo:
            ServiceClient(host, port, F, U, dataset_id=2,
                          rng=random.Random(2), retry=NO_RETRY)
        assert excinfo.value.code == sp.E_BUSY
        assert srv.registry.refusals >= 1
        # With backoff the second client waits out the capacity squeeze.
        releaser = threading.Timer(0.15, first.close)
        releaser.start()
        try:
            second = ServiceClient(
                host, port, F, U, dataset_id=2, rng=random.Random(2),
                retry=RetryPolicy(max_attempts=20, base_delay=0.02,
                                  max_delay=0.05),
            )
        finally:
            releaser.join()
        with second:
            assert second.refusals >= 1
            second.provision(("f2",), 1)
            second.send_updates(UPDATES)
            assert second.query(f2())[0].result.accepted
    finally:
        handle.stop()


def test_inflight_query_cap_is_per_session():
    srv = ProverServer(F, max_inflight_queries=1)
    handle = srv.serve_in_thread()
    try:
        client = ServiceClient(*handle.address, F, U, dataset_id=1,
                               rng=random.Random(3), retry=NO_RETRY)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES)
            open_words = sp.words_payload(F, [1, *f2().to_words()])
            client._request(sp.T_QUERY_OPEN, client.session_id,
                            open_words, expect=sp.T_QUERY_ACK)
            with pytest.raises(ServiceBusyError):
                client._request(sp.T_QUERY_OPEN, client.session_id,
                                open_words, expect=sp.T_QUERY_ACK)
    finally:
        handle.stop()


def test_rate_limited_session_backs_off_and_completes(reference):
    """A token-bucket squeeze slows the conversation down but does not
    change a single transcript byte: refused frames were never
    processed, so the resend continues exactly where the protocol was."""
    # Burst 2 against the workload's 9 limited frames: a refusal is
    # certain unless the conversation takes > 23 ms (it takes 4-7).
    srv = ProverServer(F, rate_limit=(300.0, 2.0))
    handle = srv.serve_in_thread()
    try:
        outcomes, client = run_workload(
            *handle.address, fresh_dataset_id(),
            retry=RetryPolicy(max_attempts=30, base_delay=0.005,
                              max_delay=0.02),
        )
        assert srv.rate_limited >= 1
        assert client.refusals >= 1
        assert client.reconnects == 0  # backoff in place, no resync
        assert assert_matches_reference(outcomes, reference, client) == 1
    finally:
        handle.stop()


def test_server_idle_timeout_sheds_and_client_resumes():
    srv = ProverServer(F, idle_timeout=0.15)
    handle = srv.serve_in_thread()
    try:
        client = ServiceClient(*handle.address, F, U, dataset_id=1,
                               rng=random.Random(5), retry=FAST_RETRY)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES)
            time.sleep(0.4)  # the server sheds the silent connection
            outcome = client.query(f2())[0]
            assert outcome.result.accepted
            assert client.reconnects >= 1
            assert srv.timeouts >= 1
    finally:
        handle.stop()


def test_server_frame_timeout_sends_structured_error():
    srv = ProverServer(F, frame_timeout=0.1)
    handle = srv.serve_in_thread()
    try:
        sock = socket.create_connection(handle.address, timeout=5.0)
        try:
            # A header promising 32 payload bytes that never arrive.
            frame = sp.pack_frame(sp.T_STATS, 0, b"\0" * 32)
            sock.sendall(frame[: sp.HEADER_LEN])
            header = b""
            while len(header) < sp.HEADER_LEN:
                chunk = sock.recv(sp.HEADER_LEN - len(header))
                assert chunk, "server closed without a structured error"
                header += chunk
            frame_type, _session, length = sp.unpack_header(header)
            assert frame_type == sp.T_ERROR
            payload = b""
            while len(payload) < length:
                payload += sock.recv(length - len(payload))
            code, message = sp.parse_error_struct(payload)
            assert code == sp.E_TIMEOUT
            assert "timed out" in message
            assert srv.timeouts >= 1
        finally:
            sock.close()
    finally:
        handle.stop()


def test_max_frame_size_enforced_on_both_ends():
    srv = ProverServer(F, max_payload=64)
    handle = srv.serve_in_thread()
    try:
        client = ServiceClient(*handle.address, F, U, dataset_id=1,
                               rng=random.Random(6), retry=NO_RETRY)
        client.provision(("f2",), 1)
        # 40 update pairs encode far beyond 64 payload bytes: the server
        # rejects the header before allocating, as transport damage.
        with pytest.raises(ServiceUnavailableError):
            client.send_updates(UPDATES)
        # The client-side knob rejects oversized *inbound* headers the
        # same way, before any allocation.
        big = sp.pack_frame(sp.T_P_REPLY, 1, b"\0" * 128)
        with pytest.raises(sp.ServiceProtocolError):
            sp.unpack_header(big[: sp.HEADER_LEN], max_payload=64)
    finally:
        handle.stop()


# -- snapshot / restore --------------------------------------------------------


def test_snapshot_restore_across_server_restart(tmp_path, server):
    """Stop the server mid-session, restore a new one from its snapshot
    behind the same proxy address: the client reconnects on its own and
    the post-restart query is byte-identical to a never-restarted run."""
    # Control: the same client life (two queries) with no restart.
    control_client = ServiceClient(*server.address, F, U,
                                   dataset_id=fresh_dataset_id(),
                                   rng=random.Random(3), retry=FAST_RETRY)
    with control_client:
        control_client.provision(("f2",), 2)
        control_client.send_updates(UPDATES)
        first_control = control_client.query(f2())
        second_control = control_client.query(f2())

    srv1 = ProverServer(F)
    handle1 = srv1.serve_in_thread()
    proxy = ChaosProxy(*handle1.address)
    proxy_handle = proxy.serve_in_thread()
    path = tmp_path / "service.snapshot"
    try:
        client = ServiceClient(*proxy_handle.address, F, U,
                               dataset_id=fresh_dataset_id(),
                               rng=random.Random(3), retry=FAST_RETRY,
                               op_timeout=5.0)
        with client:
            client.provision(("f2",), 2)
            client.send_updates(UPDATES)
            first = client.query(f2())

            handle1.snapshot(path)
            handle1.stop()

            srv2 = ProverServer.from_snapshot(path, F)
            handle2 = srv2.serve_in_thread()
            try:
                proxy_handle.retarget(handle2.server.port)
                # The old connection is dead; the next query retries,
                # reconnects through the proxy, lands on the restored
                # dataset, and must reproduce the control bytes.
                started = time.monotonic()
                second = client.query(f2())
                # A stopped server closes its accepted connections, so
                # the proxy relays EOF and the client learns at once that
                # the node is gone — not by waiting out op_timeout.
                assert time.monotonic() - started < 2.0
                assert client.reconnects >= 1
                assert srv2.registry.stats()["updates"] == len(UPDATES)
            finally:
                handle2.stop()
        assert all(o.result.accepted for o in first + second)
        assert [encode_transcript(F, o.transcript) for o in first] == \
            [encode_transcript(F, o.transcript) for o in first_control]
        assert [encode_transcript(F, o.transcript) for o in second] == \
            [encode_transcript(F, o.transcript) for o in second_control]
    finally:
        proxy_handle.stop()
        handle1.stop()


def test_snapshot_rejects_field_and_version_mismatch(tmp_path):
    from repro.field.modular import PrimeField
    from repro.service.registry import RegistryError, SessionRegistry

    registry = SessionRegistry(F)
    registry.connect(U, 1)
    registry.datasets[1].apply(0, [(3, 2)])
    path = tmp_path / "snap.json"
    registry.snapshot(path)

    restored = SessionRegistry.restore(path, F)
    assert restored.datasets[1].freq_a[3] == 2
    assert restored.datasets[1].log == registry.datasets[1].log

    with pytest.raises(RegistryError, match="Z_"):
        SessionRegistry.restore(path, PrimeField((1 << 31) - 1))
    import json
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(RegistryError, match="version"):
        SessionRegistry.restore(path, F)


# -- the loadgen acceptance run ------------------------------------------------


def test_loadgen_through_chaos_proxy_zero_visible_errors(server):
    """The headline acceptance criterion: a loadgen run through a 10%
    fault-rate proxy finishes with *zero* client-visible protocol errors
    — only clean retries, refusals and reconnects — and every query
    verifies."""
    kinds = (KIND_DELAY,) * 8 + (KIND_DROP, KIND_CORRUPT)
    schedule = SeededSchedule(CHAOS_SEED, rate=0.10, kinds=kinds,
                              delay=0.001, stall=0.05)
    proxy = ChaosProxy(*server.address, schedule=schedule)
    handle = proxy.serve_in_thread()
    try:
        host, port = handle.address
        report = run_load(
            host, port, F, 1 << 8, sessions=3, updates_per_session=60,
            concurrency=3, seed=CHAOS_SEED + 1,
            dataset_base=40_000 + CHAOS_SEED * 10,
            client_kwargs={
                "retry": RetryPolicy(max_attempts=40, base_delay=0.003,
                                     max_delay=0.02),
                "op_timeout": 10.0,
            },
        )
    finally:
        handle.stop()
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run > 0
    assert proxy.faults_injected > 0
    record = report.as_record()
    assert record["errors"] == 0
    assert record["query_p99_seconds"] >= record["query_p50_seconds"] > 0
    assert record["retries"] == report.retries
    assert record["reconnects"] == report.reconnects
