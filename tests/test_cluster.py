"""Cluster tests: replicated prover nodes behind the consistent-hash router.

The acceptance bar carries over from the chaos suite: recovery is only
recovery if the transcript is *byte-identical* to a fault-free
single-node run.  Transcripts are deterministic given data + verifier
randomness, and the router fans every update to every in-sync replica
before acking.  A failover is the client's retry: a conversation whose
open was acked spent its copy, so the retry runs on the next copy of the
same seeded pool.  Killing the primary at any frame boundary must
reproduce the single-node bytes of the copy the query ended on, and
restarting a node from a stale snapshot and resyncing its missed tail
from a peer must reproduce the reference bytes exactly.  Every node may
be on the prover's side: a replica that learned the primary's challenges
is still caught.

``REPRO_CLUSTER_SEED`` (default 0) seeds the node-kill choices of the
cluster load run so the CI cluster-smoke leg can sweep a seed matrix;
``REPRO_CLUSTER_SMOKE`` switches that run onto real ``python -m
repro.service`` subprocesses.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import RetryAdaptiveF2Cheater, RetryAdaptiveLookupCheater
from repro.comm.wire import encode_transcript
from repro.field.modular import DEFAULT_FIELD as F
from repro.service import protocol as sp
from repro.service import (
    ChaosProxy,
    ClusterNode,
    ClusterRouter,
    HashRing,
    NodeSupervisor,
    NO_RETRY,
    ProcessNodeManager,
    ProverServer,
    RetryPolicy,
    ServiceBusyError,
    ServiceClient,
    ServiceUnavailableError,
    ThreadNodeManager,
    f2,
    heavy_hitters,
    point_lookup,
    run_cluster_load,
)
from repro.service.ring import DEFAULT_VNODES
from repro.service.supervisor import probe_node
from retry_workload import COUNTS, FrameLog, U, UPDATES

CLUSTER_SEED = int(os.environ.get("REPRO_CLUSTER_SEED", "0"))
CLUSTER_SMOKE = bool(os.environ.get("REPRO_CLUSTER_SMOKE"))

FAST_RETRY = RetryPolicy(max_attempts=10, base_delay=0.005, max_delay=0.03)

MORE_UPDATES = [(i % U, 2 + i % 5) for i in range(25)]
#: Second-vector updates streamed just before MORE_UPDATES, so a resynced
#: tail holds both vectors.
MORE_B_UPDATES = [(3 * i % U, 1 + i % 3) for i in range(7)]

_DATASET_COUNTER = iter(range(100_000, 140_000))


def fresh_dataset_id():
    return next(_DATASET_COUNTER)


#: Copies each run provisions: the first one, and the one a conversation
#: retried after its open was acked takes.
COPIES = 2


def run_workload(host, port, dataset_id, seed=0, retry=FAST_RETRY,
                 updates=UPDATES, copies=COPIES, queries=1, descriptor=f2()):
    """The canonical workload (same as the chaos suite's): provision,
    stream, verify ``descriptor`` (F2 by default) ``queries`` times.
    Same seed + same pool size + same data = same bytes for the k-th
    copy taken."""
    client = ServiceClient(host, port, F, U, dataset_id=dataset_id,
                           rng=random.Random(seed), retry=retry,
                           op_timeout=5.0)
    with client:
        client.provision(descriptor, copies)
        client.send_updates(updates)
        outcomes = [o for _ in range(queries)
                    for o in client.query(descriptor)]
    return outcomes, client


def transcript_bytes(outcomes):
    return [encode_transcript(F, o.transcript) for o in outcomes]


# -- the hash ring (satellite: hypothesis sweeps) ------------------------------


node_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6),
    min_size=1, max_size=8, unique=True,
)


@given(nodes=node_names, key=st.integers(min_value=0, max_value=1 << 40),
       n=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_ring_assignment_is_stable_and_order_free(nodes, key, n):
    """The same membership gives the same replica list no matter the
    insertion order, and replicas are distinct ring members."""
    ring = HashRing(nodes)
    shuffled = list(nodes)
    random.Random(key).shuffle(shuffled)
    other = HashRing()
    for name in shuffled:
        other.add_node(name)
    replicas = ring.replicas("dataset:%d" % key, n)
    assert replicas == other.replicas("dataset:%d" % key, n)
    assert len(replicas) == min(n, len(nodes))
    assert len(set(replicas)) == len(replicas)
    assert all(r in ring.nodes for r in replicas)


@given(extra=st.text(alphabet="xyz", min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_ring_join_and_leave_move_minimal_keys(extra):
    """Adding a node only moves keys *onto* it, and placement is a pure
    function of the members, so a ring without it is the previous
    assignment exactly — the consistent-hashing contract that makes
    node replacement cheap."""
    base = ["node-%d" % i for i in range(4)]
    newcomer = "new-" + extra
    keys = ["dataset:%d" % k for k in range(300)]
    ring = HashRing(base)
    before = {k: ring.primary(k) for k in keys}
    ring.add_node(newcomer)
    after = {k: ring.primary(k) for k in keys}
    moved = {k for k in keys if after[k] != before[k]}
    assert all(after[k] == newcomer for k in moved)
    joined_first = HashRing([newcomer] + base)
    assert {k: joined_first.primary(k) for k in keys} == after


def test_ring_balances_load_across_nodes():
    nodes = ["n%d" % i for i in range(6)]
    ring = HashRing(nodes, vnodes=DEFAULT_VNODES)
    counts = {name: 0 for name in nodes}
    total = 3000
    for k in range(total):
        counts[ring.primary("dataset:%d" % k)] += 1
    fair = total / len(nodes)
    for name, count in counts.items():
        assert fair / 2 <= count <= fair * 2, (name, counts)


def test_ring_rejects_duplicates_and_unknowns():
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.add_node("a")
    with pytest.raises(LookupError):
        HashRing().primary("k")


# -- cluster fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def single_node():
    """The reference service every cluster recovery must byte-match."""
    handle = ProverServer(F).serve_in_thread()
    yield handle
    handle.stop()


@pytest.fixture()
def cluster(tmp_path):
    """Three thread-backed nodes, a replication-2 router, a supervisor.

    Heartbeats are off: tests detect death through relay errors and heal
    through explicit ``supervisor.check_once()`` calls, keeping frame
    counts deterministic.
    """
    manager = ThreadNodeManager(F, snapshot_dir=str(tmp_path))
    nodes = [
        ClusterNode(node_id, *manager.add_node(node_id))
        for node_id in ("n0", "n1", "n2")
    ]
    router = ClusterRouter(F, nodes, replication_factor=2,
                           heartbeat_interval=None, backend_timeout=5.0)
    handle = router.serve_in_thread()
    supervisor = NodeSupervisor(handle, manager, F)
    yield {
        "manager": manager,
        "router": router,
        "handle": handle,
        "supervisor": supervisor,
    }
    supervisor.stop()
    handle.stop()
    manager.stop_all()


# -- transparent routing -------------------------------------------------------


def test_cluster_routing_is_byte_identical_to_single_node(single_node,
                                                          cluster):
    """A client cannot tell the router from a plain server: same seed,
    same data, same transcript bytes."""
    want, _ = run_workload(*single_node.address, fresh_dataset_id(),
                           seed=11)
    got, client = run_workload(*cluster["handle"].address,
                               fresh_dataset_id(), seed=11)
    assert all(o.result.accepted for o in got)
    assert transcript_bytes(got) == transcript_bytes(want)
    assert client.retries == 0 and client.reconnects == 0
    assert cluster["handle"].stats()["failovers"] == 0


def test_updates_fan_out_to_every_replica(cluster):
    dataset = fresh_dataset_id()
    run_workload(*cluster["handle"].address, dataset, seed=1)
    router = cluster["router"]
    replicas = router.replicas(dataset)
    assert len(replicas) == 2
    for node_id in replicas:
        registry = cluster["manager"].handle(node_id).server.registry
        inventory = dict(
            (d, (u, n)) for d, u, n in registry.inventory()
        )
        assert inventory[dataset] == (U, len(UPDATES)), node_id
    # The ring keeps the dataset off the third node entirely.
    (outsider,) = set(router.nodes) - set(replicas)
    outsider_registry = cluster["manager"].handle(outsider).server.registry
    assert dataset not in dict(
        (d, n) for d, _u, n in outsider_registry.inventory()
    )


def test_router_answers_health_pings_itself(cluster):
    host, port = cluster["handle"].address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(sp.pack_frame(sp.H_PING, 0))
        header = b""
        while len(header) < sp.HEADER_LEN:
            header += sock.recv(sp.HEADER_LEN - len(header))
        frame_type, _session, length = sp.unpack_header(header)
        assert frame_type == sp.H_STATUS
        payload = b""
        while len(payload) < length:
            payload += sock.recv(length - len(payload))
        counters, _inventory = sp.parse_status(F, payload)
        assert counters["sessions"] >= 1  # this very connection


def test_no_live_replica_is_a_clean_retryable_refusal(cluster):
    dataset = fresh_dataset_id()
    handle = cluster["handle"]
    for node_id in cluster["router"].replicas(dataset):
        handle.mark_dead(node_id)
    time.sleep(0.05)
    with pytest.raises(ServiceBusyError, match="no live replica"):
        ServiceClient(*handle.address, F, U, dataset_id=dataset,
                      rng=random.Random(2), retry=NO_RETRY)
    # Heal everything so later tests on this fixture see a full cluster.
    assert all(cluster["supervisor"].check_once().values())
    assert set(cluster["handle"].health_view().values()) == {"alive"}


# -- the relay's per-trip cost: no Task per round trip -------------------------


def test_a_relayed_round_trip_creates_no_task():
    """The mechanism behind the relay's latency, pinned: a round trip
    through the router creates no asyncio Task on its loop.  (Its
    dialled backend link once wrapped the drain and both reads of every
    trip in ``asyncio.wait_for`` — three Tasks a trip on Python < 3.12.)
    The relayed calls move the same frames and bytes as the same calls
    made to a node directly."""
    calls = 40
    direct = ProverServer(F).serve_in_thread()
    behind = ProverServer(F).serve_in_thread()
    handle = ClusterRouter(F, [ClusterNode("n0", *behind.address)],
                           replication_factor=1, heartbeat_interval=None,
                           backend_timeout=5.0).serve_in_thread()
    created = []

    def counting_factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def set_task_factory(factory):
        asyncio.get_running_loop().set_task_factory(factory)

    def session(address, counted):
        client = ServiceClient(*address, F, U, dataset_id=fresh_dataset_id(),
                               rng=random.Random(3), retry=NO_RETRY,
                               op_timeout=5.0)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES)
            if counted:
                handle._run(set_task_factory(counting_factory))
            created.clear()
            replies = [client.stats() for _ in range(calls)]
            transcript = transcript_bytes(client.query(f2()))
            tasks = len(created)
            if counted:
                handle._run(set_task_factory(None))
            wire = (client.frames_sent, client.frames_received,
                    client.bytes_sent, client.bytes_received)
        return tasks, replies, transcript, wire

    try:
        tasks, *relayed = session(handle.address, counted=True)
        _tasks, *straight = session(direct.address, counted=False)
    finally:
        handle.stop()
        behind.stop()
        direct.stop()
    assert tasks == 0
    assert relayed == straight


# -- one listener lifecycle: a stopped listener hangs up on its clients --------


@pytest.mark.parametrize("front", ["node", "router", "proxy"])
def test_stopped_listener_hangs_up_on_its_clients(single_node, front):
    """``stop()`` closes every conversation the listener accepted (and,
    for the router, cancels *and awaits* its heartbeat), so a connected
    client reads EOF at once instead of sitting out ``op_timeout`` on a
    process that is gone.  One assertion for all three listeners: they
    share the lifecycle, so they cannot drift."""
    if front == "node":
        listener = ProverServer(F)
    elif front == "router":
        listener = ClusterRouter(
            F, [ClusterNode("n0", *single_node.address)],
            replication_factor=1, heartbeat_interval=0.02,
        )
    else:
        listener = ChaosProxy(*single_node.address)
    handle = listener.serve_in_thread()
    client = ServiceClient(*handle.address, F, U,
                           dataset_id=fresh_dataset_id(),
                           rng=random.Random(4), retry=NO_RETRY,
                           op_timeout=5.0)
    try:
        client.provision(("f2",), 1)
        client.send_updates(UPDATES)  # an open session, mid-conversation
        time.sleep(0.05)  # let the router's heartbeat be mid-flight too
        t0 = time.monotonic()
        handle.stop()
        with pytest.raises(ServiceUnavailableError):
            client.stats()
        assert time.monotonic() - t0 < 1.0
        assert not listener._tasks  # nothing left pending on a dead loop
    finally:
        client.close()
        handle.stop()


# -- the tentpole: kill the primary at every frame boundary --------------------


@contextlib.contextmanager
def proxied_cluster_of(tmp_path, **server_kwargs):
    """The frame-precise harness: the router reaches each node only
    through that node's :class:`ChaosProxy` (carrying a
    :class:`FrameLog`, a logging :class:`BlackoutSchedule`), while the
    supervisor keeps the real address — so a test can kill a node at an
    exact frame boundary and
    the repair path still reaches the live process behind the curtain.
    ``server_kwargs`` go to every node's :class:`ProverServer`.
    """
    manager = ThreadNodeManager(F, snapshot_dir=str(tmp_path),
                                server_kwargs=server_kwargs)
    proxies = {}
    schedules = {}
    nodes = []
    for node_id in ("n0", "n1", "n2"):
        host, port = manager.add_node(node_id)
        schedule = FrameLog()
        proxy = ChaosProxy(host, port, schedule=schedule)
        proxy_handle = proxy.serve_in_thread()
        proxies[node_id] = proxy_handle
        schedules[node_id] = schedule
        nodes.append(ClusterNode(node_id, *proxy_handle.address))
    router = ClusterRouter(F, nodes, replication_factor=2,
                           heartbeat_interval=None, backend_timeout=5.0)
    handle = router.serve_in_thread()
    supervisor = NodeSupervisor(handle, manager, F,
                                update_router_address=False)
    try:
        yield {
            "manager": manager,
            "router": router,
            "handle": handle,
            "supervisor": supervisor,
            "proxies": proxies,
            "schedules": schedules,
        }
    finally:
        supervisor.stop()
        handle.stop()
        for proxy_handle in proxies.values():
            proxy_handle.stop()
        manager.stop_all()


@pytest.fixture()
def proxied_cluster(tmp_path):
    with proxied_cluster_of(tmp_path) as harness:
        yield harness


def kill_primary_at(harness, dataset, index, run):
    """Black out ``dataset``'s primary at its ``index``-th frame from now,
    call ``run()``, then bring the node back and heal the cluster."""
    primary = harness["router"].replicas(dataset)[0]
    schedule = harness["schedules"][primary]
    proxy = harness["proxies"][primary].proxy
    schedule.after = proxy.global_frames + index
    schedule.active = False
    try:
        result = run()
    finally:
        schedule.restore()
    # Heal before the next round so every iteration starts from a fully
    # alive cluster (and the blacked-out node catches up on the updates
    # it missed).
    healed = harness["supervisor"].check_once()
    assert all(healed.values()), (index, healed)
    assert set(harness["handle"].health_view().values()) == {"alive"}, index
    return result


#: A query whose conversation ends on T_QUERY_CLOSE.
HEAVY = heavy_hitters(1, 8)


def test_kill_primary_at_every_frame_boundary_byte_identical(
    single_node, proxied_cluster
):
    """The headline sweep: black out the dataset's primary at *every*
    frame of the conversation in turn.  A kill up to and including the
    open's ack, or from the close on, must land the exact single-node
    bytes of the first copy.  A kill in between aborts the conversation;
    the client's retry fails over to the replica on the next copy and
    must land that copy's exact single-node bytes.  The supervisor then
    heals the blacked-out node (tail resync from the surviving replica)
    before the next round.  The query is heavy hitters, whose
    conversation still ends on a close (a sum-check unit's last reply
    releases its prover)."""
    reference, _ = run_workload(*single_node.address, fresh_dataset_id(),
                                seed=23, queries=COPIES, descriptor=HEAVY)
    want = transcript_bytes(reference)  # one per copy, in the order taken
    handle = proxied_cluster["handle"]
    router = proxied_cluster["router"]

    # Fault-free cluster pass establishes the frames one primary proxy
    # carries for this workload, and which of them opens and closes.
    calibration = fresh_dataset_id()
    primary = router.replicas(calibration)[0]
    base = proxied_cluster["proxies"][primary].proxy.global_frames
    got, _ = run_workload(*handle.address, calibration, seed=23,
                          descriptor=HEAVY)
    assert transcript_bytes(got) == want[:1]
    types = proxied_cluster["schedules"][primary].types[base:]
    assert len(types) > 10
    opened = types.index(sp.T_QUERY_ACK)
    closing = types.index(sp.T_QUERY_CLOSE)

    failovers_seen = 0
    for index in range(len(types)):
        dataset = fresh_dataset_id()
        got, client = kill_primary_at(
            proxied_cluster, dataset, index,
            lambda: run_workload(*handle.address, dataset, seed=23,
                                 descriptor=HEAVY))
        spent = COPIES - client.pool_remaining(HEAVY)
        assert spent == (2 if opened < index < closing else 1), index
        assert all(o.result.accepted for o in got), index
        assert transcript_bytes(got) == [want[spent - 1]], index
        failovers_seen += client.retries
    assert failovers_seen > 0
    assert handle.stats()["failovers"] > 0


@pytest.mark.parametrize("cheater_class, descriptor, truth", [
    (RetryAdaptiveF2Cheater, f2(), sum(a * a for a in COUNTS)),
    (RetryAdaptiveLookupCheater, point_lookup(5), COUNTS[5]),
], ids=["f2", "point-lookup"])
def test_adaptive_cheater_rejected_after_a_primary_kill_at_every_frame(
        tmp_path, cheater_class, descriptor, truth):
    """Every node is on the prover's side: one cheater instance serves all
    three, so the replica a failover lands on knows the r_1 the primary
    saw.  With a spare copy provisioned, no kill point may turn its lie
    into an accepted answer."""
    cheater = cheater_class(F)
    with proxied_cluster_of(tmp_path, prover_wrapper=cheater) as harness:
        address = harness["handle"].address

        def run(dataset):
            outcomes, _client = run_workload(*address, dataset, seed=23,
                                             descriptor=descriptor)
            return outcomes[0]

        calibration = fresh_dataset_id()
        primary = harness["router"].replicas(calibration)[0]
        proxy = harness["proxies"][primary].proxy
        base = proxy.global_frames
        clean = run(calibration)
        assert clean.result.accepted and clean.result.value == truth
        for index in range(proxy.global_frames - base):
            dataset = fresh_dataset_id()
            outcome = kill_primary_at(harness, dataset, index,
                                      lambda: run(dataset))
            assert not outcome.result.accepted \
                or outcome.result.value == truth, index
        assert cheater.cheats > 0


def test_restart_from_stale_snapshot_resyncs_missed_tail(single_node,
                                                         cluster):
    """A node restarted from a stale snapshot pulls exactly the updates
    it missed from a peer replica, in the peer's log order, before
    rejoining — and both the mid-kill failover query and a post-heal
    reader are byte-identical to fault-free single-node runs."""
    # References: the writer's life and a late reader's life, undisturbed.
    ref_dataset = fresh_dataset_id()
    writer_ref = ServiceClient(*single_node.address, F, U,
                               dataset_id=ref_dataset,
                               rng=random.Random(31), retry=FAST_RETRY)
    with writer_ref:
        writer_ref.provision(("f2",), 1)
        writer_ref.send_updates(UPDATES)
        writer_ref.send_updates(MORE_B_UPDATES, vector=1)
        writer_ref.send_updates(MORE_UPDATES)
        want_writer = transcript_bytes(writer_ref.query(f2()))
    reader_ref = ServiceClient(*single_node.address, F, U,
                               dataset_id=ref_dataset,
                               rng=random.Random(32), retry=FAST_RETRY)
    with reader_ref:
        reader_ref.provision(("f2",), 1)
        reader_ref.replay_missed()
        want_reader = transcript_bytes(reader_ref.query(f2()))

    handle = cluster["handle"]
    manager = cluster["manager"]
    supervisor = cluster["supervisor"]
    dataset = fresh_dataset_id()
    primary = cluster["router"].replicas(dataset)[0]
    replica = cluster["router"].replicas(dataset)[1]

    writer = ServiceClient(*handle.address, F, U, dataset_id=dataset,
                           rng=random.Random(31), retry=FAST_RETRY)
    with writer:
        writer.provision(("f2",), 1)
        writer.send_updates(UPDATES)
        # The snapshot captures the first phase only: everything after
        # it must come back through peer resync, not the file.
        manager.snapshot(primary)
        writer.send_updates(MORE_B_UPDATES, vector=1)
        writer.send_updates(MORE_UPDATES)
        manager.kill(primary)
        got_writer = transcript_bytes(writer.query(f2()))
        assert writer.retries >= 1  # the kill really hit mid-conversation
    assert got_writer == want_writer
    assert handle.health_view()[primary] == "dead"

    healed = supervisor.check_once()
    assert healed == {primary: True}
    assert supervisor.restarts == 1
    assert supervisor.resyncs >= 1
    assert set(handle.health_view().values()) == {"alive"}

    # The restarted node's log equals the surviving replica's, entry for
    # entry and across both vectors: snapshot prefix + resynced tail.
    restarted = manager.handle(primary).server.registry
    survivor = manager.handle(replica).server.registry
    log = survivor.datasets[dataset].log
    assert restarted.datasets[dataset].log == log
    assert {vector for vector, _key, _delta in log} == {0, 1}
    assert restarted.datasets[dataset].n_updates == \
        len(UPDATES) + len(MORE_B_UPDATES) + len(MORE_UPDATES)

    reader = ServiceClient(*handle.address, F, U, dataset_id=dataset,
                           rng=random.Random(32), retry=FAST_RETRY)
    with reader:
        reader.provision(("f2",), 1)
        reader.replay_missed()
        got_reader = transcript_bytes(reader.query(f2()))
    assert got_reader == want_reader


# -- crash-safe snapshots (satellite) ------------------------------------------


def test_snapshot_killed_between_write_and_rename_keeps_old_file(
    tmp_path, monkeypatch
):
    """Kill the process between writing the temp file and the atomic
    rename: the published snapshot must still be the previous complete
    one, and a restore from it must succeed."""
    from repro.service import registry as registry_module
    from repro.service.registry import SessionRegistry

    registry = SessionRegistry(F)
    registry.connect(U, 7)
    registry.datasets[7].apply(0, [(1, 5), (2, 6)])
    path = tmp_path / "node.json"
    registry.snapshot(path)
    first_log = list(registry.datasets[7].log)

    registry.datasets[7].apply(0, [(3, 9)])

    def killed_replace(src, dst):
        raise OSError("process killed mid-rename")

    monkeypatch.setattr(registry_module.os, "replace", killed_replace)
    with pytest.raises(OSError):
        registry.snapshot(path)
    monkeypatch.undo()

    # The incomplete attempt left the published file untouched...
    restored = SessionRegistry.restore(path, F)
    assert restored.datasets[7].log == first_log
    # ...and a later, uninterrupted snapshot publishes the new state.
    registry.snapshot(path)
    restored = SessionRegistry.restore(path, F)
    assert restored.datasets[7].log == registry.datasets[7].log
    # No temp debris survives a successful pass.
    assert [p.name for p in tmp_path.iterdir()] == ["node.json"]


# -- the CLI entrypoint (satellite) --------------------------------------------


def test_cli_node_snapshot_kill_restart_roundtrip(tmp_path):
    """A real ``python -m repro.service`` subprocess: periodic snapshots,
    SIGKILL, restart from the file — data intact on the new port."""
    manager = ProcessNodeManager(
        F, snapshot_dir=str(tmp_path),
        extra_args=["--snapshot-interval", "0.1"],
    )
    try:
        host, port = manager.add_node("cli")
        client = ServiceClient(host, port, F, U, dataset_id=3,
                               rng=random.Random(5), retry=FAST_RETRY)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES)
            want = client.query(f2())[0]
            assert want.result.accepted
        deadline = time.monotonic() + 5.0
        snapshot = manager.snapshot_path("cli")
        while not os.path.exists(snapshot):
            assert time.monotonic() < deadline, "snapshot never appeared"
            time.sleep(0.05)
        time.sleep(0.15)  # one more interval so the file covers the data
        manager.kill("cli")
        assert not manager.running("cli")

        new_address = manager.restart("cli")
        probed = probe_node(new_address, F)
        assert probed is not None
        _counters, inventory = probed
        assert inventory[3] == (U, len(UPDATES))
        # The restored dataset answers the same verified query.
        reader = ServiceClient(*new_address, F, U, dataset_id=3,
                               rng=random.Random(6), retry=FAST_RETRY)
        with reader:
            reader.provision(("f2",), 1)
            reader.replay_missed()
            got = reader.query(f2())[0]
        assert got.result.accepted and got.result.value == want.result.value
    finally:
        manager.stop_all()


def test_cli_rejects_snapshot_interval_without_path(capsys):
    from repro.service.__main__ import main

    assert main(["--snapshot-interval", "1.0"]) == 2
    assert "--snapshot" in capsys.readouterr().err


# -- the cluster load run (acceptance criterion) -------------------------------


def test_cluster_loadgen_with_seeded_node_kills_zero_errors(tmp_path):
    """The headline cluster run: a multi-node loadgen workload with two
    seeded node kills mid-run and the supervisor healing in the
    background — zero client-visible errors, every query verified."""
    if CLUSTER_SMOKE:
        manager = ProcessNodeManager(
            F, snapshot_dir=str(tmp_path),
            extra_args=["--snapshot-interval", "0.2"],
        )
    else:
        manager = ThreadNodeManager(F, snapshot_dir=str(tmp_path))
    node_ids = ["k0", "k1", "k2"]
    nodes = [
        ClusterNode(node_id, *manager.add_node(node_id))
        for node_id in node_ids
    ]
    # Production shape: active heartbeat probing (death is detected even
    # on idle nodes) plus the background supervisor healing as it goes.
    router = ClusterRouter(F, nodes, replication_factor=2,
                           heartbeat_interval=0.05, backend_timeout=5.0)
    handle = router.serve_in_thread()
    supervisor = NodeSupervisor(handle, manager, F, poll_interval=0.05)
    supervisor.start()
    try:
        dataset_base = fresh_dataset_id()
        # The first victim is session 0's primary, killed once that
        # session is open on it: the kill lands mid-conversation however
        # fast the run is.  The seed picks the second.
        first = router.replicas(dataset_base)[0]
        second = random.Random(CLUSTER_SEED).choice(
            [node_id for node_id in node_ids if node_id != first])

        def kill_when_open(victim):
            deadline = time.monotonic() + 10.0
            while dataset_base not in router.datasets \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            manager.kill(victim)

        def kill_when_healed(victim):
            # With replication factor 2, overlapping kills can take out
            # the last in-sync holder of a dataset — genuine data loss,
            # not a recoverable fault.  Waiting for the supervisor to
            # finish the first heal gives the strongest scenario that
            # still promises zero errors.  (health_view alone is not
            # enough: detection of the first kill may itself be pending.)
            deadline = time.monotonic() + 10.0
            while (supervisor.heals < 1
                   or set(handle.health_view().values()) != {"alive"}) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            manager.kill(victim)

        report = run_cluster_load(
            *handle.address, F, 1 << 8,
            nodes=len(nodes), replication_factor=2,
            kill_schedule=[
                (0.0, lambda: kill_when_open(first)),
                (0.15, lambda: kill_when_healed(second)),
            ],
            sessions=12, updates_per_session=6000, concurrency=3,
            seed=CLUSTER_SEED + 1,
            dataset_base=dataset_base,
            client_kwargs={
                "retry": RetryPolicy(max_attempts=60, base_delay=0.01,
                                     max_delay=0.08),
                "op_timeout": 10.0,
            },
        )
        report.failovers = handle.stats()["failovers"]
        report.resyncs = supervisor.resyncs
        # Even a kill that fired after the last session must end healed.
        deadline = time.monotonic() + 10.0
        while set(handle.health_view().values()) != {"alive"}:
            assert time.monotonic() < deadline, handle.health_view()
            time.sleep(0.05)
    finally:
        supervisor.stop()
        handle.stop()
        manager.stop_all()
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run > 0
    assert report.node_kills == 2
    # Observed, not timed: a kill landed while sessions ran, and a
    # client's conversation failed over across it.
    assert report.kills_mid_run >= 1
    assert report.failovers >= 1 and report.reconnects >= 1
    assert report.nodes == 3
    assert report.replication_factor == 2
