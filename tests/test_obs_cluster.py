"""Trace continuity through recovery: cluster failover.

The trace-propagation promise is only interesting when the path breaks:
a conversation that fails over between cluster nodes must still stitch
into **one** trace — a single connected span tree rooted at the client
session, with spans from every node that touched the conversation.
Alongside the tree, the recovery counters must actually count: a kill
that forced a failover shows up in ``repro_cluster_failovers_total``.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro import obs
from repro.comm.wire import encode_transcript
from repro.field.modular import DEFAULT_FIELD as F
from repro.service import (
    ClusterNode,
    ClusterRouter,
    NodeSupervisor,
    RetryPolicy,
    ServiceClient,
    ThreadNodeManager,
    f2,
)

FAST_RETRY = RetryPolicy(max_attempts=10, base_delay=0.005, max_delay=0.03)

U = 64
UPDATES = [(i % U, 1 + i % 3) for i in range(40)]

_DATASET_COUNTER = iter(range(300_000, 340_000))


def fresh_dataset_id():
    return next(_DATASET_COUNTER)


@pytest.fixture()
def cluster(tmp_path):
    """Three thread-backed nodes, a replication-2 router, a supervisor
    (heartbeats off — deaths surface through relay errors)."""
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


@pytest.fixture()
def traced():
    """Global tracer + fresh registry for one test; yields the span sink."""
    sink = io.StringIO()
    old_tracer = obs.set_tracer(obs.Tracer(sink=sink, enabled=True))
    old_reg = obs.set_registry(obs.MetricsRegistry(enabled=True))
    yield sink
    obs.set_tracer(old_tracer)
    obs.set_registry(old_reg)


def _spans(sink):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def _assert_single_connected_trace(spans):
    """One trace id, one root, every parent resolves to an emitted span."""
    assert spans
    traces = {s["trace"] for s in spans}
    assert len(traces) == 1, "conversation split into traces: %s" % traces
    ids = {s["span"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == 1, [s["name"] for s in roots]
    assert roots[0]["name"] == "client.session"
    dangling = [s["name"] for s in spans
                if s["parent"] is not None and s["parent"] not in ids]
    assert not dangling, "unparented spans: %s" % dangling


def test_failover_keeps_one_connected_trace(cluster, traced):
    """Kill the primary mid-conversation: the retried query fails over
    to the replica, and the whole conversation — including spans from
    *both* serving nodes — is still a single span tree."""
    handle = cluster["handle"]
    manager = cluster["manager"]
    dataset = fresh_dataset_id()
    primary, failover = cluster["router"].replicas(dataset)

    client = ServiceClient(*handle.address, F, U, dataset_id=dataset,
                           rng=random.Random(7), retry=FAST_RETRY)
    with client:
        client.provision(("f2",), 1)
        client.send_updates(UPDATES)
        manager.kill(primary)
        (outcome,) = client.query(f2())
        assert client.retries >= 1  # the kill hit mid-conversation
    assert outcome.result.accepted
    assert encode_transcript(F, outcome.transcript)

    spans = _spans(traced)
    _assert_single_connected_trace(spans)

    # Both serving nodes appear inside the one trace: the original
    # primary saw the (traced) update blocks before it died, and the
    # failover target served every traced proof round after the kill.
    # (Initial HELLOs are untraced by construction — version 1, before
    # the capability handshake — so session.open spans only come from
    # traced mirror opens.)
    server_nodes = {s["node"] for s in spans
                    if s["name"].startswith("server.")}
    assert {primary, failover} <= server_nodes
    update_nodes = {s["node"] for s in spans
                    if s["name"] == "server.update.block"}
    assert primary in update_nodes
    proof_nodes = {s["node"] for s in spans
                   if s["name"] == "server.proof.round"}
    assert proof_nodes == {failover}

    # The recovery was counted where dashboards will look for it.
    reg = obs.get_registry()
    assert reg.counter("repro_cluster_failovers_total").value >= 1
    assert handle.stats()["failovers"] >= 1
