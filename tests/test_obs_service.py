"""Service-level observability: the invariant and the accounting.

Two contracts anchor this suite:

1. **Differential byte-identity** — running the identical workload with
   every observability plane enabled (tracing, metrics, structured
   logs) and with everything disabled produces *byte-identical*
   transcripts.  Instrumentation lives entirely off the proof path:
   trace ids come from ``os.urandom``, never the verifier RNGs.

2. **Metrics equal accounting** — the ``repro_*_query_words``
   histograms are not approximations of the paper's (s, t) cost model;
   they record exactly the numbers ``Channel.query_cost`` /
   ``QueryOutcome.cost.transcript_words`` report, under the scalar and
   the vectorized field backend alike.

Plus the wire/HTTP surfaces: the ``H_STATS`` frame round-trip and the
``--stats`` Prometheus-style endpoint of ``python -m repro.service``.
"""

from __future__ import annotations

import io
import os
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.comm.wire import encode_transcript
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY
from repro.service import (
    NO_RETRY,
    ProverServer,
    ServiceClient,
    f2,
    fk,
    inner_product,
    range_sum,
)
from repro.service import protocol as sp
from repro.service.transport import BlockingFrameLink, LinkClosed

U = 64
UPDATES_A = [(i % U, 1 + i % 3) for i in range(48)]
UPDATES_B = [((i * 7) % U, 1 + i % 5) for i in range(48)]

_DATASET_COUNTER = iter(range(200_000, 240_000))


def fresh_dataset_id():
    return next(_DATASET_COUNTER)


#: Every sum-check family and the descriptor that exercises it.  The
#: kind strings are the histogram labels both the client and the
#: batched-engine metrics use.
SUMCHECK_KINDS = [
    ("f2", f2),
    ("fk", lambda: fk(3)),
    ("inner-product", inner_product),
    ("range-sum", lambda: range_sum(4, 33)),
]


@pytest.fixture(scope="module")
def server():
    srv = ProverServer(F, node_name="n-obs")
    handle = srv.serve_in_thread()
    yield handle
    handle.stop()


@pytest.fixture
def registry():
    """A fresh enabled registry installed globally for one test."""
    reg = obs.MetricsRegistry(enabled=True)
    old = obs.set_registry(reg)
    yield reg
    obs.set_registry(old)


def _obs_on():
    """Enable all three planes; returns (old state, trace sink)."""
    sink = io.StringIO()
    old_reg = obs.set_registry(obs.MetricsRegistry(enabled=True))
    old_tracer = obs.set_tracer(obs.Tracer(sink=sink, enabled=True))
    obs.configure_logging(sink=io.StringIO())
    return (old_reg, old_tracer), sink


def _obs_off():
    old_reg = obs.set_registry(obs.MetricsRegistry(enabled=False))
    old_tracer = obs.set_tracer(obs.Tracer(enabled=False))
    obs.configure_logging(sink=None)
    return (old_reg, old_tracer), None


def _obs_restore(old):
    old_reg, old_tracer = old
    obs.set_registry(old_reg)
    obs.set_tracer(old_tracer)
    obs.configure_logging(sink=None)


def _run_workload(server, dataset_id, seed=0, descriptors=None,
                  pool_key=("batch",)):
    host, port = server.address
    client = ServiceClient(host, port, F, U, dataset_id=dataset_id,
                           rng=random.Random(seed), op_timeout=10.0)
    with client:
        client.provision(pool_key, 1)
        client.send_updates(UPDATES_A)
        client.send_updates(UPDATES_B, vector=1)
        if descriptors is None:
            descriptors = [factory() for _, factory in SUMCHECK_KINDS]
        outcomes = client.query(*descriptors)
    return outcomes


def _transcripts(outcomes):
    return [encode_transcript(F, o.transcript) for o in outcomes]


# -- byte accounting covers the trace extension ---------------------------------


def test_bytes_received_counts_a_traced_replys_extension():
    """Servers reply in version-1 frames today, but a traced (version-2)
    reply is legal, and its 16 extension bytes cross the socket like any
    others: ``bytes_received`` is what the reader consumed, exactly."""
    listener = socket.create_server(("127.0.0.1", 0))
    replies = {
        sp.T_HELLO: (sp.T_HELLO_ACK,
                     sp.words_payload(F, [0])),
        sp.T_STATS: (sp.T_STATS_REPLY, sp.words_payload(F, [1, 2, 3, 4, 5])),
        sp.T_BYE: (sp.T_BYE_ACK, b""),
    }
    sent = []

    def serve():
        conn, _ = listener.accept()
        with BlockingFrameLink(conn) as link:
            while True:
                try:
                    frame_type, _session, _header, _payload = \
                        link.read_frame()
                except LinkClosed:
                    return
                reply_type, payload = replies[frame_type]
                sent.append(sp.pack_frame(reply_type, 1, payload,
                                          trace=(5, 6)))
                link.send(sent[-1])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client = ServiceClient(*listener.getsockname(), F, U,
                               retry=NO_RETRY, op_timeout=5.0)
        assert client.stats()["queries_served"] == 5
        client.close()
        thread.join(timeout=5)
    finally:
        listener.close()
    assert len(sent) == 3 and all(
        frame[2] == sp.FRAME_VERSION_TRACED for frame in sent)
    assert client.frames_received == 3
    assert client.bytes_received == sum(len(frame) for frame in sent)


# -- the invariant: obs on vs. off changes zero transcript bytes ---------------


def test_observability_changes_zero_transcript_bytes(server):
    # The mixed sum-check batch, then the sharded F2 coordinator.
    for workload in ({}, {"descriptors": [f2(2)], "pool_key": ("f2",)}):
        old, _ = _obs_off()
        try:
            baseline = _transcripts(_run_workload(
                server, fresh_dataset_id(), **workload))
        finally:
            _obs_restore(old)

        old, trace_sink = _obs_on()
        try:
            traced = _transcripts(_run_workload(
                server, fresh_dataset_id(), **workload))
        finally:
            _obs_restore(old)

        assert traced == baseline
        # The instrumented run really was instrumented: spans were
        # emitted and the words histograms filled — yet the bytes did
        # not move.
        assert trace_sink.getvalue().strip()


def test_feed_span_splits_an_ingest_block(server):
    """``client.update.feed`` sits beside ``client.update.block``: a
    production trace says how an ingest block splits between the
    verifier copies and the frame — as spans only, no new metric."""
    import json

    old, trace_sink = _obs_on()
    try:
        host, port = server.address
        with ServiceClient(host, port, F, U, dataset_id=fresh_dataset_id(),
                           rng=random.Random(0)) as client:
            client.provision(("batch",), 3)
            client.provision(("tree",), 2)
            client.send_updates(UPDATES_A, block=32)
            client.send_updates(UPDATES_B, vector=1)
        metrics = set(obs.get_registry().snapshot())
    finally:
        _obs_restore(old)
    spans = [json.loads(line)
             for line in trace_sink.getvalue().splitlines() if line.strip()]
    feeds = [s for s in spans if s["name"] == "client.update.feed"]
    frames = [s for s in spans if s["name"] == "client.update.block"]
    assert [(s["updates"], s["keys"], s["rows"]) for s in feeds] == [
        # vector 0 moves all five copies (aggregated: 32 distinct keys,
        # then 16), vector 1 only the three second LDEs (folded raw).
        (32, 32, 5), (16, 16, 5), (48, 48, 3),
    ]
    assert [s["n"] for s in frames] == [32, 16, 48]
    assert {s["parent"] for s in feeds} == {s["parent"] for s in frames}
    assert not any("feed" in name for name in metrics)


# -- metrics equal accounting --------------------------------------------------


_BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])


@pytest.mark.parametrize("backend", _BACKENDS)
def test_words_histograms_equal_query_cost_batched(registry, monkeypatch,
                                                   backend):
    """Batched direct-sum path: for every sum-check family, both the
    client-side and the engine-side words histograms hold exactly the
    ``transcript_words`` the outcome accounts — per backend."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    srv = ProverServer(F)
    handle = srv.serve_in_thread()
    try:
        outcomes = _run_workload(handle, fresh_dataset_id())
    finally:
        handle.stop()

    assert len(outcomes) == len(SUMCHECK_KINDS)
    for outcome in outcomes:
        assert outcome.result.accepted
        kind = outcome.descriptor.name
        words = outcome.cost.transcript_words
        # The engine observes Channel.query_cost per batch member; the
        # client observes the outcome's cost.  Both must be *exactly*
        # the accounting value — a missing observation shows up as [].
        client_h = registry.histogram("repro_client_query_words",
                                      kind=kind)
        engine_h = registry.histogram("repro_sumcheck_query_words",
                                      kind=kind)
        assert client_h.samples() == [words]
        assert engine_h.samples() == [words]
    assert registry.histogram("repro_sumcheck_round_seconds").count > 0


@pytest.mark.parametrize("backend", _BACKENDS)
def test_words_histograms_equal_query_cost_single_shot(registry,
                                                       monkeypatch,
                                                       backend):
    """One descriptor per query call — a batch of one on the engine: the
    client-side and engine-side histograms both equal
    ``transcript.total_words``."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    srv = ProverServer(F)
    handle = srv.serve_in_thread()
    try:
        host, port = handle.address
        client = ServiceClient(host, port, F, U,
                               dataset_id=fresh_dataset_id(),
                               rng=random.Random(1), op_timeout=10.0)
        with client:
            client.provision(("f2",), 1)
            client.provision(("fk", 3), 1)
            client.provision(("inner-product",), 1)
            client.provision(("range-sum",), 1)
            client.send_updates(UPDATES_A)
            client.send_updates(UPDATES_B, vector=1)
            outcomes = []
            for _name, factory in SUMCHECK_KINDS:
                outcomes.extend(client.query(factory()))
    finally:
        handle.stop()

    for outcome in outcomes:
        assert outcome.result.accepted
        words = outcome.cost.transcript_words
        assert outcome.transcript.total_words == words
        for name in ("repro_client_query_words",
                     "repro_sumcheck_query_words"):
            histogram = registry.histogram(name, kind=outcome.descriptor.name)
            assert histogram.samples() == [words]


# -- the H_STATS wire frame ----------------------------------------------------


def test_h_stats_frame_roundtrip(server, registry):
    outcomes = _run_workload(server, fresh_dataset_id())
    assert all(o.result.accepted for o in outcomes)
    host, port = server.address
    client = ServiceClient(host, port, F, U,
                           dataset_id=fresh_dataset_id(),
                           rng=random.Random(2), op_timeout=10.0)
    with client:
        stats = client.stats_json()
    assert stats["node"] == "n-obs"
    assert set(stats["metrics"]) == {"counters", "gauges", "histograms"}
    assert "timeouts" in stats["server"]
    assert "rate_limited" in stats["server"]
    # The registry section reflects the server's session registry, and
    # the metrics section carries the words histograms the workload
    # above just filled (shared in-process registry).
    assert any(key.startswith("repro_client_query_words")
               for key in stats["metrics"]["histograms"])


# -- the --stats HTTP endpoint -------------------------------------------------


def _read_announce(proc, tag, deadline=30.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        parts = line.split()
        if parts[:2] == [tag, "LISTENING"]:
            return parts[2], int(parts[3])
    raise AssertionError("no %s announce from service process" % tag)


def test_stats_endpoint_serves_prometheus_text(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--stats", "0", "--node-name", "cli-n0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    try:
        host, port = _read_announce(proc, "REPRO-SERVICE")
        stats_host, stats_port = _read_announce(proc, "REPRO-STATS")
        # Put some traffic through so the exposition has instruments.
        client = ServiceClient(host, port, F, U,
                               dataset_id=fresh_dataset_id(),
                               rng=random.Random(3), op_timeout=10.0)
        with client:
            client.provision(("f2",), 1)
            client.send_updates(UPDATES_A)
            (outcome,) = client.query(f2())
        assert outcome.result.accepted
        text = obs.read_stats(stats_host, stats_port)
        assert "# TYPE" in text
        # Every non-comment line parses as "name value".
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            _name, value = line.rsplit(None, 1)
            float(value)
    finally:
        proc.terminate()
        proc.wait(timeout=10)
