"""Service throughput: sessions/sec, updates/sec, queries/sec.

Measures the prover-as-a-service subsystem end to end — real sockets,
real frames — on a clean wire, through a chaos proxy and through a
replicated cluster with node kills.  Under ``--bench-record`` results
land in ``benchmarks/BENCH_service.json`` so later PRs can track the
service's throughput trajectory.

Smoke mode (``REPRO_SERVICE_SMOKE=1`` or ``REPRO_BENCH_SMOKE=1``) runs
everything at toy sizes, keeps all correctness assertions (loadgen
sessions verify) and skips the JSON file.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random
import time

import pytest

from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY
from repro.service import ProverServer, run_load

BENCH_SERVICE_JSON = pathlib.Path(__file__).resolve().parent / (
    "BENCH_service.json"
)

SERVICE_SMOKE_ENV_VAR = "REPRO_SERVICE_SMOKE"


def service_smoke() -> bool:
    return bool(
        os.environ.get(SERVICE_SMOKE_ENV_VAR, "").strip()
        or os.environ.get("REPRO_BENCH_SMOKE", "").strip()
    )


@pytest.fixture(scope="module")
def server():
    srv = ProverServer(F)
    handle = srv.serve_in_thread()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def service_bench_recorder(request):
    records = []
    yield records
    if (records and request.config.getoption("--bench-record")
            and not service_smoke()):
        # Merge with the existing file by (measure, u) so a partial run
        # (one test) refreshes only what it re-measured, and sort
        # records + keys so a rerun diffs nothing but the numbers that
        # actually changed.
        merged = {}
        if BENCH_SERVICE_JSON.exists():
            try:
                previous = json.loads(BENCH_SERVICE_JSON.read_text())
                for record in previous.get("results", []):
                    merged[(record["measure"], record["u"])] = record
            except (ValueError, KeyError):
                pass  # corrupt/legacy file: rewrite from this session
        for record in records:
            key = (record["measure"], record["u"])
            base = dict(merged.get(key, {}))
            base.update(record)
            merged[key] = base
        payload = {
            "python": platform.python_version(),
            "numpy": HAVE_NUMPY,
            "cores": os.cpu_count(),
            "results": sorted(
                merged.values(), key=lambda r: (r["measure"], r["u"])
            ),
        }
        BENCH_SERVICE_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def test_service_session_throughput(server, service_bench_recorder):
    """Full sessions (connect, provision, stream, batched + single
    queries, verify, disconnect) per second."""
    if service_smoke():
        u, sessions, updates, concurrency = 1 << 8, 2, 100, 2
    else:
        u, sessions, updates, concurrency = 1 << 14, 8, 5000, 4
    host, port = server.address
    report = run_load(host, port, F, u, sessions=sessions,
                      updates_per_session=updates, concurrency=concurrency,
                      seed=7)
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run
    record = {"measure": "service_load", "u": u,
              "concurrency": concurrency, **report.as_record()}
    service_bench_recorder.append(record)
    print("\nservice load: %.1f sessions/s, %.0f updates/s, %.1f queries/s"
          % (report.sessions_per_second, report.updates_per_second,
             report.queries_per_second))


def test_service_chaos_throughput(server, service_bench_recorder):
    """The loadgen pointed through a 10% fault-rate chaos proxy.

    The acceptance bar from the fault-tolerance work: every query still
    verifies with *zero* client-visible protocol errors — the report's
    retry/refusal/reconnect tallies and p50/p99 latency land in
    ``BENCH_service.json`` so the cost of riding out faults is tracked
    alongside the clean-path throughput.
    """
    from repro.service import ChaosProxy, RetryPolicy
    from repro.service.faults import (
        KIND_CORRUPT,
        KIND_DELAY,
        KIND_DROP,
        SeededSchedule,
    )

    if service_smoke():
        u, sessions, updates, concurrency = 1 << 8, 2, 60, 2
    else:
        u, sessions, updates, concurrency = 1 << 12, 6, 1000, 3
    # 10% of frames faulted; mostly delays, with genuinely disruptive
    # drops/corruption on ~2% of frames.
    schedule = SeededSchedule(
        seed=3, rate=0.10, kinds=(KIND_DELAY,) * 8 + (KIND_DROP, KIND_CORRUPT),
        delay=0.001, stall=0.05,
    )
    proxy = ChaosProxy(*server.address, schedule=schedule)
    handle = proxy.serve_in_thread()
    try:
        host, port = handle.address
        report = run_load(
            host, port, F, u, sessions=sessions,
            updates_per_session=updates, concurrency=concurrency, seed=9,
            dataset_base=500,
            client_kwargs={
                "retry": RetryPolicy(max_attempts=40, base_delay=0.003,
                                     max_delay=0.02),
                "op_timeout": 10.0,
            },
        )
    finally:
        handle.stop()
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run
    assert proxy.faults_injected > 0
    record = {"measure": "service_load_chaos", "u": u,
              "concurrency": concurrency, "fault_rate": 0.10,
              "faults_injected": proxy.faults_injected,
              **report.as_record()}
    service_bench_recorder.append(record)
    print("\nchaos load: %d faults, %d retries, %d reconnects, "
          "p50 %.3fs p99 %.3fs, %d errors"
          % (proxy.faults_injected, report.retries, report.reconnects,
             report.p50_latency, report.p99_latency, len(report.failures)))


def test_cluster_load_node_kills(service_bench_recorder, tmp_path):
    """The headline cluster record: a replicated 3-node cluster behind
    the consistent-hash router, with two seeded node kills mid-run and
    the supervisor healing in the background — zero client-visible
    errors while real nodes die.

    Full mode runs real ``python -m repro.service`` subprocesses
    (SIGKILL, restart from periodic snapshot, peer resync); smoke mode
    uses in-process thread nodes to stay fast.
    """
    from repro.service import (
        ClusterNode,
        ClusterRouter,
        NodeSupervisor,
        ProcessNodeManager,
        RetryPolicy,
        ThreadNodeManager,
        run_cluster_load,
    )

    seed = int(os.environ.get("REPRO_CLUSTER_SEED", "0"))
    if service_smoke():
        u, sessions, updates, concurrency = 1 << 8, 4, 200, 2
        manager = ThreadNodeManager(F, snapshot_dir=str(tmp_path))
    else:
        u, sessions, updates, concurrency = 1 << 12, 12, 2000, 3
        manager = ProcessNodeManager(
            F, snapshot_dir=str(tmp_path),
            extra_args=["--snapshot-interval", "0.2"],
        )
    node_ids = ["b0", "b1", "b2"]
    nodes = [
        ClusterNode(node_id, *manager.add_node(node_id))
        for node_id in node_ids
    ]
    router = ClusterRouter(F, nodes, replication_factor=2,
                           heartbeat_interval=0.05, backend_timeout=5.0)
    handle = router.serve_in_thread()
    supervisor = NodeSupervisor(handle, manager, F, poll_interval=0.05)
    supervisor.start()
    try:
        victims = random.Random(seed).sample(node_ids, 2)

        def kill_when_healed(victim):
            # Replication factor 2: overlapping kills could take out a
            # dataset's last in-sync holder, so the second kill waits
            # for the first heal to land.
            deadline = time.monotonic() + 15.0
            while (supervisor.heals < 1
                   or set(handle.health_view().values()) != {"alive"}) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            manager.kill(victim)

        report = run_cluster_load(
            *handle.address, F, u,
            nodes=len(nodes), replication_factor=2,
            kill_schedule=[
                (0.05, lambda: manager.kill(victims[0])),
                (0.20, lambda: kill_when_healed(victims[1])),
            ],
            sessions=sessions, updates_per_session=updates,
            concurrency=concurrency, seed=seed + 1, dataset_base=9000,
            client_kwargs={
                "retry": RetryPolicy(max_attempts=60, base_delay=0.01,
                                     max_delay=0.08),
                "op_timeout": 10.0,
            },
        )
        report.failovers = handle.stats()["failovers"]
        report.resyncs = supervisor.resyncs
        # The scenario ends with every node healed and back on the ring.
        deadline = time.monotonic() + 15.0
        while set(handle.health_view().values()) != {"alive"}:
            assert time.monotonic() < deadline, handle.health_view()
            time.sleep(0.05)
    finally:
        supervisor.stop()
        handle.stop()
        manager.stop_all()
    assert not report.failures, report.failures
    assert report.queries_verified == report.queries_run > 0
    record = {"measure": "cluster_load_kills", "u": u,
              "concurrency": concurrency, "kill_seed": seed,
              "restarts": supervisor.restarts, **report.as_record()}
    service_bench_recorder.append(record)
    print("\ncluster load: %d nodes x%d, %d kills, %d failovers, "
          "%d resyncs, %.0f updates/s, %d errors"
          % (report.nodes, report.replication_factor, report.node_kills,
             report.failovers, report.resyncs, report.updates_per_second,
             len(report.failures)))
