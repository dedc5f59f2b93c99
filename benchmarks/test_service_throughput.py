"""Service throughput: sessions/sec, updates/sec, worker-pool speedup.

Measures the prover-as-a-service subsystem end to end — real sockets,
real frames — and the worker-pool execution mode's wall-clock gain over
the sequential sharded coordinator.  Under ``--bench-record`` results
land in ``benchmarks/BENCH_service.json`` so later PRs can track the
service's throughput trajectory.

Smoke mode (``REPRO_SERVICE_SMOKE=1`` or ``REPRO_BENCH_SMOKE=1``) runs
everything at toy sizes, keeps all correctness assertions (loadgen
sessions verify, pooled transcripts byte-identical) and skips both the
wall-clock bars and the JSON file.  The > 1.5x pool-speedup bar
additionally requires >= 4 physical cores — thread-level Map-Reduce
cannot beat 1.5x on fewer.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random
import time

import pytest

from repro.comm.channel import Channel
from repro.core.base import pow2_dimension
from repro.core.f2 import F2Verifier, run_f2
from repro.distributed.sharded import DistributedF2Prover
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.service import (
    PooledDistributedF2Prover,
    ProcessPooledDistributedF2Prover,
    ProverServer,
    run_load,
)
from repro.streams.generators import uniform_frequency_stream

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
        # (one test, one mode leg) refreshes only what it re-measured,
        # and sort records + keys so a rerun diffs nothing but the
        # numbers that actually changed.
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


def test_worker_pool_wallclock_speedup(service_bench_recorder):
    """Worker-pool prover vs the sequential sharded coordinator.

    Transcripts must be byte-identical at any size; the > 1.5x
    wall-clock bar applies only at full size on >= 4 cores (NumPy's
    GIL-releasing kernels cannot overlap meaningfully below that).
    """
    if not HAVE_NUMPY:
        pytest.skip("worker-pool speedup needs the vectorized backend")
    u = 1 << 12 if service_smoke() else 1 << 21
    workers = 8
    stream = uniform_frequency_stream(u, max_frequency=1000,
                                      rng=random.Random(11))
    updates = list(stream.updates())
    point = F.rand_vector(random.Random(13), pow2_dimension(u))

    def drive(prover):
        verifier = F2Verifier(F, u, point=point)
        verifier.lde.process_stream_batched(updates)
        channel = Channel()
        start = time.perf_counter()
        result = run_f2(prover, verifier, channel)
        elapsed = time.perf_counter() - start
        assert result.accepted
        return elapsed, channel.transcript

    sequential = DistributedF2Prover(F, u, num_workers=workers)
    sequential.process_stream(updates)
    t_seq, tx_seq = drive(sequential)

    with PooledDistributedF2Prover(F, u, num_workers=workers) as pooled:
        pooled.process_stream(updates)
        t_pool, tx_pool = drive(pooled)

    assert tx_seq.messages == tx_pool.messages  # byte-identical proof
    speedup = t_seq / t_pool if t_pool else float("inf")
    cores = os.cpu_count() or 1
    service_bench_recorder.append({
        "measure": "worker_pool_f2",
        "u": u,
        "pool_mode": "thread",
        "workers": workers,
        "cores": cores,
        "seconds_sequential": t_seq,
        "seconds_pooled": t_pool,
        "speedup": speedup,
    })
    print("\nworker pool: %.3fs sequential vs %.3fs pooled (%.2fx, %d cores)"
          % (t_seq, t_pool, speedup, cores))
    if not service_smoke() and cores >= 4:
        assert speedup > 1.5, (
            "worker pool only %.2fx faster on %d cores" % (speedup, cores)
        )


def test_process_pool_wallclock_speedup(service_bench_recorder):
    """Shared-memory process-pool prover vs the inline coordinator, on
    the *scalar* backend — the case threads cannot win (every fold is
    Python-level, so a thread pool serialises on the GIL while the
    process pool scales with cores).

    Transcripts must be byte-identical at any size; the > 2x wall-clock
    bar applies only at full size on >= 4 cores (the 4-vCPU CI leg).
    """
    u = 1 << 11 if service_smoke() else 1 << 22
    workers = 8
    backend = get_backend(F, "scalar")
    stream = uniform_frequency_stream(u, max_frequency=1000,
                                      rng=random.Random(17))
    updates = list(stream.updates())
    point = F.rand_vector(random.Random(19), pow2_dimension(u))

    def drive(prover):
        verifier = F2Verifier(F, u, point=point)
        verifier.lde.process_stream_batched(updates)
        channel = Channel()
        start = time.perf_counter()
        result = run_f2(prover, verifier, channel)
        elapsed = time.perf_counter() - start
        assert result.accepted
        return elapsed, channel.transcript

    inline = DistributedF2Prover(F, u, num_workers=workers, backend=backend)
    inline.process_stream(updates)
    t_inline, tx_inline = drive(inline)

    with ProcessPooledDistributedF2Prover(
        F, u, num_workers=workers, backend=backend
    ) as pooled:
        # Pay the spawn + import cost outside the timed window: a real
        # service reuses its pool across queries.
        pooled.warm_up()
        pooled.process_stream(updates)
        t_proc, tx_proc = drive(pooled)
        assert pooled.effective_mode == "process", pooled.effective_mode
        max_procs = pooled.max_procs

    assert tx_inline.messages == tx_proc.messages  # byte-identical proof
    speedup = t_inline / t_proc if t_proc else float("inf")
    cores = os.cpu_count() or 1
    service_bench_recorder.append({
        "measure": "process_pool_f2",
        "u": u,
        "pool_mode": "process",
        "backend": "scalar",
        "workers": workers,
        "max_procs": max_procs,
        "cores": cores,
        "seconds_inline": t_inline,
        "seconds_process": t_proc,
        "speedup": speedup,
    })
    print("\nprocess pool: %.3fs inline vs %.3fs process (%.2fx, %d cores)"
          % (t_inline, t_proc, speedup, cores))
    if not service_smoke() and cores >= 4:
        assert speedup > 2.0, (
            "process pool only %.2fx faster on %d cores" % (speedup, cores)
        )


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
