"""Load generator: many concurrent client sessions against one service.

Drives the full client lifecycle — connect, provision, stream, query,
verify, disconnect — from ``concurrency`` OS threads (the blocking
client pairs naturally with threads; the asyncio server interleaves all
of them on one loop), and reports service-level throughput:
sessions/sec, updates/sec, queries/sec, words and bytes on the wire.

This is both the demo workload (``examples/service_quickstart.py``) and
the measurement harness behind ``benchmarks/BENCH_service.json``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.field.modular import PrimeField
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.router import QueryDescriptor, QueryRouter
from repro.streams.generators import key_value_pairs


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


#: Session-lifecycle phases broken out in :meth:`LoadReport.as_record`:
#: ``dial`` (connect + provision + replay), ``update`` (streaming),
#: ``query`` (whole verified query call) and ``verify`` (the query call
#: minus time spent waiting on the wire — the client-side LDE/check
#: work).
PHASES = ("dial", "update", "query", "verify")


@dataclass
class LoadReport:
    """Aggregate results of one load-generation run."""

    sessions: int
    updates_per_session: int
    elapsed_seconds: float
    queries_run: int
    queries_verified: int
    transcript_words: int
    bytes_sent: int
    bytes_received: int
    failures: List[str] = dataclass_field(default_factory=list)
    #: Wall-clock seconds per ``client.query()`` call (one sample per
    #: call, faults and retries included — tail latency is the point).
    query_latencies: List[float] = dataclass_field(default_factory=list)
    #: Per-phase samples (:data:`PHASES`), one list per phase; empty
    #: phases are omitted from :meth:`as_record`.
    phase_latencies: Dict[str, List[float]] = dataclass_field(
        default_factory=dict)
    #: Fault-tolerance tallies summed over all sessions' clients.
    retries: int = 0
    refusals: int = 0
    reconnects: int = 0
    #: Cluster-run fields (zero on single-node runs and omitted from
    #: :meth:`as_record`, keeping the chaos record schema unchanged).
    nodes: int = 0
    replication_factor: int = 0
    failovers: int = 0
    resyncs: int = 0
    node_kills: int = 0
    #: Scheduled kills that had landed by the time the load returned.
    kills_mid_run: int = 0
    #: The host's core count, so the perf trajectory in
    #: BENCH_service.json distinguishes 1-core from multicore hosts.
    cores: int = 0

    @property
    def sessions_per_second(self) -> float:
        return self.sessions / self.elapsed_seconds

    @property
    def updates_per_second(self) -> float:
        return self.sessions * self.updates_per_session / self.elapsed_seconds

    @property
    def queries_per_second(self) -> float:
        return self.queries_run / self.elapsed_seconds

    @property
    def p50_latency(self) -> float:
        return _percentile(self.query_latencies, 0.50)

    @property
    def p95_latency(self) -> float:
        return _percentile(self.query_latencies, 0.95)

    @property
    def p99_latency(self) -> float:
        return _percentile(self.query_latencies, 0.99)

    def as_record(self) -> Dict:
        record = {
            "sessions": self.sessions,
            "updates_per_session": self.updates_per_session,
            "elapsed_seconds": self.elapsed_seconds,
            "sessions_per_sec": self.sessions_per_second,
            "updates_per_sec": self.updates_per_second,
            "queries_per_sec": self.queries_per_second,
            "queries_run": self.queries_run,
            "queries_verified": self.queries_verified,
            "transcript_words": self.transcript_words,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "query_p50_seconds": self.p50_latency,
            "query_p95_seconds": self.p95_latency,
            "query_p99_seconds": self.p99_latency,
            "retries": self.retries,
            "refusals": self.refusals,
            "reconnects": self.reconnects,
            "errors": len(self.failures),
            "cores": self.cores or (os.cpu_count() or 1),
        }
        # Additive keys only: consumers of the pre-phase schema read
        # the record unchanged.
        for phase in PHASES:
            samples = self.phase_latencies.get(phase) or []
            if samples:
                record["phase_%s_p50_seconds" % phase] = \
                    _percentile(samples, 0.50)
                record["phase_%s_p95_seconds" % phase] = \
                    _percentile(samples, 0.95)
                record["phase_%s_p99_seconds" % phase] = \
                    _percentile(samples, 0.99)
        if self.nodes:
            record.update({
                "nodes": self.nodes,
                "replication_factor": self.replication_factor,
                "failovers": self.failovers,
                "resyncs": self.resyncs,
                "node_kills": self.node_kills,
            })
        return record


def session_workload(
    client: ServiceClient,
    updates: int,
    queries: List[QueryDescriptor],
    rng: random.Random,
    latency_sink: Optional[List[float]] = None,
    phase_sink: Optional[Dict[str, List[float]]] = None,
) -> List:
    """One session's life: stream a KV workload, then verify queries."""
    pairs = key_value_pairs(client.u, min(updates, client.u // 2), rng=rng)
    encoded = [(k, v + 1) for k, v in pairs]
    # Top up with repeat-visit updates when the universe bounds the
    # number of distinct keys below the requested update count.
    while len(encoded) < updates:
        k, _v = pairs[rng.randrange(len(pairs))]
        encoded.append((k, 1))
    t0 = time.perf_counter()
    client.send_updates(encoded[:updates])
    if phase_sink is not None:
        phase_sink.setdefault("update", []).append(
            time.perf_counter() - t0)
    return _timed_query(client, queries, latency_sink, phase_sink)


def _timed_query(client, queries, latency_sink, phase_sink=None):
    wire0 = getattr(client, "wire_seconds", 0.0)
    t0 = time.perf_counter()
    outcomes = client.query(*queries)
    total = time.perf_counter() - t0
    if latency_sink is not None:
        latency_sink.append(total)
    if phase_sink is not None:
        phase_sink.setdefault("query", []).append(total)
        # Verify-side work = the query call minus its wire waits: what
        # the *client's* CPU spent interpolating, folding and checking.
        wire = getattr(client, "wire_seconds", 0.0) - wire0
        phase_sink.setdefault("verify", []).append(max(0.0, total - wire))
    return outcomes


def run_load(
    host: str,
    port: int,
    field: PrimeField,
    u: int,
    sessions: int = 4,
    updates_per_session: int = 1000,
    concurrency: int = 4,
    queries: Optional[List[QueryDescriptor]] = None,
    seed: int = 0,
    shared_dataset: bool = False,
    dataset_base: int = 1,
    client_kwargs: Optional[Dict] = None,
) -> LoadReport:
    """Run ``sessions`` full client sessions and aggregate throughput.

    With ``shared_dataset=False`` (the default) every session writes its
    own dataset — the pure-throughput configuration.  With
    ``shared_dataset=True`` all sessions attach to one dataset and only
    the first writes; the rest replay the shared stream (the
    many-verifiers-one-pass configuration), so run it with
    ``concurrency=1`` to keep writer/reader order deterministic.

    ``dataset_base`` offsets the per-session dataset ids (session ``i``
    writes dataset ``dataset_base + i``); pick a fresh base when the
    target service already holds datasets.

    ``client_kwargs`` forwards extra keyword arguments to every
    :class:`ServiceClient` — the knob for running the workload with a
    custom :class:`~repro.service.client.RetryPolicy` or timeouts, e.g.
    when pointed through a :class:`~repro.service.faults.ChaosProxy`.
    """
    if queries is None:
        queries = [
            QueryDescriptor.from_words(w)
            for w in ([3, 2, 0, u // 2], [4, 0], [3, 2, u // 4, u - 1])
        ]
    lock = threading.Lock()
    totals = {
        "queries_run": 0,
        "queries_verified": 0,
        "words": 0,
        "sent": 0,
        "received": 0,
        "retries": 0,
        "refusals": 0,
        "reconnects": 0,
    }
    failures: List[str] = []
    latencies: List[float] = []
    phases: Dict[str, List[float]] = {}
    extra_kwargs = dict(client_kwargs or {})
    # Pools follow the *plan*, not the raw descriptors: a mixed
    # sum-check batch consumes one copy from the ("batch",) pool
    # instead of one per family.  A retried conversation takes a new
    # copy, so each unit gets one per attempt its retry policy allows.
    attempts = (extra_kwargs.get("retry") or RetryPolicy()).max_attempts
    pool_spec: Dict = {}
    for unit in QueryRouter.plan(queries):
        pool_spec[unit.pool_key] = pool_spec.get(unit.pool_key, 0) + attempts

    def one_session(index: int) -> None:
        rng = random.Random(seed * 10007 + index)
        session_latencies: List[float] = []
        session_phases: Dict[str, List[float]] = {}
        try:
            dial_t0 = time.perf_counter()
            client = ServiceClient(
                host,
                port,
                field,
                u,
                dataset_id=dataset_base if shared_dataset
                else dataset_base + index,
                rng=rng,
                **extra_kwargs,
            )
            with client:
                for key, copies in pool_spec.items():
                    client.provision(key, copies)
                if shared_dataset and client.missed_updates:
                    client.replay_missed()
                    session_phases.setdefault("dial", []).append(
                        time.perf_counter() - dial_t0)
                    outcomes = _timed_query(
                        client, queries, session_latencies,
                        session_phases,
                    )
                else:
                    session_phases.setdefault("dial", []).append(
                        time.perf_counter() - dial_t0)
                    outcomes = session_workload(
                        client, updates_per_session, queries, rng,
                        latency_sink=session_latencies,
                        phase_sink=session_phases,
                    )
            with lock:
                totals["queries_run"] += len(outcomes)
                totals["queries_verified"] += sum(
                    1 for o in outcomes if o.result.accepted
                )
                totals["words"] += sum(
                    o.cost.transcript_words for o in outcomes
                )
                totals["sent"] += client.bytes_sent
                totals["received"] += client.bytes_received
                totals["retries"] += client.retries
                totals["refusals"] += client.refusals
                totals["reconnects"] += client.reconnects
                latencies.extend(session_latencies)
                for phase, samples in session_phases.items():
                    phases.setdefault(phase, []).extend(samples)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with lock:
                failures.append("session %d: %r" % (index, exc))

    start = time.perf_counter()
    if concurrency <= 1:
        for index in range(sessions):
            one_session(index)
    else:
        threads = []
        for index in range(sessions):
            t = threading.Thread(target=one_session, args=(index,))
            threads.append(t)
            t.start()
            if len(threads) >= concurrency:
                for t in threads:
                    t.join()
                threads = []
        for t in threads:
            t.join()
    elapsed = time.perf_counter() - start

    return LoadReport(
        sessions=sessions,
        updates_per_session=updates_per_session,
        elapsed_seconds=elapsed,
        queries_run=totals["queries_run"],
        queries_verified=totals["queries_verified"],
        transcript_words=totals["words"],
        bytes_sent=totals["sent"],
        bytes_received=totals["received"],
        failures=failures,
        query_latencies=latencies,
        phase_latencies=phases,
        retries=totals["retries"],
        refusals=totals["refusals"],
        reconnects=totals["reconnects"],
        cores=os.cpu_count() or 1,
    )


def run_cluster_load(
    host: str,
    port: int,
    field: PrimeField,
    u: int,
    nodes: int,
    replication_factor: int,
    kill_schedule: Optional[List] = None,
    **load_kwargs,
) -> LoadReport:
    """:func:`run_load` against a cluster router, with scheduled kills.

    The client-side workload is *identical* to the single-node one (the
    router speaks the same protocol), which is the whole test: sessions
    must see zero errors while nodes die underneath them.

    ``kill_schedule`` is a list of ``(delay_seconds, action)`` pairs;
    each ``action`` (e.g. a proxy blackout, a ``manager.kill``) fires on
    its own timer ``delay_seconds`` after the workload starts, and
    ``kills_mid_run`` counts those that returned before the load did.
    The caller stamps router/supervisor tallies (``failovers``/
    ``resyncs``) onto the returned report afterwards — the load
    generator itself stays ignorant of cluster internals.
    """
    kill_schedule = list(kill_schedule or [])
    landed: List[int] = []  # list.append is atomic across the timers

    def fire(index: int, action) -> None:
        action()
        landed.append(index)

    timers = [
        threading.Timer(delay, fire, (index, action))
        for index, (delay, action) in enumerate(kill_schedule)
    ]
    for timer in timers:
        timer.start()
    try:
        report = run_load(host, port, field, u, **load_kwargs)
        kills_mid_run = len(landed)
    finally:
        # A timer cancelled before it is due never fires; one already
        # firing is waited for.  A run that finishes early still
        # executes every kill the scenario promised.
        for timer in timers:
            timer.cancel()
            timer.join()
        for index, (_delay, action) in enumerate(kill_schedule):
            if index not in landed:
                action()
    report.nodes = nodes
    report.replication_factor = replication_factor
    report.node_kills = len(kill_schedule)
    report.kills_mid_run = kills_mid_run
    return report
