"""Load generator: many concurrent client sessions against one service.

Drives the full client lifecycle — connect, provision, stream, query,
verify, disconnect — from ``concurrency`` OS threads (the blocking
client pairs naturally with threads; the asyncio server interleaves all
of them on one loop), and reports service-level throughput:
sessions/sec, updates/sec, queries/sec, words and bytes on the wire.

This is the demo workload (``examples/service_quickstart.py``) and the
driver of the service's load, chaos and cluster acceptance tests.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.field.modular import PrimeField
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.router import QueryDescriptor, QueryRouter
from repro.streams.generators import key_value_pairs


@dataclass
class LoadReport:
    """Aggregate results of one load-generation run."""

    sessions: int
    #: Updates the completed sessions streamed themselves; a session that
    #: replayed a shared dataset, or failed, adds none.
    updates_sent: int
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
    #: Fault-tolerance tallies summed over all sessions' clients.
    retries: int = 0
    refusals: int = 0
    reconnects: int = 0
    #: Cluster-run fields (zero on single-node runs).
    nodes: int = 0
    replication_factor: int = 0
    failovers: int = 0
    resyncs: int = 0
    node_kills: int = 0
    #: Scheduled kills that had landed by the time the load returned.
    kills_mid_run: int = 0

    @property
    def sessions_per_second(self) -> float:
        return self.sessions / self.elapsed_seconds

    @property
    def updates_per_second(self) -> float:
        return self.updates_sent / self.elapsed_seconds

    @property
    def queries_per_second(self) -> float:
        return self.queries_run / self.elapsed_seconds


def session_workload(
    client: ServiceClient,
    updates: int,
    queries: List[QueryDescriptor],
    rng: random.Random,
    latency_sink: Optional[List[float]] = None,
) -> List:
    """One session's life: stream a KV workload, then verify queries."""
    pairs = key_value_pairs(client.u, min(updates, client.u // 2), rng=rng)
    encoded = [(k, v + 1) for k, v in pairs]
    # Top up with repeat-visit updates when the universe bounds the
    # number of distinct keys below the requested update count.
    while len(encoded) < updates:
        k, _v = pairs[rng.randrange(len(pairs))]
        encoded.append((k, 1))
    client.send_updates(encoded[:updates])
    return _timed_query(client, queries, latency_sink)


def _timed_query(client, queries, latency_sink):
    t0 = time.perf_counter()
    outcomes = client.query(*queries)
    if latency_sink is not None:
        latency_sink.append(time.perf_counter() - t0)
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
        "updates": 0,
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
        try:
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
                    sent = 0
                    outcomes = _timed_query(client, queries,
                                            session_latencies)
                else:
                    outcomes = session_workload(
                        client, updates_per_session, queries, rng,
                        latency_sink=session_latencies,
                    )
                    sent = client.updates_streamed
            with lock:
                totals["updates"] += sent
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
        updates_sent=totals["updates"],
        elapsed_seconds=elapsed,
        queries_run=totals["queries_run"],
        queries_verified=totals["queries_verified"],
        transcript_words=totals["words"],
        bytes_sent=totals["sent"],
        bytes_received=totals["received"],
        failures=failures,
        query_latencies=latencies,
        retries=totals["retries"],
        refusals=totals["refusals"],
        reconnects=totals["reconnects"],
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
