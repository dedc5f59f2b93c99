"""Prover-as-a-service: the paper's outsourcing model as a real service.

The repo's protocols verify outsourced computation — yet as library
calls, prover and verifier live in one process.  This package gives them
the service boundary the paper describes (a weak client streaming to a
powerful server and verifying its answers):

* :mod:`repro.service.protocol` — versioned binary frames over TCP,
  payloads in the :mod:`repro.comm.wire` word encoding, and the prover
  step table both ends are derived from (:mod:`repro.service.wiredoc`
  renders both as ``docs/WIRE.md``);
* :mod:`repro.service.transport` — the one place bytes cross a socket:
  the async and the blocking frame link, and the listener lifecycle the
  node, the router and the chaos proxy inherit;
* :mod:`repro.service.router` — declarative query descriptors routed
  onto the matching ``core/`` protocol: every sum-check descriptor of a
  request (F2, Fk, INNER-PRODUCT, RANGE-SUM — a lone one as a batch of
  one) runs on the direct-sum batched engine, every other kind
  single-shot; ``f2(workers=w)`` runs the Section 7 sharded
  coordinator (:mod:`repro.distributed.sharded`) over ``w`` slices of
  the dataset's table, transcript equal to plain ``f2()``;
* :mod:`repro.service.registry` — server-side datasets shared across
  sessions (one server pass, many independent verifiers) and per-query
  prover snapshots;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio prover server and the thin blocking verifier client whose
  prover proxies exchange real frames per protocol round;
* :mod:`repro.service.loadgen` — many concurrent sessions, measured:
  sessions, updates and verified queries per second, query latencies;
* :mod:`repro.service.ring` / :mod:`repro.service.cluster` /
  :mod:`repro.service.supervisor` — the self-healing replicated
  cluster: a consistent-hash router fanning updates to every replica
  and failing queries over between nodes, plus the supervisor that
  restarts dead nodes from snapshots and resyncs their missed update
  tails from peers before readmitting them.

Observability (:mod:`repro.obs`) threads through every layer: trace ids
ride a version-2 frame-header extension end to end, a
process-wide metrics registry counts retries/failovers/refusals and
times proof rounds, and every recovery decision point emits a structured
JSON log line — with the transcript bytes provably unchanged whether
instrumentation is on or off.
"""

from repro.service.client import (
    NO_RETRY,
    QueryCost,
    QueryOutcome,
    RetryPolicy,
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceUnavailableError,
)
from repro.service.cluster import ClusterNode, ClusterRouter, RouterHandle
from repro.service.faults import (
    BlackoutSchedule,
    ChaosProxy,
    Fault,
    FaultSchedule,
)
from repro.service.loadgen import (
    LoadReport,
    run_cluster_load,
    run_load,
)
from repro.service.protocol import ServiceProtocolError
from repro.service.registry import AdmissionError, SessionRegistry
from repro.service.ring import HashRing
from repro.service.router import (
    QueryDescriptor,
    QueryRouter,
    RoutingError,
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
from repro.service.server import ProverServer, ServiceError
from repro.service.supervisor import (
    NodeSupervisor,
    ProcessNodeManager,
    SupervisorError,
    ThreadNodeManager,
)


def resolve_pool_mode() -> str:
    # bench/run.py (frozen) imports this name to print its header; the
    # sharded coordinator runs its workers inline, the only plane left.
    return "inline"


__all__ = [
    "AdmissionError",
    "BlackoutSchedule",
    "ChaosProxy",
    "ClusterNode",
    "ClusterRouter",
    "Fault",
    "FaultSchedule",
    "HashRing",
    "LoadReport",
    "NO_RETRY",
    "NodeSupervisor",
    "ProcessNodeManager",
    "ProverServer",
    "QueryCost",
    "QueryDescriptor",
    "QueryOutcome",
    "QueryRouter",
    "RetryPolicy",
    "RouterHandle",
    "RoutingError",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceUnavailableError",
    "SessionRegistry",
    "SupervisorError",
    "ThreadNodeManager",
    "f2",
    "fk",
    "heavy_hitters",
    "inner_product",
    "k_largest",
    "point_lookup",
    "predecessor",
    "range_scan",
    "range_sum",
    "resolve_pool_mode",
    "run_cluster_load",
    "run_load",
    "successor",
]
