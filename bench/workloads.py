"""Workload definitions: sizes, update streams and request schedules.

Everything here is a pure function of ``(workload, seed, smoke)``: the
runner calls :func:`build` once and replays the result as R identical
passes.  The program under test only ever sees the generated updates and
descriptors.

Why the streams look the way they do.  The protocol costs the benchmark
reports as *exact* (words, wire bytes, verifier space) depend on the data
in two places only: a SUB-VECTOR answer lists the nonzero keys of its
range, and a heavy-hitters proof lists the heavy nodes of every level.
So the final frequency vector of every dataset is the workload's
*definition* — a Zipf profile rounded deterministically, see
:func:`zipf_profile` — and the seed draws everything else: the arrival
order, the insert-then-delete churn, every query range and lookup key,
the schedule order and the verifiers' randomness.  Range scans read
aligned blocks inside the profile's dense head and point lookups hit a
fixed quota of present and absent keys, which makes their word counts
seed-independent as well.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.service import (
    QueryRouter,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    point_lookup,
    range_scan,
    range_sum,
)

Pairs = List[Tuple[int, int]]

ZIPF_SKEW = 1.1
DELETION_SHARE = 0.10
SCAN_WIDTH = 32

#: Request mix of the analytic workloads (share of request slots), after
#: the aggregates-over-range-predicates shape of Johnson et al.  Fk(3) is
#: the slowest kind; at 7 % the 95th percentile sits inside its plateau of
#: near-equal slot times instead of on the edge between two kinds, where
#: one noisy slot would move it.
ANALYTIC_MIX = (
    ("range_sum", 0.55),
    ("point_lookup", 0.20),
    ("range_scan", 0.10),
    ("f2", 0.08),
    ("fk3", 0.07),
)


@dataclass(frozen=True)
class Spec:
    """One workload's shape.  ``smoke`` sizes keep every code path."""

    name: str
    transport: str              # "inproc" | "service" | "cluster"
    log_u: int
    updates_a: int              # per dataset, vector a
    updates_b: int              # per dataset, vector b (INNER-PRODUCT operand)
    requests: Tuple[int, ...]   # request slots per dataset (skewed popularity)
    mix: str                    # "analytic" | "kernels" | "ingest"
    ingest_chunk: int           # updates per timed send_updates slot
    joiners: int                # late-joining verifiers per dataset
    ingest_repeats: int         # load phases (stream + join) per pass
    passes: int                 # R at the default --seconds
    restart_nodes: bool         # fresh server state for every pass
    why: str


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("inproc_large", "inproc", 20, 200_000, 50_000, (9,),
             "kernels", 50_000, 1, 2, 10, True,
             "no sockets, u=2^20: field/lde/core do all the work, so kernel "
             "and single-engine changes show here and nowhere else"),
        Spec("svc_analytic", "service", 12, 5_000, 0, (120, 90, 60, 30),
             "analytic", 1_000, 3, 1, 8, False,
             "one node over TCP, u=2^12: frames, asyncio dispatch and "
             "per-round RTT are most of a query, kernels are not"),
        Spec("svc_ingest", "service", 17, 150_000, 0, (10, 10),
             "ingest", 25_000, 2, 1, 6, True,
             "writes and replay beside heavy reads: a read-path gain that "
             "taxes send_updates, the replay log or memory shows here"),
        Spec("cluster_small", "cluster", 12, 5_000, 0, (90, 70, 50),
             "analytic", 1_000, 3, 1, 6, False,
             "svc_analytic's traffic through a 3-node rf=2 router, so the "
             "difference to svc_analytic is the cluster layer"),
    )
}

SMOKE = {
    "inproc_large": dict(log_u=12, updates_a=4_000, updates_b=1_000,
                         ingest_chunk=1_000, passes=2),
    "svc_analytic": dict(log_u=10, updates_a=1_000, requests=(20, 10),
                         ingest_chunk=1_000, passes=2),
    "svc_ingest": dict(log_u=11, updates_a=4_000, ingest_chunk=1_000,
                       passes=2),
    "cluster_small": dict(log_u=10, updates_a=1_000, requests=(20, 10),
                          ingest_chunk=1_000, passes=2),
}


def spec_for(name: str, smoke: bool = False) -> Spec:
    spec = WORKLOADS[name]
    return dataclasses.replace(spec, **SMOKE[name]) if smoke else spec


# -- streams -------------------------------------------------------------------


def zipf_profile(u: int, mass: int) -> np.ndarray:
    """Final frequency of every key: ``mass`` occurrences spread over
    ``[0, u)`` by Zipf(ZIPF_SKEW) on rank = key + 1.

    Rounded by differencing the floored cumulative mass, so the counts
    sum to ``mass`` exactly, the heavy head is dense and the tail keeps
    its singletons — with no random draw anywhere.
    """
    weights = np.arange(1, u + 1, dtype=np.float64) ** -ZIPF_SKEW
    cumulative = np.cumsum(weights * (mass / weights.sum()))
    cumulative[-1] = mass
    return np.diff(np.floor(cumulative), prepend=0.0).astype(np.int64)


def turnstile_stream(profile: np.ndarray, n_updates: int,
                     rng: np.random.Generator) -> Pairs:
    """``n_updates`` strict-turnstile updates folding to ``profile``.

    ``profile.sum()`` unit inserts in random order, plus the churn: each
    of the remaining updates is half of an insert-then-delete pair on a
    Zipf-drawn key, so deletions make up DELETION_SHARE of the stream and
    no frequency ever goes negative.
    """
    base = int(profile.sum())
    dels = (n_updates - base) // 2
    keys = np.repeat(np.arange(len(profile)), profile)
    churn_keys = rng.choice(keys, dels)
    churn_deltas = rng.integers(1, 4, dels)
    inserted_at = rng.random(dels)
    deleted_at = inserted_at + (1.0 - inserted_at) * rng.random(dels)
    when = np.concatenate([rng.random(base), inserted_at, deleted_at])
    all_keys = np.concatenate([keys, churn_keys, churn_keys])
    all_deltas = np.concatenate(
        [np.ones(base, dtype=np.int64), churn_deltas, -churn_deltas])
    order = np.argsort(when, kind="stable")
    return list(zip(all_keys[order].tolist(), all_deltas[order].tolist()))


def _base_mass(n_updates: int) -> int:
    return n_updates - 2 * int(n_updates * DELETION_SHARE)


# -- requests ------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request slot: descriptors sent in one ``query()`` call, which
    the router plans into exactly one protocol execution."""

    dataset: int
    kind: str
    descriptors: tuple


def _quotas(total: int, mix) -> Dict[str, int]:
    """Largest-remainder apportionment of ``total`` slots over ``mix``."""
    exact = [(name, total * share) for name, share in mix]
    counts = {name: int(x) for name, x in exact}
    by_remainder = sorted(exact, key=lambda item: -(item[1] - int(item[1])))
    for name, _x in by_remainder[: total - sum(counts.values())]:
        counts[name] += 1
    return counts


class _Picker:
    """Seeded draws of query parameters over one dataset's profile."""

    def __init__(self, profile: np.ndarray, rng: random.Random):
        self.u = len(profile)
        self.rng = rng
        self.present = np.flatnonzero(profile).tolist()
        self.absent = np.flatnonzero(profile == 0).tolist()
        dense = int(np.argmin(profile > 0)) if self.absent else self.u
        self.scan_blocks = max(1, dense // SCAN_WIDTH)

    def range_of_share(self, share: float):
        width = max(1, int(self.u * share))
        lo = self.rng.randrange(self.u - width + 1)
        return range_sum(lo, lo + width - 1)

    def range(self):
        """Width log-uniform between 0.1 % and 50 % of the universe."""
        return self.range_of_share(10 ** self.rng.uniform(-3.0, math.log10(0.5)))

    def ranges(self, count: int) -> tuple:
        out: Dict = {}
        while len(out) < count:  # a query() call keys answers by descriptor
            out[self.range()] = None
        return tuple(out)

    def lookup(self, present: bool):
        return point_lookup(
            self.rng.choice(self.present if present else self.absent))

    def scan(self):
        lo = SCAN_WIDTH * self.rng.randrange(self.scan_blocks)
        return range_scan(lo, lo + SCAN_WIDTH - 1)


def _analytic_requests(dataset: int, slots: int, pick: _Picker) -> List[Request]:
    quota = _quotas(slots, ANALYTIC_MIX)
    out = []
    batched = quota["range_sum"] // 3  # sent as 4-range requests
    for index in range(quota["range_sum"]):
        if index < batched:
            out.append(Request(dataset, "range_sum_x4", pick.ranges(4)))
        else:
            out.append(Request(dataset, "range_sum", (pick.range(),)))
    absent = quota["point_lookup"] // 5
    for index in range(quota["point_lookup"]):
        out.append(Request(dataset, "point_lookup",
                           (pick.lookup(index >= absent),)))
    out += [Request(dataset, "range_scan", (pick.scan(),))
            for _ in range(quota["range_scan"])]
    out += [Request(dataset, "f2", (f2(),)) for _ in range(quota["f2"])]
    out += [Request(dataset, "fk3", (fk(3),)) for _ in range(quota["fk3"])]
    return out


def _kernel_requests(dataset: int, pick: _Picker) -> List[Request]:
    """Nine slots whose median is a single RANGE-SUM (the dense standalone
    prover) and whose slowest are the two 12-member mixed batches."""
    def mixed():
        return Request(dataset, "batch_mixed",
                       pick.ranges(10) + (f2(), inner_product()))

    return [
        Request(dataset, "range_sum", (pick.range_of_share(0.001),)),
        Request(dataset, "range_sum", (pick.range_of_share(0.10),)),
        Request(dataset, "range_sum", (pick.range_of_share(0.50),)),
        Request(dataset, "f2", (f2(),)),
        Request(dataset, "inner_product", (inner_product(),)),
        mixed(),
        mixed(),
        Request(dataset, "point_lookup", (pick.lookup(True),)),
        Request(dataset, "range_scan", (pick.scan(),)),
    ]


def _ingest_requests(dataset: int, pick: _Picker) -> List[Request]:
    return [
        Request(dataset, "f2", (f2(),)),
        Request(dataset, "f2_workers2", (f2(workers=2),)),
        Request(dataset, "range_sum", (pick.range(),)),
        Request(dataset, "range_sum", (pick.range(),)),
        Request(dataset, "heavy_hitters", (heavy_hitters(1, 100),)),
        Request(dataset, "fk3", (fk(3),)),
        Request(dataset, "batch_mixed", pick.ranges(4) + (f2(), fk(3))),
        Request(dataset, "batch_mixed", pick.ranges(6) + (f2(),)),
        Request(dataset, "point_lookup", (pick.lookup(True),)),
        Request(dataset, "range_scan", (pick.scan(),)),
    ]


# -- the whole input -----------------------------------------------------------


@dataclass
class Inputs:
    spec: Spec
    seed: int
    u: int
    streams_a: List[Pairs]
    streams_b: List[Pairs]
    requests: List[Request]               # in schedule order
    provision: List[Dict[tuple, int]]     # writer pools per dataset
    joiner_provision: Dict[tuple, int]
    joiner_probe: List                    # one RANGE-SUM per dataset


def _pool_counts(requests: List[Request]) -> Dict[tuple, int]:
    pools: Dict[tuple, int] = {}
    for request in requests:
        (unit,) = QueryRouter.plan(list(request.descriptors))
        pools[unit.pool_key] = pools.get(unit.pool_key, 0) + 1
    return pools


def build(spec: Spec, seed: int) -> Inputs:
    u = 1 << spec.log_u
    rng = random.Random("%s/%d/schedule" % (spec.name, seed))
    np_rng = np.random.default_rng([seed, spec.log_u, spec.updates_a])
    profile_a = zipf_profile(u, _base_mass(spec.updates_a))
    streams_a, streams_b, per_dataset = [], [], []
    for dataset, slots in enumerate(spec.requests):
        streams_a.append(turnstile_stream(profile_a, spec.updates_a, np_rng))
        streams_b.append(
            turnstile_stream(zipf_profile(u, _base_mass(spec.updates_b)),
                             spec.updates_b, np_rng)
            if spec.updates_b else [])
        pick = _Picker(profile_a, rng)
        if spec.mix == "analytic":
            per_dataset.append(_analytic_requests(dataset, slots, pick))
        elif spec.mix == "kernels":
            per_dataset.append(_kernel_requests(dataset, pick))
        else:
            per_dataset.append(_ingest_requests(dataset, pick))
    requests = [r for reqs in per_dataset for r in reqs]
    rng.shuffle(requests)
    pick = _Picker(profile_a, rng)
    return Inputs(
        spec=spec, seed=seed, u=u,
        streams_a=streams_a, streams_b=streams_b, requests=requests,
        provision=[_pool_counts(reqs) for reqs in per_dataset],
        joiner_provision={("range-sum",): 2, ("tree",): 1, ("f2",): 1},
        joiner_probe=[pick.range() for _ in spec.requests],
    )


def lane(inputs: Inputs, kinds: Sequence[str] = (),
         keep_requests: bool = True) -> Inputs:
    """Dataset 0 of a workload on its own, for the traced run's side
    lanes (the same requests replayed in-process, or sent straight to one
    cluster node), plus one canonical request for each of ``kinds`` the
    dataset's own schedule lacks (``keep_requests=False``: only those)."""
    spec = inputs.spec
    pick = _Picker(zipf_profile(inputs.u, _base_mass(spec.updates_a)),
                   random.Random("%s/%d/lane" % (spec.name, inputs.seed)))
    canonical: Dict[str, Request] = {}
    for request in _kernel_requests(0, pick) + _ingest_requests(0, pick):
        canonical.setdefault(request.kind, request)
    own = [r for r in inputs.requests if r.dataset == 0]
    have = {r.kind for r in own}
    requests = (own if keep_requests else []) \
        + [canonical[kind] for kind in kinds if kind not in have]
    return dataclasses.replace(
        inputs,
        spec=dataclasses.replace(spec, requests=(len(requests),), joiners=1,
                                 ingest_repeats=1),
        streams_a=inputs.streams_a[:1], streams_b=inputs.streams_b[:1],
        requests=requests, provision=[_pool_counts(requests)],
        joiner_probe=inputs.joiner_probe[:1],
    )
