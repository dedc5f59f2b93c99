"""Per-layer micro-probes: timed calls into one layer's public functions.

Each probe is best-of-``REPS`` on a fixed amount of work, so it says what
the layer costs in isolation; the README's layer table says which
end-to-end metric each one should move.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Dict

import numpy as np

from repro.comm.wire import decode_words, encode_words
from repro.core.multiquery import IndependentCopies
from repro.field.modular import DEFAULT_FIELD as FIELD
from repro.field.vectorized import get_backend
from repro.service import QueryRouter, SessionRegistry

REPS = 5
FIELD_ELEMS = 1 << 20
WIRE_WORDS = 1 << 14
LDE_COPIES = 4


def best_of(fn: Callable[[], object], reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def field_probes(seed: int, elems: int = FIELD_ELEMS) -> Dict[str, float]:
    backend = get_backend(FIELD)
    rng = np.random.default_rng(seed)
    a = backend.asarray(rng.integers(0, FIELD.p, elems))
    b = backend.asarray(rng.integers(0, FIELD.p, elems))
    stack = backend.stack([a, b])
    r = int(rng.integers(1, FIELD.p))
    ns = 1e9 / elems
    return {
        "field.mul_ns_per_elem": best_of(lambda: backend.mul(a, b)) * ns,
        "field.dot_ns_per_elem": best_of(lambda: backend.dot(a, b)) * ns,
        "field.row_fold_ns_per_elem":
            best_of(lambda: backend.row_fold(stack, r)) * ns / 2,
        "field.pair_prefix_sums_ns_per_elem":
            best_of(lambda: backend.pair_prefix_sums(a)) * ns,
    }


def lde_probe(u: int, pairs, seed: int) -> Dict[str, float]:
    """`process_stream_batched` over LDE_COPIES RANGE-SUM verifiers."""
    def ingest():
        copies = IndependentCopies(
            LDE_COPIES,
            lambda rng: QueryRouter.make_verifier(("range-sum",), FIELD, u,
                                                  rng),
            rng=random.Random(seed))
        copies.process_stream_batched(pairs)

    return {"lde.copy_updates_per_s":
            LDE_COPIES * len(pairs) / best_of(ingest, 3)}


def comm_probes(seed: int) -> Dict[str, float]:
    rng = random.Random(seed)
    words = [rng.randrange(FIELD.p) for _ in range(WIRE_WORDS)]
    frame = encode_words(FIELD, words)
    ns = 1e9 / WIRE_WORDS
    return {
        "comm.encode_words_ns_per_word":
            best_of(lambda: encode_words(FIELD, words)) * ns,
        "comm.decode_words_ns_per_word":
            best_of(lambda: decode_words(FIELD, frame)) * ns,
    }


def router_probe(requests) -> Dict[str, float]:
    """Planning the workload's own requests, per request."""
    batches = [list(r.descriptors) for r in requests[:256]]

    def plan_all():
        for descriptors in batches:
            QueryRouter.plan(descriptors)

    return {"router.plan_us": best_of(plan_all) * 1e6 / len(batches)}


def registry_probes(u: int, pairs, out_dir: str) -> Dict[str, float]:
    """Dataset.apply and the crash-safe snapshot, on the workload's stream."""
    best_apply = float("inf")
    for _ in range(3):
        registry = SessionRegistry(FIELD)
        dataset = registry.connect(u, 1).dataset
        t0 = time.perf_counter()
        dataset.apply(0, pairs)
        best_apply = min(best_apply, time.perf_counter() - t0)
    path = os.path.join(out_dir, "probe-snapshot.%d.json" % os.getpid())
    try:
        snapshot_s = best_of(lambda: registry.snapshot(path), 3)
        size = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {
        "registry.apply_updates_per_s": len(pairs) / best_apply,
        "registry.snapshot_s": snapshot_s,
        "registry.snapshot_bytes": float(size),
    }


def rtt_probe(session, calls: int = 300) -> Dict[str, float]:
    """p50 of a no-op round trip (`client.stats()`) on an open session."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        session.client.stats()
        samples.append(time.perf_counter() - t0)
    return {"service.rtt_us": sorted(samples)[len(samples) // 2] * 1e6}
