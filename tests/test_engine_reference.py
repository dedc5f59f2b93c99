"""The batched engine and the sharded F2 prover against the paper's provers.

``reference_sumcheck.ReferenceProver`` states F2, Fk, INNER-PRODUCT and
RANGE-SUM the textbook way (dense Python-int tables, the Appendix B.1
fold, round polynomials summed directly).  Every round message of the
:class:`~repro.core.multiquery.BatchedSumcheckEngine` — any batch of one
to six mixed members, on both backends — and of the
:class:`~repro.distributed.sharded.DistributedF2Prover` at every legal
worker count must equal it, over turnstile streams in universes up to
2^10, padded ones included.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_sumcheck import ReferenceProver
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
)
from repro.distributed.sharded import DistributedF2Prover
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.streams.generators import zipf_stream

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

STREAMS = ("empty", "one-key", "zipf", "full")


def turnstile(kind, u, seed):
    """Inserts and deletions over ``[0, u)``; a full stream also drives
    one frequency past p and one below zero."""
    rng = random.Random(seed)
    if kind == "empty":
        return []
    if kind == "one-key":
        key = rng.randrange(u)
        return [(key, rng.randint(1, 9)), (key, -rng.randint(0, 12))]
    if kind == "zipf":
        updates = list(zipf_stream(u, max(1, u // 2), rng=rng).updates())
        return updates + [(key, -1) for key, _ in updates[::3]]
    return ([(key, rng.randint(-4, 9)) for key in range(u)]
            + [(0, F.p + 11), (u - 1, -7)])


def universes():
    """u <= 2^10, powers of two and padded ones."""
    return st.integers(0, 10).flatmap(lambda log_u: st.sampled_from(sorted(
        {1 << log_u, max(1, (1 << log_u) - 3), (1 << log_u >> 1) + 1})))


def batches(u):
    def member(choice):
        kind, k, x, y = choice
        lo, hi = sorted((x % u, y % u))
        return {"f2": batch_f2(), "fk": batch_fk(k),
                "ip": batch_inner_product(),
                "range": batch_range_sum(lo, hi)}[kind]
    return st.lists(st.tuples(
        st.sampled_from(("f2", "fk", "ip", "range")), st.integers(1, 6),
        st.integers(0, u - 1), st.integers(0, u - 1)).map(member),
        min_size=1, max_size=6)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_engine_rounds_equal_the_reference(data):
    u = data.draw(universes())
    kinds = data.draw(st.tuples(st.sampled_from(STREAMS),
                                st.sampled_from(STREAMS)))
    seed = data.draw(st.integers(0, 1 << 16))
    queries = data.draw(batches(u))
    updates_a = turnstile(kinds[0], u, seed)
    updates_b = turnstile(kinds[1], u, seed + 1)
    reference = ReferenceProver(F, u, updates_a, updates_b)
    engines = []
    for name in BACKENDS:
        engine = BatchedSumcheckEngine(F, u, backend=get_backend(F, name))
        engine.process_stream(updates_a)
        for i, delta in updates_b:
            engine.process_b(i, delta)
        engines.append(engine)
    for party in [reference] + engines:
        party.receive_batch(queries)
    rng = random.Random(seed)
    for j in range(reference.d):
        expected = reference.round_messages()
        for engine in engines:
            assert engine.round_messages() == expected, (j, u, kinds)
        if j < reference.d - 1:
            r = rng.randrange(F.p)
            for party in [reference] + engines:
                party.receive_challenge(r)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(u=universes(), kind=st.sampled_from(STREAMS),
       seed=st.integers(0, 1 << 16))
def test_sharded_f2_equals_the_reference_at_every_worker_count(u, kind,
                                                               seed):
    updates = turnstile(kind, u, seed)
    reference = ReferenceProver(F, u, updates)
    reference.receive_batch([batch_f2()])
    provers = []
    workers = 1
    while 2 * workers <= reference.size:
        for name in BACKENDS:
            prover = DistributedF2Prover(F, u, num_workers=workers,
                                         backend=get_backend(F, name))
            prover.process_stream(updates)
            prover.begin_proof()
            provers.append(prover)
        workers *= 2
    rng = random.Random(seed)
    for j in range(reference.d):
        (expected,) = reference.round_messages()
        for prover in provers:
            assert list(prover.round_message()) == expected, \
                (j, u, prover.num_workers)
        if j < reference.d - 1:
            r = rng.randrange(F.p)
            for party in [reference] + provers:
                party.receive_challenge(r)
