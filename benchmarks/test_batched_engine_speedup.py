"""Mixed-batch engine throughput: one fused run vs Q independent runs.

The point of the generic :class:`~repro.core.multiquery.
BatchedSumcheckEngine` is that a mixed multi-query workload — RANGE-SUM,
F2, Fk and INNER-PRODUCT queries over one dataset — costs one dataset
digitisation and one fused (queries × table) pass per round instead of
Q full protocol runs.  This benchmark measures that at the Section 5
workload (u = 2^16, Q = 32 mixed queries):

* batched prover+verifier wall clock (scalar and vectorized backends,
  transcripts asserted identical) vs the sum of the 32 standalone runs
  on the *vectorized* backend — the >= 3x acceptance bar;
* per-query channel words (shared challenges amortised once).

Results land in ``BENCH_vectorized.json`` via the session recorder.
Smoke mode (``REPRO_BENCH_SMOKE=1``) runs a toy size, keeps every
correctness assertion and skips the wall-clock bar and the JSON file.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import bench_sizes, bench_smoke, section5_stream
from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier, run_f2
from repro.core.fk import FkVerifier, run_fk
from repro.core.inner_product import InnerProductVerifier, run_inner_product
from repro.core.multiquery import (
    BATCH_KIND_F2,
    BATCH_KIND_FK,
    BATCH_KIND_INNER_PRODUCT,
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.range_sum import RangeSumVerifier, run_range_sum
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, get_backend

SIZES = bench_sizes(full=[1 << 16], smoke=[1 << 6])

#: Acceptance bar: one batched run of the 32-query mix must beat the 32
#: independent runs (same vectorized backend) by at least this factor.
REQUIRED_SPEEDUP_AT_2_16 = 3.0


def mixed_queries(u, nq):
    """A mixed workload: ranges, self-joins, four moments, join sizes."""
    step = max(1, u // nq)
    queries = []
    for q in range(nq):
        family = q % 4
        if family == 0:
            lo = (q * step) % u
            queries.append(batch_range_sum(lo, min(u - 1, lo + u // 2)))
        elif family == 1:
            queries.append(batch_f2())
        elif family == 2:
            queries.append(batch_fk(2 + (q // 4) % 4))
        else:
            queries.append(batch_inner_product())
    return queries


def ingest(u, updates_a, updates_b, backend, point):
    engine = BatchedSumcheckEngine(F, u, backend=backend)
    engine.process_stream(updates_a)
    for i, delta in updates_b:
        engine.process_b(i, delta)
    verifier = BatchedSumcheckVerifier(F, u, point=point)
    verifier.lde_a.process_stream_batched(updates_a)
    verifier.lde_b.process_stream_batched(updates_b)
    return engine, verifier


def run_one_standalone(query, u, freq_a, freq_b, point, fa_value, fb_value,
                       backend):
    """One independent protocol run (proof phase only — the prover's
    vectors and the verifier's streamed LDE values are handed over, as
    the stream phase is shared by every run)."""
    channel = Channel()
    prover = BatchedSumcheckEngine(F, u, backend=backend,
                                   freq_a=list(freq_a), freq_b=list(freq_b))
    if query.kind == BATCH_KIND_F2:
        verifier = F2Verifier(F, u, point=point)
        verifier.lde.value = fa_value
        return run_f2(prover, verifier, channel)
    if query.kind == BATCH_KIND_FK:
        verifier = FkVerifier(F, u, query.params[0], point=point)
        verifier.lde.value = fa_value
        return run_fk(prover, verifier, channel)
    if query.kind == BATCH_KIND_INNER_PRODUCT:
        verifier = InnerProductVerifier(F, u, point=point)
        verifier.lde_a.value = fa_value
        verifier.lde_b.value = fb_value
        return run_inner_product(prover, verifier, channel)
    verifier = RangeSumVerifier(F, u, point=point)
    verifier.lde.value = fa_value
    lo, hi = query.params
    return run_range_sum(prover, verifier, lo, hi, channel)


@pytest.mark.parametrize("u", SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_mixed_batch_vs_independent_runs(u, field,
                                         vectorized_bench_recorder):
    nq = 32 if not bench_smoke() else 8
    d = u.bit_length() - 1
    updates_a = list(section5_stream(u).updates())
    updates_b = [(i, 1 + i % 5) for i in range(0, u, 3)]
    queries = mixed_queries(u, nq)
    point = field.rand_vector(random.Random(u + 3), d)

    def run_batched(backend_name):
        backend = get_backend(field, backend_name)
        engine, verifier = ingest(u, updates_a, updates_b, backend, point)
        channel = Channel()
        start = time.perf_counter()
        results = run_batched_sumcheck(engine, verifier, queries, channel)
        elapsed = time.perf_counter() - start
        assert all(r.accepted for r in results)
        return [r.value for r in results], channel, elapsed

    scalar_values, scalar_ch, t_scalar = run_batched("scalar")
    record = {
        "measure": "batched_engine_mixed",
        "u": u,
        "queries": nq,
        "mix": "range-sum/f2/fk(2..5)/inner-product round-robin",
        "scalar_seconds": t_scalar,
    }
    if HAVE_NUMPY:
        vector_values, vector_ch, t_vector = run_batched("vectorized")
        # Identical transcripts and accounting across backends, at
        # benchmark scale.
        assert vector_values == scalar_values
        assert vector_ch.transcript.messages == scalar_ch.transcript.messages
        assert vector_ch.query_words == scalar_ch.query_words

        # The Q independent runs, on the same (vectorized) backend, with
        # the streams already ingested — pure proof-phase wall clock.
        backend = get_backend(field, "vectorized")
        freq_a = [0] * (1 << d)
        for i, delta in updates_a:
            freq_a[i] += delta
        freq_b = [0] * (1 << d)
        for i, delta in updates_b:
            freq_b[i] += delta
        _probe_engine, probe_verifier = ingest(
            u, updates_a, updates_b, backend, point
        )
        fa_value = probe_verifier.lde_a.value
        fb_value = probe_verifier.lde_b.value
        independent_values = []
        t_independent = 0.0
        for query in queries:
            start = time.perf_counter()
            result = run_one_standalone(
                query, u, freq_a, freq_b, point, fa_value, fb_value, backend
            )
            t_independent += time.perf_counter() - start
            assert result.accepted, (query.name, result.reason)
            independent_values.append(result.value)
        # The fused batch answers exactly what the standalone runs do.
        assert independent_values == vector_values

        speedup_vs_independent = (
            t_independent / t_vector if t_vector else float("inf")
        )
        record.update(
            vectorized_seconds=t_vector,
            speedup=t_scalar / t_vector,
            independent_seconds=t_independent,
            speedup_vs_independent=speedup_vs_independent,
            per_query_words_degree2=vector_ch.query_words.get(1, 0),
            shared_words=vector_ch.shared_words,
        )
        print(
            "\nmixed batch u=2^%d Q=%d: %.3fs batched vs %.3fs independent "
            "(%.2fx), scalar batched %.3fs"
            % (d, nq, t_vector, t_independent, speedup_vs_independent,
               t_scalar)
        )
        if u >= 1 << 16 and not bench_smoke():
            assert speedup_vs_independent >= REQUIRED_SPEEDUP_AT_2_16, (
                "mixed batch only %.2fx faster than %d independent runs "
                "(required %.0fx)"
                % (speedup_vs_independent, nq, REQUIRED_SPEEDUP_AT_2_16)
            )
    vectorized_bench_recorder.append(record)
