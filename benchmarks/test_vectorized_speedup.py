"""Scalar vs vectorized wall-clock — the proof of speed for the backend.

Measures the two hot paths the VectorizedField backend accelerates, at
u ∈ {2^12, 2^16, 2^20} on the Section 5 workload:

* verifier updates/sec: ``StreamingLDE.process_stream`` (per-update
  Python loop) against ``process_stream_batched`` (d = log u, ℓ = 2);
* prover proof time: the F2 table-folding prover driven through all d
  rounds on each backend.

Both comparisons also assert bit-identical results (final LDE value,
per-round messages), so the speedup numbers can never drift away from
correctness.  Results are appended to ``BENCH_vectorized.json`` via the
session recorder in ``conftest.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import bench_sizes, bench_smoke, section5_stream
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.field.vectorized import HAVE_NUMPY, ScalarBackend, get_backend
from repro.lde.streaming import DEFAULT_BLOCK, StreamingLDE

SIZES = bench_sizes(full=[1 << 12, 1 << 16, 1 << 20], smoke=[1 << 6])

#: Acceptance bar: the batched verifier path must beat the scalar
#: per-update loop by at least this factor at u = 2^20 (d = 20, ℓ = 2).
REQUIRED_SPEEDUP_AT_2_20 = 10.0


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


@pytest.mark.parametrize("u", SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_verifier_updates_scalar_vs_vectorized(u, field,
                                               vectorized_bench_recorder):
    updates = list(section5_stream(u).updates())
    point = field.rand_vector(random.Random(u), u.bit_length() - 1)

    scalar = StreamingLDE(field, u, ell=2, point=point,
                          backend=ScalarBackend(field))
    t_scalar, _ = _timed(lambda: scalar.process_stream(updates))

    record = {
        "measure": "verifier_updates",
        "u": u,
        "d": scalar.d,
        "ell": 2,
        "updates": len(updates),
        "block": DEFAULT_BLOCK,
        "scalar_seconds": t_scalar,
        "scalar_updates_per_sec": len(updates) / t_scalar,
    }
    if HAVE_NUMPY:
        vector = StreamingLDE(field, u, ell=2, point=point,
                              backend=get_backend(field, "vectorized"))
        t_vector, _ = _timed(
            lambda: vector.process_stream_batched(updates, block=DEFAULT_BLOCK)
        )
        # Byte-identical final LDE value: the acceptance bar for the
        # batched path, checked at full benchmark scale.
        assert vector.value == scalar.value
        assert vector.updates_processed == scalar.updates_processed
        speedup = t_scalar / t_vector
        record.update(
            vectorized_seconds=t_vector,
            vectorized_updates_per_sec=len(updates) / t_vector,
            speedup=speedup,
        )
        if u >= 1 << 20 and not bench_smoke():
            assert speedup >= REQUIRED_SPEEDUP_AT_2_20, (
                "batched LDE only %.1fx faster than the scalar loop at "
                "u=2^20 (required %.0fx)" % (speedup, REQUIRED_SPEEDUP_AT_2_20)
            )
    vectorized_bench_recorder.append(record)


def _drive_prover(prover, challenges):
    prover.receive_batch([batch_f2()])
    messages = []
    for j in range(prover.d):
        (message,) = prover.round_messages()
        messages.append([int(v) for v in message])
        if j < prover.d - 1:
            prover.receive_challenge(challenges[j])
    return messages


@pytest.mark.parametrize("u", SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_f2_prover_scalar_vs_vectorized(u, field, vectorized_bench_recorder):
    stream = section5_stream(u)
    d = u.bit_length() - 1
    challenges = field.rand_vector(random.Random(u + 1), d)

    scalar = BatchedSumcheckEngine(field, u, backend=ScalarBackend(field))
    scalar.process_stream(stream.updates())
    t_scalar, scalar_messages = _timed(
        lambda: _drive_prover(scalar, challenges)
    )

    record = {
        "measure": "f2_prover",
        "u": u,
        "d": d,
        "ell": 2,
        "scalar_seconds": t_scalar,
    }
    if HAVE_NUMPY:
        vector = BatchedSumcheckEngine(field, u,
                                       backend=get_backend(field, "vectorized"))
        vector.process_stream(stream.updates())
        t_vector, vector_messages = _timed(
            lambda: _drive_prover(vector, challenges)
        )
        # Identical transcripts across backends, at benchmark scale.
        assert vector_messages == scalar_messages
        record.update(
            vectorized_seconds=t_vector, speedup=t_scalar / t_vector
        )
    vectorized_bench_recorder.append(record)


# -- multiquery batching (Section 7, "Multiple Queries") ----------------------


MULTIQUERY_SIZES = bench_sizes(full=[1 << 12, 1 << 16], smoke=[1 << 6])
NUM_QUERIES = 32


@pytest.mark.parametrize("u", MULTIQUERY_SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_batch_multiquery_scalar_vs_vectorized(u, field,
                                               vectorized_bench_recorder):
    from repro.comm.channel import Channel
    from repro.core.multiquery import run_batch_range_sum
    from repro.core.range_sum import RangeSumVerifier

    stream = section5_stream(u)
    nq = min(NUM_QUERIES, u // 2)
    queries = [
        (q * (u // nq), q * (u // nq) + u // 2 - 1) for q in range(nq // 2)
    ] + [(0, u - 1)] * (nq - nq // 2)

    def run(backend_name):
        backend = get_backend(field, backend_name)
        verifier = RangeSumVerifier(field, u, rng=random.Random(u + 7))
        prover = BatchedSumcheckEngine(field, u, backend=backend)
        for i, delta in stream.updates():
            verifier.process(i, delta)
            prover.process_a(i, delta)
        channel = Channel()
        start = time.perf_counter()
        results = run_batch_range_sum(prover, verifier, queries, channel)
        elapsed = time.perf_counter() - start
        assert all(r.accepted for r in results)
        return [r.value for r in results], channel, elapsed

    scalar_values, scalar_ch, t_scalar = run("scalar")
    record = {
        "measure": "batch_multiquery",
        "u": u,
        "queries": nq,
        "scalar_seconds": t_scalar,
    }
    if HAVE_NUMPY:
        vector_values, vector_ch, t_vector = run("vectorized")
        assert vector_values == scalar_values
        assert vector_ch.transcript.messages == scalar_ch.transcript.messages
        assert vector_ch.query_words == scalar_ch.query_words
        record.update(
            vectorized_seconds=t_vector,
            speedup=t_scalar / t_vector,
            per_query_words=vector_ch.query_words.get(0, 0),
            shared_words=vector_ch.shared_words,
        )
    vectorized_bench_recorder.append(record)


@pytest.mark.parametrize("u", MULTIQUERY_SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_independent_copies_scalar_vs_vectorized(u, field,
                                                 vectorized_bench_recorder):
    from repro.core.f2 import F2Verifier
    from repro.core.multiquery import IndependentCopies

    copies = 8
    updates = list(section5_stream(u).updates())

    def build():
        return IndependentCopies(
            copies, lambda rng: F2Verifier(field, u, rng=rng),
            rng=random.Random(u + 11),
        )

    loop = build()
    t_scalar, _ = _timed(lambda: loop.process_stream(updates))
    record = {
        "measure": "independent_copies_stream",
        "u": u,
        "copies": copies,
        "updates": len(updates),
        "scalar_seconds": t_scalar,
        "scalar_updates_per_sec": len(updates) / t_scalar,
    }
    if HAVE_NUMPY:
        batched = build()
        t_vector, _ = _timed(
            lambda: batched.process_stream_batched(updates)
        )
        assert [v.lde.value for v in batched._fresh] == \
            [v.lde.value for v in loop._fresh]
        record.update(
            vectorized_seconds=t_vector,
            vectorized_updates_per_sec=len(updates) / t_vector,
            speedup=t_scalar / t_vector,
        )
    vectorized_bench_recorder.append(record)
