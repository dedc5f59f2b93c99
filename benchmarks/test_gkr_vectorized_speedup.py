"""Scalar vs vectorized GKR prover — the backend seam on Theorem 3.

Two measures, both on the F2 circuit over the Section 5 workload:

* ``gkr_layer_rounds`` — the input (square) layer's 2·log u sum-check
  rounds driven through :class:`repro.gkr.sumcheck.LayerSumcheck`,
  including the per-layer setup (eq table, gate scatter).  This is the
  prover's hot loop.
* ``gkr_full_protocol`` — the whole :func:`run_gkr` proof phase (circuit
  evaluation, every layer, line restrictions, wiring checks).

Both backends run the same table-fold algorithm, so the recorded ratio
is the NumPy kernels against Python ints, not one algorithm against
another, and carries no bar.  Every comparison asserts
message-for-message equality between the backends.
Records are appended to ``BENCH_vectorized.json``; under
``REPRO_BENCH_SMOKE`` the sizes shrink to CI-friendly toys and only the
equality assertions remain.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import bench_sizes, section5_stream
from repro.field.vectorized import (
    HAVE_NUMPY,
    ScalarBackend,
    canonical_table,
    get_backend,
)
from repro.gkr.circuits import f2_circuit, num_vars
from repro.gkr.mle import eq_table
from repro.gkr.protocol import GKRProver, StreamingGKRVerifier, run_gkr
from repro.gkr.sumcheck import LayerSumcheck

SIZES = bench_sizes(full=[1 << 10, 1 << 16], smoke=[1 << 6])

REPS = 2  # best-of reps; perf numbers are min over repetitions


def _best_of(fn, reps=REPS):
    best_time = None
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        best_time = elapsed if best_time is None else min(best_time, elapsed)
    return best_time, out


@pytest.mark.parametrize("u", SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_gkr_layer_rounds_scalar_vs_vectorized(u, field,
                                               vectorized_bench_recorder):
    stream = section5_stream(u)
    freq = [0] * u
    for i, delta in stream.updates():
        freq[i] += delta
    circuit = f2_circuit(u)
    gates = circuit.layers[-1]  # the square layer over the inputs
    b = num_vars(u)
    z = field.rand_vector(random.Random(u + 1), num_vars(len(gates)))
    challenges = field.rand_vector(random.Random(u + 2), 2 * b)

    def drive(backend):
        table = canonical_table(backend, field, freq)
        eq_z = eq_table(field, z, backend=backend)
        layer = LayerSumcheck(field, gates, b, eq_z, table, backend=backend)
        messages = []
        for j in range(2 * b):
            messages.append([int(v) for v in layer.round_message()])
            layer.receive_challenge(challenges[j])
        return messages, layer.final_claims(), layer.wiring_values()

    t_scalar, scalar_out = _best_of(lambda: drive(ScalarBackend(field)))
    record = {
        "measure": "gkr_layer_rounds",
        "u": u,
        "rounds": 2 * b,
        "gates": len(gates),
        "scalar_seconds": t_scalar,
    }
    if HAVE_NUMPY:
        backend = get_backend(field, "vectorized")
        assert backend.vectorized  # the smoke leg checks path selection
        t_vector, vector_out = _best_of(lambda: drive(backend))
        assert vector_out == scalar_out  # messages, claims and wiring values
        record.update(vectorized_seconds=t_vector,
                      speedup=t_scalar / t_vector)
    vectorized_bench_recorder.append(record)


@pytest.mark.parametrize("u", SIZES,
                         ids=lambda u: "u=2^%d" % (u.bit_length() - 1))
def test_gkr_full_protocol_scalar_vs_vectorized(u, field,
                                                vectorized_bench_recorder):
    stream = section5_stream(u)
    circuit = f2_circuit(u)

    def run(backend_name):
        backend = get_backend(field, backend_name)
        verifier = StreamingGKRVerifier(field, circuit,
                                        rng=random.Random(u + 3),
                                        backend=backend)
        prover = GKRProver(field, circuit, backend=backend)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        start = time.perf_counter()
        result = run_gkr(prover, verifier)
        elapsed = time.perf_counter() - start
        assert result.accepted, result.reason
        return result, elapsed

    scalar_result, t_scalar = run("scalar")
    record = {
        "measure": "gkr_full_protocol",
        "u": u,
        "depth": circuit.depth,
        "scalar_seconds": t_scalar,
    }
    if HAVE_NUMPY:
        vector_result, t_vector = run("vectorized")
        assert vector_result.value == scalar_result.value
        assert vector_result.transcript.messages == \
            scalar_result.transcript.messages
        record.update(vectorized_seconds=t_vector,
                      speedup=t_scalar / t_vector)
    vectorized_bench_recorder.append(record)
