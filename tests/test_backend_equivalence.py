"""Cross-backend equivalence: scalar and vectorized paths are bit-identical.

The acceptance bar for the vectorized engine: every protocol produces the
*same transcript* whichever backend the prover runs on, and the batched
LDE paths produce byte-identical values to the per-update loop.  These
tests run on every CI leg; without NumPy the vectorized cases are skipped
and the scalar reference still exercises the shared API.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier, run_f2
from repro.core.fk import FkVerifier, run_fk
from repro.core.multiquery import BatchedSumcheckEngine
from repro.core.frequency_based import f0_protocol
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import (
    HAVE_NUMPY,
    SMALL_TABLE,
    ScalarBackend,
    get_backend,
)
from repro.gkr.sumcheck import boolean_sum, round_message
from repro.lde.chi import chi_table
from repro.lde.streaming import MultipointStreamingLDE, StreamingLDE
from repro.streams.generators import uniform_frequency_stream, zipf_stream

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def mixed_updates(u, n, seed=0):
    """Insertions and deletions with large and small deltas."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        out.append((rng.randrange(u), rng.randrange(-10**6, 10**6)))
    return out


# -- streaming LDE -----------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("u,ell,block", [
    (256, 2, 64), (256, 2, 37), (100, 3, 11), (625, 5, 4096), (17, 4, 1),
])
def test_batched_lde_identical_to_scalar_loop(u, ell, block):
    point_rng = random.Random(99)
    scalar = StreamingLDE(F, u, ell=ell, rng=point_rng,
                          backend=ScalarBackend(F))
    vector = StreamingLDE(F, u, ell=ell, point=scalar.point)
    updates = mixed_updates(u, 1000, seed=u + ell)
    scalar.process_stream(updates)
    vector.process_stream_batched(updates, block=block)
    assert vector.value == scalar.value
    assert vector.updates_processed == scalar.updates_processed


@needs_numpy
def test_batched_lde_accepts_iterators_and_partial_blocks():
    scalar = StreamingLDE(F, 50, rng=random.Random(1),
                          backend=ScalarBackend(F))
    vector = StreamingLDE(F, 50, point=scalar.point)
    updates = mixed_updates(50, 101, seed=5)
    scalar.process_stream(iter(updates))
    vector.process_stream_batched(iter(updates), block=25)  # 101 = 4*25 + 1
    assert vector.value == scalar.value


@needs_numpy
def test_batched_lde_rejects_out_of_range_keys():
    lde = StreamingLDE(F, 32, rng=random.Random(2))
    with pytest.raises(ValueError):
        lde.process_stream_batched([(0, 1), (32, 1)])
    with pytest.raises(ValueError):
        lde.process_stream_batched([(-1, 1)])


def test_batched_lde_scalar_backend_fallback():
    scalar = StreamingLDE(F, 64, rng=random.Random(3),
                          backend=ScalarBackend(F))
    reference = StreamingLDE(F, 64, point=scalar.point,
                             backend=ScalarBackend(F))
    updates = mixed_updates(64, 200, seed=7)
    reference.process_stream(updates)
    scalar.process_stream_batched(updates)  # falls back to the scalar loop
    assert scalar.value == reference.value
    assert scalar.updates_processed == reference.updates_processed


@needs_numpy
def test_multipoint_batched_matches_scalar():
    points = [
        [random.Random(k).randrange(F.p) for _ in range(6)] for k in range(4)
    ]
    scalar = MultipointStreamingLDE(F, 64, points, backend=ScalarBackend(F))
    vector = MultipointStreamingLDE(F, 64, points)
    updates = mixed_updates(64, 500, seed=11)
    scalar.process_stream(updates)
    vector.process_stream_batched(updates, block=33)
    assert vector.values == scalar.values


@needs_numpy
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_direct_evaluate_vectorized_matches_scalar(ell):
    """The vectorized stacked fold of a whole vector equals the per-entry
    reference sum."""
    rng = random.Random(13)
    d = 4
    point = [rng.randrange(F.p) for _ in range(d)]
    a = [rng.randrange(-100, 100) for _ in range(ell**d - 3)]
    lde = StreamingLDE(F, len(a), ell=ell, point=point,
                       backend=get_backend(F, "vectorized"))
    lde.process_stream_batched(list(enumerate(a)))
    assert lde.value == StreamingLDE.direct_evaluate(F, a, ell, point)


def test_chi_table_cache_consistency():
    # Repeated calls (cache hits) must keep returning fresh equal lists.
    first = chi_table(F, 2, 1234567)
    second = chi_table(F, 2, 1234567)
    assert first == second
    assert first is not second  # callers may mutate their copy
    second[0] = 0
    assert chi_table(F, 2, 1234567) == first


# -- protocol transcripts ----------------------------------------------------


def run_f2_with(backend_name):
    stream = uniform_frequency_stream(200, rng=random.Random(23))
    point = F.rand_vector(random.Random(29), 8)
    verifier = F2Verifier(F, 256, point=point)
    prover = BatchedSumcheckEngine(F, 256, backend=get_backend(F, backend_name))
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_f2(prover, verifier, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
def test_f2_transcript_identical_across_backends():
    scalar_result, scalar_tx = run_f2_with("scalar")
    vector_result, vector_tx = run_f2_with("vectorized")
    assert scalar_result.value == vector_result.value
    assert scalar_tx.messages == vector_tx.messages


def run_fk_with(backend_name, k=4):
    stream = uniform_frequency_stream(128, max_frequency=50,
                                      rng=random.Random(31))
    point = F.rand_vector(random.Random(37), 7)
    verifier = FkVerifier(F, 128, k, point=point)
    prover = BatchedSumcheckEngine(F, 128, backend=get_backend(F, backend_name))
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_fk(prover, verifier, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
def test_fk_transcript_identical_across_backends():
    scalar_result, scalar_tx = run_fk_with("scalar")
    vector_result, vector_tx = run_fk_with("vectorized")
    assert scalar_result.value == vector_result.value
    assert scalar_tx.messages == vector_tx.messages


def run_subvector_with(backend_name, normalized):
    stream = uniform_frequency_stream(100, max_frequency=30,
                                      rng=random.Random(41))
    point = F.rand_vector(random.Random(43), 7)
    verifier = TreeHashVerifier(F, 128, point=point, normalized=normalized)
    prover = SubVectorProver(F, 128, normalized=normalized,
                             backend=get_backend(F, backend_name))
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_subvector(prover, verifier, 10, 73, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
@pytest.mark.parametrize("normalized", [False, True])
def test_subvector_transcript_identical_across_backends(normalized):
    scalar_result, scalar_tx = run_subvector_with("scalar", normalized)
    vector_result, vector_tx = run_subvector_with("vectorized", normalized)
    assert scalar_result.value.entries == vector_result.value.entries
    assert scalar_tx.messages == vector_tx.messages


@needs_numpy
def test_f0_protocol_identical_across_backends(monkeypatch):
    stream = zipf_stream(64, 600, rng=random.Random(47))

    def run(backend_name):
        monkeypatch.setenv("REPRO_BACKEND", backend_name)
        ch = Channel()
        result = f0_protocol(stream, F, rng=random.Random(53), channel=ch)
        assert result.accepted
        return result.value, ch.transcript.messages

    scalar_value, scalar_msgs = run("scalar")
    vector_value, vector_msgs = run("vectorized")
    assert scalar_value == vector_value
    assert scalar_msgs == vector_msgs
    true_f0 = sum(1 for v in stream.sparse_frequencies().values() if v != 0)
    assert scalar_value == true_f0


# -- heavy hitters, sparse and tree-hash ingest (PR 3) ------------------------


def run_heavy_hitters_with(backend_name, low_space=False):
    from repro.core.heavy_hitters import (
        HeavyHittersProver,
        HeavyHittersVerifier,
        run_heavy_hitters,
    )

    stream = zipf_stream(256, 3000, rng=random.Random(61))
    be = get_backend(F, backend_name)
    verifier = HeavyHittersVerifier(F, 256, 0.02, rng=random.Random(67),
                                    backend=be)
    prover = HeavyHittersProver(F, 256, 0.02, backend=be)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_heavy_hitters(prover, verifier, ch, low_space=low_space)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
@pytest.mark.parametrize("low_space", [False, True])
def test_heavy_hitters_transcript_identical_across_backends(low_space):
    scalar_result, scalar_tx = run_heavy_hitters_with("scalar", low_space)
    vector_result, vector_tx = run_heavy_hitters_with("vectorized", low_space)
    assert scalar_result.value == vector_result.value
    assert scalar_tx.messages == vector_tx.messages


@needs_numpy
def test_heavy_hitters_batched_ingest_matches_loop():
    from repro.core.heavy_hitters import HeavyHittersVerifier

    stream = zipf_stream(300, 2000, rng=random.Random(71))
    updates = list(stream.updates())
    point_rng = random.Random(73)
    r = F.rand_vector(point_rng, 9)
    s = F.rand_vector(point_rng, 9)
    loop = HeavyHittersVerifier(F, 300, 0.05, r=r, s=s,
                                backend=ScalarBackend(F))
    batched = HeavyHittersVerifier(F, 300, 0.05, r=r, s=s)
    loop.process_stream(updates)
    batched.process_stream_batched(updates, block=97)
    assert batched.root == loop.root
    assert batched.n == loop.n
    with pytest.raises(ValueError):
        batched.process_stream_batched([(300, 1)])
    with pytest.raises(ValueError):
        batched.process_stream_batched([], block=0)


@needs_numpy
@pytest.mark.parametrize("normalized", [False, True])
def test_tree_hash_batched_ingest_matches_loop(normalized):
    updates = mixed_updates(200, 1500, seed=79)
    point = F.rand_vector(random.Random(83), 8)
    loop = TreeHashVerifier(F, 200, point=point, normalized=normalized,
                            backend=ScalarBackend(F))
    batched = TreeHashVerifier(F, 200, point=point, normalized=normalized)
    loop.process_stream(updates)
    batched.process_stream_batched(updates, block=64)
    assert batched.root == loop.root
    with pytest.raises(ValueError):
        batched.process_stream_batched([(205, 1)])


#: Update counts on both sides of SMALL_TABLE: a proof over at most
#: SMALL_TABLE keys runs on scalar lists from the start, a larger one on
#: the NumPy kernels.
SPARSE_SIZES = (SMALL_TABLE // 4, 400)


def run_sparse_f2_with(backend_name, n):
    u = 1 << 12
    updates = mixed_updates(u, n, seed=87)
    point = F.rand_vector(random.Random(89), 12)
    verifier = F2Verifier(F, u, point=point)
    prover = BatchedSumcheckEngine(F, u, backend=get_backend(F, backend_name),
                                   freq_a=Counter())
    for i, delta in updates:
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_f2(prover, verifier, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
def test_sparse_f2_transcript_identical_across_backends():
    for n in SPARSE_SIZES:
        scalar_result, scalar_tx = run_sparse_f2_with("scalar", n)
        vector_result, vector_tx = run_sparse_f2_with("vectorized", n)
        assert scalar_result.value == vector_result.value
        assert scalar_tx.messages == vector_tx.messages


def run_sparse_subvector_with(backend_name, normalized, n):
    u = 1 << 11
    rng = random.Random(91)
    updates = [(rng.randrange(u), rng.randrange(1, 50)) for _ in range(n)]
    point = F.rand_vector(random.Random(93), 11)
    verifier = TreeHashVerifier(F, u, point=point, normalized=normalized)
    prover = SubVectorProver(F, u, normalized=normalized,
                             backend=get_backend(F, backend_name),
                             freq=Counter())
    for i, delta in updates:
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_subvector(prover, verifier, 100, 1800, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
@pytest.mark.parametrize("normalized", [False, True])
def test_sparse_subvector_transcript_identical_across_backends(normalized):
    for n in SPARSE_SIZES:
        scalar_result, scalar_tx = run_sparse_subvector_with(
            "scalar", normalized, n)
        vector_result, vector_tx = run_sparse_subvector_with(
            "vectorized", normalized, n)
        assert scalar_result.value.entries == vector_result.value.entries
        assert scalar_tx.messages == vector_tx.messages


# -- sum-check point-buffer refactor ----------------------------------------


def test_sumcheck_buffer_reuse_matches_naive_enumeration():
    p = F.p
    rng = random.Random(59)
    coeffs = {}

    def f(point):
        # A little multilinear-ish polynomial keyed on the snapshot of the
        # point; verifies the buffer holds the right values at call time.
        key = tuple(int(v) % p for v in point)
        if key not in coeffs:
            coeffs[key] = rng.randrange(1000)
        return (sum((i + 1) * v for i, v in enumerate(key)) + coeffs[key]) % p

    n = 5
    naive = sum(
        f([(mask >> j) & 1 for j in range(n)]) for mask in range(1 << n)
    ) % p
    assert boolean_sum(F, f, n) == naive

    prefix = [rng.randrange(p) for _ in range(2)]
    msg = round_message(F, f, n, prefix, degree=2)
    expected = []
    for c in range(3):
        acc = 0
        for mask in range(1 << (n - 3)):
            point = list(prefix) + [c] + [
                (mask >> t) & 1 for t in range(n - 3)
            ]
            acc += f(point)
        expected.append(acc % p)
    assert msg == expected


def test_round_message_full_prefix():
    # j = num_vars - 1: no suffix variables at all.
    def f(point):
        return (3 * point[0] + point[1]) % F.p

    msg = round_message(F, f, 2, [5], degree=1)
    assert msg == [(15 + 0) % F.p, (15 + 1) % F.p]


# -- GKR (layer sum-check engine + full protocol) ----------------------------


def _random_layered_circuit(seed):
    """A small irregular circuit exercising add/mul mixes and fan-out."""
    from repro.gkr.circuits import ADD, MUL, Gate, LayeredCircuit

    rng = random.Random(seed)
    # Wires of layer i index layer i+1 (or the input layer at the bottom).
    sizes = [2, 4, 8, 16]
    layers = []
    for li, width in enumerate(sizes[:-1]):
        wire_range = sizes[li + 1]
        layers.append(
            [
                Gate(rng.choice([ADD, MUL]), rng.randrange(wire_range),
                     rng.randrange(wire_range))
                for _ in range(width)
            ]
        )
    return LayeredCircuit(layers, input_size=16)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_sumcheck_matches_bruteforce_reference(seed):
    """LayerSumcheck (both backends) vs the brute-force closure prover."""
    from repro.gkr.circuits import ADD, num_vars
    from repro.gkr.mle import eq_table, mle_eval, pad_to_power_of_two
    from repro.gkr.sumcheck import LayerSumcheck
    from repro.field.vectorized import canonical_table

    rng = random.Random(100 + seed)
    circuit = _random_layered_circuit(seed)
    inputs = [rng.randrange(50) for _ in range(16)]
    values = circuit.evaluate(F, inputs)
    i = rng.randrange(circuit.depth)
    gates = circuit.layers[i]
    b_next = num_vars(circuit.layer_size(i + 1))
    z = F.rand_vector(rng, num_vars(circuit.layer_size(i)))
    chal = F.rand_vector(rng, 2 * b_next)
    table_vals = pad_to_power_of_two(values[i + 1])
    p = F.p

    # Brute-force reference: enumerate the layer polynomial directly.
    from repro.gkr.mle import eq_eval
    from repro.gkr.sumcheck import round_message

    eq_z = [eq_eval(F, g, num_vars(len(gates)), z) for g in range(len(gates))]

    def layer_poly(pt):
        x = pt[:b_next]
        y = pt[b_next:]
        wx = mle_eval(F, table_vals, x)
        wy = mle_eval(F, table_vals, y)
        add_acc = 0
        mult_acc = 0
        for gidx, gate in enumerate(gates):
            w = (
                eq_z[gidx]
                * eq_eval(F, gate.left, b_next, x) % p
                * eq_eval(F, gate.right, b_next, y) % p
            )
            if gate.op == ADD:
                add_acc += w
            else:
                mult_acc += w
        return (add_acc * (wx + wy) + mult_acc * wx * wy) % p

    expected = []
    prefix = []
    for j in range(2 * b_next):
        expected.append(round_message(F, layer_poly, 2 * b_next, prefix, 2))
        prefix.append(chal[j])

    for backend_name in ("scalar", "vectorized"):
        be = get_backend(F, backend_name)
        ls = LayerSumcheck(
            F, gates, b_next,
            eq_table(F, z, backend=be),
            canonical_table(be, F, table_vals),
            backend=be,
        )
        got = []
        for j in range(2 * b_next):
            got.append([int(v) for v in ls.round_message()])
            ls.receive_challenge(chal[j])
        assert got == expected, backend_name
        wx, wy = ls.final_claims()
        assert wx == mle_eval(F, table_vals, chal[:b_next])
        assert wy == mle_eval(F, table_vals, chal[b_next:])
        from repro.gkr.protocol import wiring_mle_at

        assert ls.wiring_values() == wiring_mle_at(
            F, gates, num_vars(len(gates)), b_next, z,
            chal[:b_next], chal[b_next:],
        )


def run_gkr_with(backend_name):
    from repro.gkr.circuits import f2_circuit
    from repro.gkr.protocol import GKRProver, StreamingGKRVerifier, run_gkr

    stream = uniform_frequency_stream(64, max_frequency=20,
                                      rng=random.Random(61))
    circuit = f2_circuit(64)
    backend = get_backend(F, backend_name)
    verifier = StreamingGKRVerifier(F, circuit, rng=random.Random(67),
                                    backend=backend)
    prover = GKRProver(F, circuit, backend=backend)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    ch = Channel()
    result = run_gkr(prover, verifier, ch)
    assert result.accepted, result.reason
    return result, ch.transcript


@needs_numpy
def test_gkr_transcript_identical_across_backends():
    scalar_result, scalar_tx = run_gkr_with("scalar")
    vector_result, vector_tx = run_gkr_with("vectorized")
    assert scalar_result.value == vector_result.value
    assert scalar_tx.messages == vector_tx.messages


@needs_numpy
def test_eq_table_matches_eq_eval():
    from repro.gkr.mle import eq_eval, eq_table

    rng = random.Random(71)
    point = F.rand_vector(rng, 5)
    scalar = eq_table(F, point, backend=ScalarBackend(F))
    vector = eq_table(F, point)
    expected = [eq_eval(F, idx, 5, point) for idx in range(32)]
    assert list(scalar) == expected
    assert [int(v) for v in vector] == expected


@needs_numpy
def test_mle_helpers_identical_across_backends():
    from repro.gkr.mle import mle_eval, pad_to_power_of_two, restrict_to_line

    rng = random.Random(73)
    values = [rng.randrange(-50, 50) for _ in range(13)]  # padded to 16
    point = F.rand_vector(rng, 4)
    be = get_backend(F, "vectorized")
    sb = ScalarBackend(F)
    assert mle_eval(F, values, point, backend=sb) == \
        mle_eval(F, values, point, backend=be)
    padded = pad_to_power_of_two(values, backend=be)
    assert [int(v) for v in padded] == pad_to_power_of_two(values, backend=sb)
    assert pad_to_power_of_two(values, backend=sb) == \
        [v % F.p for v in pad_to_power_of_two(values)]
    start = F.rand_vector(rng, 4)
    end = F.rand_vector(rng, 4)
    assert restrict_to_line(F, values, start, end, 5, backend=be) == \
        restrict_to_line(F, values, start, end, 5, backend=sb)


@needs_numpy
def test_circuit_evaluate_identical_across_backends():
    from repro.gkr.circuits import f2_circuit

    rng = random.Random(79)
    circuit = f2_circuit(32)
    inputs = [rng.randrange(-100, 100) for _ in range(32)]
    scalar = circuit.evaluate(F, inputs, backend=ScalarBackend(F))
    vector = circuit.evaluate(F, inputs, backend=get_backend(F, "vectorized"))
    assert scalar == vector
    assert scalar[-1] == [v % F.p for v in inputs]
    assert scalar[0] == [sum(v * v for v in inputs) % F.p]


# -- distributed (sharded) ----------------------------------------------------


def run_sharded_with(backend_name, workers=4):
    from repro.distributed.sharded import (
        DistributedF2Prover,
        run_distributed_f2,
    )

    stream = uniform_frequency_stream(200, max_frequency=40,
                                      rng=random.Random(83))
    point = F.rand_vector(random.Random(89), 8)
    verifier = F2Verifier(F, 256, point=point)
    prover = DistributedF2Prover(F, 256, num_workers=workers,
                                 backend=get_backend(F, backend_name))
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    ch = Channel()
    result = run_distributed_f2(prover, verifier, ch)
    assert result.accepted
    return result, ch.transcript


@needs_numpy
@pytest.mark.parametrize("workers", [1, 4, 8])
def test_sharded_transcript_identical_across_backends(workers):
    scalar_result, scalar_tx = run_sharded_with("scalar", workers)
    vector_result, vector_tx = run_sharded_with("vectorized", workers)
    assert scalar_result.value == vector_result.value
    assert scalar_tx.messages == vector_tx.messages


# -- batched multiquery --------------------------------------------------------


def run_batch_with(backend_name):
    from repro.core.multiquery import run_batch_range_sum
    from repro.core.range_sum import RangeSumVerifier

    stream = uniform_frequency_stream(128, max_frequency=25,
                                      rng=random.Random(97))
    point = F.rand_vector(random.Random(101), 7)
    backend = get_backend(F, backend_name)
    verifier = RangeSumVerifier(F, 128, point=point)
    prover = BatchedSumcheckEngine(F, 128, backend=backend)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process_a(i, delta)
    ch = Channel()
    results = run_batch_range_sum(
        prover, verifier, [(0, 30), (31, 90), (5, 127), (64, 64)], ch
    )
    assert all(r.accepted for r in results)
    return results, ch


@needs_numpy
def test_batch_multiquery_identical_across_backends():
    scalar_results, scalar_ch = run_batch_with("scalar")
    vector_results, vector_ch = run_batch_with("vectorized")
    assert [r.value for r in scalar_results] == \
        [r.value for r in vector_results]
    assert scalar_ch.transcript.messages == vector_ch.transcript.messages
    assert scalar_ch.query_words == vector_ch.query_words
    assert scalar_ch.shared_words == vector_ch.shared_words


# -- multipoint streaming LDE edge cases --------------------------------------


def _multipoint_pair(u=48, npoints=3, seed=103):
    rng = random.Random(seed)
    d = StreamingLDE(F, u, ell=2, rng=rng,
                     backend=ScalarBackend(F)).d
    points = [F.rand_vector(random.Random(seed + k), d)
              for k in range(npoints)]
    scalar = MultipointStreamingLDE(F, u, points, backend=ScalarBackend(F))
    vector = MultipointStreamingLDE(F, u, points)
    return scalar, vector


@needs_numpy
def test_multipoint_batched_single_update_blocks():
    scalar, vector = _multipoint_pair()
    updates = mixed_updates(48, 37, seed=107)
    scalar.process_stream(updates)
    vector.process_stream_batched(updates, block=1)  # one update per block
    assert vector.values == scalar.values


@needs_numpy
def test_multipoint_batched_block_larger_than_stream():
    scalar, vector = _multipoint_pair()
    updates = mixed_updates(48, 9, seed=109)
    scalar.process_stream(updates)
    vector.process_stream_batched(updates, block=10_000)
    assert vector.values == scalar.values


@needs_numpy
def test_multipoint_batched_duplicate_indices_within_block():
    scalar, vector = _multipoint_pair()
    # Every key repeats, including insert-then-delete pairs in one block.
    updates = [(7, 5), (7, -5), (3, 2), (3, 9), (3, -1), (47, 1), (47, 10)]
    scalar.process_stream(updates)
    vector.process_stream_batched(updates, block=len(updates))
    assert vector.values == scalar.values
    assert scalar.evaluators[0].updates_processed == len(updates)
    assert vector.evaluators[0].updates_processed == len(updates)


@needs_numpy
def test_multipoint_batched_empty_and_invalid():
    scalar, vector = _multipoint_pair()
    vector.process_stream_batched([], block=4)
    assert vector.values == scalar.values  # all zero
    with pytest.raises(ValueError):
        vector.process_stream_batched([(48, 1)])
    with pytest.raises(ValueError):
        vector.process_stream_batched([(0, 1)], block=0)
