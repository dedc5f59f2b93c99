"""Tests for the GKR protocol with a streaming verifier (Thm 3 / App. A)."""

from __future__ import annotations

import random

import pytest

from repro.comm.channel import Channel, flip_word
from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import get_backend
from repro.gkr.circuits import (
    ADD,
    Gate,
    LayeredCircuit,
    f2_circuit,
    inner_product_circuit,
    num_vars,
    sum_circuit,
)
from repro.gkr.mle import (
    eq_eval,
    line_points,
    mle_eval,
    pad_to_power_of_two,
    restrict_to_line,
)
from repro.gkr.protocol import (
    GKRProver,
    StreamingGKRVerifier,
    gkr_protocol,
    run_gkr,
)
from repro.gkr.sumcheck import boolean_sum, round_message
from repro.streams.model import Stream

F = DEFAULT_FIELD


def _outputs(circuit, inputs):
    """The circuit's output layer on ``inputs``, as a list."""
    be = get_backend(F)
    return be.to_list(circuit.evaluate_arrays(F, inputs, be)[0])


# -- circuits ------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("xor", 0, 1)


def test_circuit_wire_validation():
    with pytest.raises(ValueError):
        LayeredCircuit([[Gate(ADD, 0, 2)]], input_size=2)


def test_circuit_shape_validation():
    with pytest.raises(ValueError):
        LayeredCircuit([[Gate(ADD, 0, 1)]], input_size=3)
    with pytest.raises(ValueError):
        LayeredCircuit([], input_size=2)


def test_f2_circuit_evaluates():
    c = f2_circuit(8)
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    assert _outputs(c, a) == [sum(x * x for x in a) % F.p]
    assert c.depth == 4  # square layer + 3 sum layers


def test_sum_circuit_evaluates():
    c = sum_circuit(16)
    a = list(range(16))
    assert _outputs(c, a) == [sum(a)]


def test_inner_product_circuit_evaluates():
    c = inner_product_circuit(8)
    vec = [1, 2, 3, 4, 10, 20, 30, 40]
    assert _outputs(c, vec) == [10 + 40 + 90 + 160]


def test_num_vars():
    assert num_vars(1) == 0
    assert num_vars(8) == 3
    with pytest.raises(ValueError):
        num_vars(6)


# -- MLE helpers ---------------------------------------------------------------


def test_mle_agrees_on_hypercube():
    values = [7, 1, 9, 4]
    for i, v in enumerate(values):
        point = [(i >> j) & 1 for j in range(2)]
        assert mle_eval(F, values, point) == v


def test_mle_matches_streaming_lde():
    from repro.lde.streaming import StreamingLDE

    rng = random.Random(1)
    point = F.rand_vector(rng, 4)
    values = [rng.randrange(100) for _ in range(16)]
    assert mle_eval(F, values, point) == StreamingLDE.direct_evaluate(
        F, values, 2, point
    )


def test_mle_dimension_check():
    with pytest.raises(ValueError):
        mle_eval(F, [1, 2, 3, 4], [1])


def test_eq_eval_is_indicator():
    for idx in range(8):
        for other in range(8):
            point = [(other >> j) & 1 for j in range(3)]
            assert eq_eval(F, idx, 3, point) == (1 if idx == other else 0)


def test_line_and_restriction():
    rng = random.Random(2)
    values = [rng.randrange(50) for _ in range(8)]
    start = F.rand_vector(rng, 3)
    end = F.rand_vector(rng, 3)
    q = restrict_to_line(F, values, start, end, 4)
    assert q[0] == mle_eval(F, values, start)
    assert q[1] == mle_eval(F, values, end)
    # The degree-3 interpolant matches the MLE anywhere on the line.
    from repro.field.polynomial import evaluate_from_evals

    t = F.rand(rng)
    assert evaluate_from_evals(F, q, t) == mle_eval(
        F, values, line_points(F, start, end, t)
    )


def test_pad_to_power_of_two():
    assert pad_to_power_of_two([1, 2, 3]) == [1, 2, 3, 0]
    assert pad_to_power_of_two([]) == [0]


# -- generic sum-check ------------------------------------------------------------


def test_sumcheck_messages_consistent():
    rng = random.Random(3)
    table = [rng.randrange(20) for _ in range(8)]

    def f(pt):
        return mle_eval(F, table, pt)

    total = boolean_sum(F, f, 3)
    assert total == sum(table) % F.p
    msg = round_message(F, f, 3, [], degree=1)
    assert (msg[0] + msg[1]) % F.p == total


# -- the protocol -------------------------------------------------------------------


def run_on(circuit, stream, seed=0, channel=None):
    verifier = StreamingGKRVerifier(F, circuit, rng=random.Random(seed))
    prover = GKRProver(F, circuit)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_gkr(prover, verifier, channel)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_gkr_f2_completeness(size):
    rng = random.Random(size)
    stream = Stream(size, [(rng.randrange(size), rng.randint(-4, 6))
                           for _ in range(2 * size)])
    result = run_on(f2_circuit(size), stream, seed=size + 1)
    assert result.accepted
    assert result.value == [stream.self_join_size() % F.p]


def test_gkr_sum_completeness():
    stream = Stream(8, [(1, 5), (6, 7)])
    result = run_on(sum_circuit(8), stream)
    assert result.accepted
    assert result.value == [12]


def test_gkr_inner_product_completeness():
    # First half = a, second half = b.
    stream = Stream(8, [(0, 2), (1, 3), (4, 10), (5, 20)])
    result = run_on(inner_product_circuit(8), stream)
    assert result.accepted
    assert result.value == [2 * 10 + 3 * 20]


def test_gkr_lying_output_rejected():
    circuit = f2_circuit(8)
    stream = Stream(8, [(0, 3)])
    channel = Channel(
        tamper=lambda m: [m.payload[0] + 1]
        if m.label == "outputs"
        else m.payload
    )
    result = run_on(circuit, stream, channel=channel)
    assert not result.accepted


def test_gkr_tampered_sumcheck_rejected():
    circuit = f2_circuit(8)
    stream = Stream(8, [(0, 3), (5, 2)])
    channel = Channel(tamper=flip_word(round_index=3, position=1))
    result = run_on(circuit, stream, channel=channel)
    assert not result.accepted


def test_gkr_tampered_line_restriction_rejected():
    circuit = f2_circuit(8)
    stream = Stream(8, [(2, 4)])
    channel = Channel(
        tamper=lambda m: [v + 1 for v in m.payload]
        if m.label.endswith("-line")
        else m.payload
    )
    result = run_on(circuit, stream, channel=channel)
    assert not result.accepted


def test_gkr_lying_input_claims_rejected():
    """Claims about the input MLE are checked against the streamed values."""
    circuit = sum_circuit(8)
    stream = Stream(8, [(1, 9)])
    last_layer = circuit.depth - 1
    channel = Channel(
        tamper=lambda m: [m.payload[0] + 1, m.payload[1]]
        if m.label == "layer%d-claims" % last_layer
        else m.payload
    )
    result = run_on(circuit, stream, channel=channel)
    assert not result.accepted


def test_gkr_cost_shape_log_squared():
    """GKR costs ~d·log u rounds vs log u for the specialised protocol —
    the quadratic-improvement claim after Theorem 4."""
    from repro.core.f2 import F2Verifier, run_f2
    from repro.core.multiquery import BatchedSumcheckEngine

    for size, updates in ((8, [(3, 2), (6, 5)]), (16, [(3, 2), (9, 5)])):
        stream = Stream(size, updates)
        gkr_result = run_on(f2_circuit(size), stream, seed=7)
        verifier = F2Verifier(F, size, rng=random.Random(8))
        prover = BatchedSumcheckEngine(F, size)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        f2_result = run_f2(prover, verifier)
        assert gkr_result.accepted and f2_result.accepted
        assert gkr_result.value == [f2_result.value]
        assert gkr_result.transcript.rounds > 2 * f2_result.transcript.rounds
        assert (gkr_result.transcript.total_words
                >= 2 * f2_result.transcript.total_words)


def test_gkr_input_points_predrawn():
    """The streaming hook: input evaluation points are known pre-stream."""
    circuit = f2_circuit(8)
    verifier = StreamingGKRVerifier(F, circuit, rng=random.Random(9))
    rx, ry = verifier.coins.input_points()
    assert verifier.lde_x.point == rx
    assert verifier.lde_y.point == ry


def test_gkr_end_to_end_helper():
    stream = Stream(4, [(0, 1), (3, 2)])
    result = gkr_protocol(f2_circuit(4), stream, F, rng=random.Random(10))
    assert result.accepted
    assert result.value == [5]
