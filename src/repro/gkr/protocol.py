"""The GKR protocol ("Interactive Proofs for Muggles") with a streaming
verifier — Theorem 3 / Appendix A.

Per layer i the claim ``Ṽ_i(z) = m`` is reduced, via a 2·b_{i+1}-variable
sum-check over

    F(x, y) = add̃_i(z,x,y)·(Ṽ_{i+1}(x) + Ṽ_{i+1}(y))
            + mult̃_i(z,x,y)·Ṽ_{i+1}(x)·Ṽ_{i+1}(y),

to two claims about layer i+1, which a line-restriction message merges
into one (Rothblum's observation, footnote 2).  At the input layer the
line reduction is skipped: the two points are the *pre-drawn* sum-check
coins of the final layer, so a streaming verifier can evaluate the input
MLE at both while observing the stream (this is the Appendix A fact that
the final test "can be chosen at random independent of the data").

Costs: O(depth · log u) rounds and words — the (log² u, log² u) comparison
point for F2 quoted after Theorem 4.

The prover side is written once over the backend seam: layer values,
the per-layer sum-check (:class:`repro.gkr.sumcheck.LayerSumcheck`) and
the line restriction are backend-array operations on either backend, and
the input-layer MLE is maintained through the batched multipoint
streaming LDE.  Transcripts are byte-identical across backends.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, accepted, rejected
from repro.field.modular import PrimeField
from repro.field.polynomial import evaluate_from_evals
from repro.field.vectorized import get_backend
from repro.gkr.circuits import ADD, Gate, LayeredCircuit, num_vars
from repro.gkr.mle import (
    eq_eval,
    eq_table,
    line_points,
    mle_eval,
    pad_to_power_of_two,
    restrict_to_line,
)
from repro.gkr.sumcheck import LayerSumcheck
from repro.lde.streaming import DEFAULT_BLOCK, MultipointStreamingLDE


class GKRCoins:
    """All verifier randomness, drawn before the stream (a fixed tape).

    The coin positions are a function of the circuit shape only, so the
    input-layer evaluation points are known before any data arrives.
    """

    def __init__(self, field: PrimeField, circuit: LayeredCircuit,
                 rng: random.Random):
        self.z0 = field.rand_vector(rng, num_vars(circuit.layer_size(0)))
        self.challenges: List[List[int]] = []
        self.taus: List[int] = []
        for i in range(circuit.depth):
            b_next = num_vars(circuit.layer_size(i + 1))
            self.challenges.append(field.rand_vector(rng, 2 * b_next))
            if i < circuit.depth - 1:
                self.taus.append(field.rand(rng))

    def input_points(self) -> Tuple[List[int], List[int]]:
        chal = self.challenges[-1]
        b = len(chal) // 2
        return chal[:b], chal[b:]


def wiring_mle_at(
    field: PrimeField,
    gates: Sequence[Gate],
    b_layer: int,
    b_next: int,
    z: Sequence[int],
    x: Sequence[int],
    y: Sequence[int],
) -> Tuple[int, int]:
    """(add̃, mult̃) evaluated at (z, x, y), gate by gate.

    The definition the layer prover's folded tables must agree with
    (:meth:`repro.gkr.sumcheck.LayerSumcheck.wiring_values`, which the
    protocol uses): O(G·(b_layer + 2·b_next)) from the public circuit
    description.
    """
    p = field.p
    add_acc = 0
    mult_acc = 0
    for gidx, gate in enumerate(gates):
        w = (
            eq_eval(field, gidx, b_layer, z)
            * eq_eval(field, gate.left, b_next, x)
            % p
            * eq_eval(field, gate.right, b_next, y)
            % p
        )
        if gate.op == ADD:
            add_acc += w
        else:
            mult_acc += w
    return add_acc % p, mult_acc % p


class GKRProver:
    """Honest prover: stores the input vector, evaluates the circuit.

    ``backend`` selects the compute path for the proof phase (circuit
    evaluation, layer sum-checks, line restrictions); defaults to the
    REPRO_BACKEND / auto selection.
    """

    def __init__(self, field: PrimeField, circuit: LayeredCircuit,
                 backend=None):
        self.field = field
        self.circuit = circuit
        self.backend = backend if backend is not None else get_backend(field)
        self.inputs: List[int] = [0] * circuit.input_size

    def process(self, i: int, delta: int) -> None:
        size = self.circuit.input_size
        if not 0 <= i < size:
            raise ValueError("key %d outside universe [0, %d)" % (i, size))
        self.inputs[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)


class StreamingGKRVerifier:
    """Pre-draws the coin tape, streams the input MLE at the two points the
    final sum-check will land on.

    The two input-layer evaluations share one multipoint streaming LDE, so
    :meth:`process_stream` digitises each key block once and pays only the
    per-point table gathers (the batched Theorem 1 path)."""

    def __init__(
        self,
        field: PrimeField,
        circuit: LayeredCircuit,
        rng: Optional[random.Random] = None,
        backend=None,
    ):
        self.field = field
        self.circuit = circuit
        rng = rng or random.Random()
        self.coins = GKRCoins(field, circuit, rng)
        rx, ry = self.coins.input_points()
        self._mlde = MultipointStreamingLDE(
            field, circuit.input_size, [rx, ry], ell=2, backend=backend
        )
        self.lde_x, self.lde_y = self._mlde.evaluators

    def process(self, i: int, delta: int) -> None:
        self._mlde.update(i, delta)

    def process_stream(self, updates) -> None:
        self._mlde.process_stream_batched(updates)

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        self._mlde.process_stream_batched(updates, block=block)

    @property
    def space_words(self) -> int:
        coins = (
            len(self.coins.z0)
            + sum(len(c) for c in self.coins.challenges)
            + len(self.coins.taus)
        )
        return coins + 2  # tape + the two running input-MLE values


def run_gkr(
    prover: GKRProver,
    verifier: StreamingGKRVerifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the full GKR protocol; the value is the verified output list."""
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    circuit = verifier.circuit
    coins = verifier.coins
    be = getattr(prover, "backend", None)
    if be is None:
        be = get_backend(field)
    round_counter = 0

    # Layer values stay backend arrays end to end; only the output layer
    # crosses the channel as plain words.
    values = circuit.evaluate_arrays(field, prover.inputs, be)
    outputs_payload = be.to_list(values[0])
    claimed_outputs = ch.prover_says(round_counter, "outputs", outputs_payload)
    if len(claimed_outputs) != circuit.layer_size(0):
        return rejected(ch.transcript, "wrong number of outputs",
                        verifier.space_words)
    claimed_outputs = [v % p for v in claimed_outputs]
    round_counter += 1

    z = coins.z0
    m = mle_eval(field, claimed_outputs, z, backend=be)
    wiring_arrays = circuit.wiring_arrays(be)

    for i in range(circuit.depth):
        gates = circuit.layers[i]
        b_next = num_vars(circuit.layer_size(i + 1))
        n = 2 * b_next
        chal = coins.challenges[i]
        values_next = pad_to_power_of_two(values[i + 1], backend=be)
        eq_z = eq_table(field, z, backend=be)
        layer = LayerSumcheck(
            field, gates, b_next, eq_z, values_next,
            backend=be, wiring=wiring_arrays[i],
        )

        prev = m
        for j in range(n):
            msg = ch.prover_says(
                round_counter,
                "layer%d-g%d" % (i, j),
                layer.round_message(),
            )
            if len(msg) != 3:
                return rejected(
                    ch.transcript,
                    "layer %d round %d: malformed sum-check message" % (i, j),
                    verifier.space_words,
                )
            evals = [v % p for v in msg]
            if (evals[0] + evals[1]) % p != prev:
                return rejected(
                    ch.transcript,
                    "layer %d round %d: sum-check invariant violated" % (i, j),
                    verifier.space_words,
                )
            prev = evaluate_from_evals(field, evals, chal[j])
            ch.verifier_says(round_counter, "layer%d-r%d" % (i, j), [chal[j]])
            layer.receive_challenge(chal[j])
            round_counter += 1

        rx = chal[:b_next]
        ry = chal[b_next:]
        claims = ch.prover_says(
            round_counter, "layer%d-claims" % i, list(layer.final_claims())
        )
        if len(claims) != 2:
            return rejected(ch.transcript, "layer %d: malformed claims" % i,
                            verifier.space_words)
        wx, wy = claims[0] % p, claims[1] % p
        round_counter += 1

        # The folded per-op eq tables of the layer sum-check are exactly
        # add̃/mult̃ at (z, rx, ry) — same values wiring_mle_at computes,
        # already paid for.  The challenges come from the pre-drawn coin
        # tape, so tampered prover messages cannot influence them.
        add_v, mult_v = layer.wiring_values()
        if prev != (add_v * (wx + wy) + mult_v * wx * wy) % p:
            return rejected(
                ch.transcript,
                "layer %d: final sum-check value does not match the wiring" % i,
                verifier.space_words,
            )

        if i == circuit.depth - 1:
            if wx != verifier.lde_x.value or wy != verifier.lde_y.value:
                return rejected(
                    ch.transcript,
                    "input layer: claimed MLE values do not match the stream",
                    verifier.space_words,
                )
        else:
            line_msg = ch.prover_says(
                round_counter,
                "layer%d-line" % i,
                restrict_to_line(
                    field, values_next, rx, ry, b_next + 1, backend=be
                ),
            )
            if len(line_msg) != b_next + 1:
                return rejected(
                    ch.transcript,
                    "layer %d: malformed line restriction" % i,
                    verifier.space_words,
                )
            q = [v % p for v in line_msg]
            if q[0] != wx or (len(q) > 1 and q[1] != wy) or (len(q) == 1 and wx != wy):
                return rejected(
                    ch.transcript,
                    "layer %d: line restriction disagrees with the claims" % i,
                    verifier.space_words,
                )
            tau = coins.taus[i]
            ch.verifier_says(round_counter, "layer%d-tau" % i, [tau])
            z = line_points(field, rx, ry, tau)
            m = evaluate_from_evals(field, q, tau)
            round_counter += 1

    return accepted(ch.transcript, claimed_outputs, verifier.space_words)


def gkr_protocol(
    circuit: LayeredCircuit,
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end GKR over a :class:`repro.streams.Stream` as input vector."""
    rng = rng or random.Random(0)
    verifier = StreamingGKRVerifier(field, circuit, rng=rng)
    prover = GKRProver(field, circuit)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    return run_gkr(prover, verifier, channel)
