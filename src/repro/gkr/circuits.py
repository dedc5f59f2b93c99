"""Layered arithmetic circuits for the GKR protocol (Appendix A).

A :class:`LayeredCircuit` has gate layers 0..L-1 (layer 0 = output) over an
input layer of power-of-two size; every gate is fan-in-2 ``add`` or ``mul``
reading two values from the layer below.  These are the circuits the
"Interactive Proofs for Muggles" construction (Theorem 3) delegates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.field.modular import PrimeField

ADD = "add"
MUL = "mul"


@dataclass(frozen=True)
class Gate:
    """A fan-in-2 gate; ``left``/``right`` index the layer below."""

    op: str
    left: int
    right: int

    def __post_init__(self):
        if self.op not in (ADD, MUL):
            raise ValueError("unknown gate op %r" % (self.op,))


def layer_wiring(backend, gates: Sequence[Gate]):
    """One gate layer as backend index arrays ``(left, right, add_mask,
    add_sel, mul_sel)``: the wire columns, the 0/1 op column the
    evaluator selects with, and the gate indices of each op — the
    partition the layer sum-check prover gathers through."""
    is_add = [1 if g.op == ADD else 0 for g in gates]
    add_mask = backend.index_array(is_add)
    return (
        backend.index_array([g.left for g in gates]),
        backend.index_array([g.right for g in gates]),
        add_mask,
        backend.nonzero(add_mask),
        backend.nonzero([1 - a for a in is_add]),
    )


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def num_vars(size: int) -> int:
    """log2 of a power-of-two layer size (0 for a single value)."""
    if not _is_power_of_two(size):
        raise ValueError("layer size %d is not a power of two" % size)
    return size.bit_length() - 1


class LayeredCircuit:
    """Fan-in-2 layered circuit; ``layers[0]`` produces the outputs."""

    def __init__(self, layers: Sequence[Sequence[Gate]], input_size: int):
        if not _is_power_of_two(input_size):
            raise ValueError("input size must be a power of two")
        if not layers:
            raise ValueError("circuit needs at least one gate layer")
        self.layers: List[List[Gate]] = [list(layer) for layer in layers]
        self.input_size = input_size
        self._wiring_arrays = {}  # backend-name keyed index-array cache
        for i, layer in enumerate(self.layers):
            if not _is_power_of_two(len(layer)):
                raise ValueError("layer %d size is not a power of two" % i)
            below = (
                len(self.layers[i + 1])
                if i + 1 < len(self.layers)
                else input_size
            )
            for gate in layer:
                if not (0 <= gate.left < below and 0 <= gate.right < below):
                    raise ValueError(
                        "layer %d gate wires out of range [0, %d)" % (i, below)
                    )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer_size(self, i: int) -> int:
        """Size of value layer i (i = depth means the input layer)."""
        if i == self.depth:
            return self.input_size
        return len(self.layers[i])

    def wiring_arrays(self, backend):
        """Per-layer :func:`layer_wiring` arrays, cached per backend kind,
        so repeated proofs over one circuit never re-walk the Gate
        objects."""
        key = getattr(backend, "name", "scalar")
        cached = self._wiring_arrays.get(key)
        if cached is None:
            cached = [layer_wiring(backend, layer) for layer in self.layers]
            self._wiring_arrays[key] = cached
        return cached

    def evaluate_arrays(self, field: PrimeField, inputs: Sequence[int],
                        backend) -> List[object]:
        """All layer values as canonical backend arrays: per layer two
        gathers and one masked add/mul over the whole gate array.

        The proof driver keeps layer tables in this form end to end;
        only the output layer crosses the channel as plain words.
        """
        if len(inputs) != self.input_size:
            raise ValueError(
                "expected %d inputs, got %d" % (self.input_size, len(inputs))
            )
        be = backend
        arrays = [be.asarray(inputs)]
        wiring = self.wiring_arrays(be)
        for li in range(self.depth - 1, -1, -1):
            left, right, add_mask, _add_sel, _mul_sel = wiring[li]
            a = be.take(arrays[0], left)
            b = be.take(arrays[0], right)
            arrays.insert(0, be.select(add_mask, be.add(a, b), be.mul(a, b)))
        return arrays


def sum_tree_layers(width: int) -> List[List[Gate]]:
    """Binary add-tree layers reducing ``width`` values to one."""
    layers: List[List[Gate]] = []
    size = width
    while size > 1:
        size //= 2
        layers.insert(
            0, [Gate(ADD, 2 * t, 2 * t + 1) for t in range(size)]
        )
    return layers


def f2_circuit(input_size: int) -> LayeredCircuit:
    """The F2 circuit: square every input, then a binary sum tree.

    Depth Θ(log u) — the smallest possible for F2 (Section 3.1 remark), so
    this is the circuit behind the (log² u, log² u) Theorem 3 comparison.
    """
    square_layer = [Gate(MUL, i, i) for i in range(input_size)]
    return LayeredCircuit(
        sum_tree_layers(input_size) + [square_layer], input_size
    )


def sum_circuit(input_size: int) -> LayeredCircuit:
    """F1: just the binary sum tree."""
    return LayeredCircuit(sum_tree_layers(input_size), input_size)


def inner_product_circuit(input_size: int) -> LayeredCircuit:
    """Inner product of the two halves of the input vector."""
    if input_size < 2 or input_size % 2:
        raise ValueError("inner product needs an even input size >= 2")
    half = input_size // 2
    mul_layer = [Gate(MUL, i, half + i) for i in range(half)]
    return LayeredCircuit(sum_tree_layers(half) + [mul_layer], input_size)
