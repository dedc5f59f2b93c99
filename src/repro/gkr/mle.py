"""Multilinear extensions over the boolean hypercube.

``mle_eval`` evaluates the unique multilinear polynomial agreeing with a
value table on {0,1}^b at an arbitrary field point, by successive folding
(O(2^b) field operations).  Variable 0 is the least-significant bit of the
table index, matching the digit convention of :mod:`repro.lde`.

Every evaluator takes an optional compute ``backend`` (see
:func:`repro.field.vectorized.get_backend`) and is written once over its
API: :func:`mle_eval` is one ``fold_pairs`` per variable, and
:func:`restrict_to_line` folds all ``b + 1`` line points as one stacked
``rows_fold`` per variable.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.field.modular import PrimeField
from repro.field.vectorized import fold_pairs, get_backend


def pad_to_power_of_two(values: Sequence[int], backend=None):
    """Zero-pad a table to the next power-of-two length (min length 1).

    Returns a plain list by default; given a ``backend``, that backend's
    canonical table (a NumPy input is reduced without a Python-level
    pass over the payload).
    """
    n = len(values)
    size = 1 << max(n - 1, 0).bit_length()
    if backend is None:
        return list(values) + [0] * (size - n)
    table = backend.asarray(values)
    if n < size:
        table = backend.concat(table, backend.zeros(size - n))
    return table


def _padded_table(values: Sequence[int], num_vars: int, be):
    """:func:`pad_to_power_of_two`, checked to have ``num_vars`` variables."""
    table = pad_to_power_of_two(values, backend=be)
    if len(table) != 1 << num_vars:
        raise ValueError(
            "table of %d values needs %d variables, got %d"
            % (len(table), (len(table) - 1).bit_length(), num_vars)
        )
    return table


def mle_eval(
    field: PrimeField,
    values: Sequence[int],
    point: Sequence[int],
    backend=None,
) -> int:
    """Evaluate the MLE of ``values`` (length 2^b) at ``point`` (length b)."""
    be = backend if backend is not None else get_backend(field)
    table = _padded_table(values, len(point), be)
    for r in point:  # fold out the least-significant variable each pass
        table = fold_pairs(be, field, table, r)
    return int(table[0]) % field.p


def eq_eval(field: PrimeField, index: int, nbits: int, point: Sequence[int]) -> int:
    """The boolean-indicator MLE: eq(point, bits(index)) in O(b)."""
    if len(point) != nbits:
        raise ValueError("point has %d coords, expected %d" % (len(point), nbits))
    p = field.p
    acc = 1
    for j in range(nbits):
        r = point[j]
        if (index >> j) & 1:
            acc = acc * r % p
        else:
            acc = acc * (1 - r) % p
    return acc


def eq_table(field: PrimeField, point: Sequence[int], backend=None):
    """All ``2^b`` indicator values ``eq(idx, point)`` in one tensor build.

    ``out[idx] = Π_j eq(idx_j, point_j)`` with variable j the j-th bit of
    ``idx`` — equivalent to ``[eq_eval(field, idx, b, point) ...]`` but
    O(2^b) total instead of O(b·2^b), and one doubling concat per variable
    under a vectorized backend.  This is how the GKR layer prover turns
    per-gate ``eq_z`` evaluation into a single table gather.
    """
    be = backend if backend is not None else get_backend(field)
    p = field.p
    table = be.asarray([1])
    for r in point:
        high = be.mul(table, r % p)
        table = be.concat(be.sub(table, high), high)  # (1-r)·T = T - r·T
    return table


def line_points(
    field: PrimeField, start: Sequence[int], end: Sequence[int], t: int
) -> List[int]:
    """The point ℓ(t) on the line with ℓ(0)=start, ℓ(1)=end."""
    if len(start) != len(end):
        raise ValueError("line endpoints have different dimensions")
    p = field.p
    return [(a + t * (b - a)) % p for a, b in zip(start, end)]


def restrict_to_line(
    field: PrimeField,
    values: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    num_points: int,
    backend=None,
) -> List[int]:
    """Evaluations of the MLE along the line at t = 0..num_points-1.

    The restriction of a b-variate multilinear polynomial to a line has
    degree <= b, so ``num_points = b + 1`` determines it (the prover's
    line-reduction message in GKR).  All the line points are folded
    together: one (num_points × 2^b) stack, one per-row fold per
    variable.
    """
    be = backend if backend is not None else get_backend(field)
    table = _padded_table(values, len(start), be)
    pts = [line_points(field, start, end, t) for t in range(num_points)]
    stack = be.stack([table] * num_points)
    for j in range(len(start)):
        stack = be.rows_fold(stack, [pt[j] for pt in pts])
    return [int(row[0]) % field.p for row in stack]
