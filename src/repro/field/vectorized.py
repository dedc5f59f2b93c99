"""Vectorized field backends over NumPy arrays.

The hot paths of the library — per-update LDE maintenance (Theorem 1),
the provers' O(u·d) table folds, and the sum-check round messages — are
all elementwise ``Z_p`` arithmetic over long vectors.  This module
provides a :class:`VectorizedField` that performs those operations on
whole ``numpy.uint64`` arrays at once, and a :class:`ScalarBackend` with
the same API over plain Python lists so every caller can be written once
and degrade gracefully when NumPy is absent.

NumPy has one path, for ``p = 2^61 - 1`` (the paper's experimental
field): products of two 61-bit residues are computed exactly in
``uint64`` by splitting each operand into limbs and reducing with the
Mersenne identities ``2^61 ≡ 1`` and ``2^64 ≡ 8 (mod p)``.  No
intermediate ever reaches ``2^64``, so the arithmetic is overflow-free.
Every other modulus runs on :class:`ScalarBackend`, which computes the
same residues.

Backend selection is exposed through :func:`get_backend`; the
``REPRO_BACKEND`` environment variable (``auto`` / ``vectorized`` /
``scalar``) overrides the default, which is "vectorized whenever NumPy
imports and the field is ``2^61 - 1``".  NumPy remains an optional
dependency.
"""

from __future__ import annotations

import os
import sys
import threading
from bisect import bisect_left
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, islice, repeat
from math import comb
from operator import index, mul, or_
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.field.modular import PrimeField

try:  # NumPy is optional; everything degrades to the scalar backend.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

HAVE_NUMPY = _np is not None

#: Environment variable consulted by :func:`get_backend`.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_MERSENNE_61 = (1 << 61) - 1

if HAVE_NUMPY:
    _U3 = _np.uint64(3)
    _U22 = _np.uint64(22)
    _U29 = _np.uint64(29)
    _U32 = _np.uint64(32)
    _U44 = _np.uint64(44)
    _U61 = _np.uint64(61)
    _MASK22 = _np.uint64((1 << 22) - 1)
    _MASK29 = _np.uint64((1 << 29) - 1)
    _MASK32 = _np.uint64((1 << 32) - 1)
    _M61 = _np.uint64(_MERSENNE_61)

#: Per-thread buffers of :meth:`VectorizedField.tile_scratch`.
_TILE_SCRATCH = threading.local()

#: Chunk bound for the limb inner products of :meth:`VectorizedField.dot`:
#: 22-bit limb products are < 2^44, so partial dots over at most 2^19
#: terms stay below 2^63 — exact in uint64, no wraparound possible.
_DOT_CHUNK = 1 << 19

#: Pairs per tile of the prover kernels (:func:`fold_pairs`,
#: :func:`f2_round_sums`, :func:`inner_product_round_sums`): a tile's two
#: halves and all its limb rows stay cache-resident, and twenty rows of
#: one tile are exactly the 5 × 2^15 entries the stacked ingest already
#: holds per thread (``repro.lde.streaming.TILE_ELEMENTS``).  Must stay
#: <= :data:`_DOT_CHUNK` for the limb dots to be exact.
_TILE_PAIRS = 1 << 13

#: Pairs per block of :meth:`VectorizedField.pair_prefix_sums`.  A segment
#: is whole blocks (one lookup) plus two ragged ends summed directly, so
#: the block bounds what a lookup can cost; 32-bit half totals of up to
#: 2^31 pairs stay below 2^63 in ``uint64`` whatever the block.
_PREFIX_BLOCK = 1 << 7

#: Pairs from which :func:`_word_column_sums` reduces a run's four word
#: columns one strided sum each instead of in one widening 2-D reduce.
#: NumPy buffers the widening 2-D reduce: ≈ 1.4 µs + 15.6 ns a pair,
#: against ≈ 5.9 µs + 2.7 ns for four column sums (best of 30 timings a
#: size, 128 to 768 pairs, one pinned Xeon CPU): they meet at ≈ 350.
_COLUMN_SUM_PAIRS = 350

#: Entries at or below which a proof's tables are Python ints
#: (:func:`small_tables`).  From here down no NumPy kernel call beats the
#: scalar mirror's walk over the whole table: at 64 entries a fold is
#: 8 µs against 17, an Fk(3) message 34 against 45, an INNER-PRODUCT
#: message 13 against 24 and an F2 message ties at 17; at 128 the F2 and
#: Fk(3) messages already lose by 10–15 µs (README, *Small proof tables*).
SMALL_TABLE = 1 << 6

#: Share of a table's pairs up to which a proof keeps only the pairs its
#: tables touch (:func:`compact_tables`, :func:`refold_tables`).  A
#: compact round — messages, fold and re-pairing — costs ≈ 1.3 × the
#: share of a dense one from 2^14 entries up and meets it at ≈ 5/8; at
#: 2^12 it meets it at 1/2.  Up to 3/8 it saves ≥ 13 % at every size
#: from 2^12 to 2^20, which pays for the start and the hand-over (F2,
#: Fk(3) and INNER-PRODUCT rounds, one pinned Xeon CPU; README, *Sparse
#: early rounds*).  A dense table on scalar lists starts compact only up
#: to half of it (:func:`compact_tables`).
COMPACT_SHARE = 3 / 8

#: Entries from which an int64 column is reduced mod p by its sign mask
#: rather than ``np.mod``: below it the division's one pass beats the
#: mask's four calls (``np.mod`` vs mask, one pinned Xeon CPU: 6.2 vs
#: 8.2 µs at 2^10 entries, 11.5 vs 10.0 µs at 2^11, 297 vs 36 µs at
#: 25 000, 19.8 vs 2.5 ms at 2^20).
_MASK_REDUCE_MIN = 1 << 11

#: Which 32-bit word of a ``uint64`` viewed as two ``uint32`` is the low one.
_LOW_WORD = 0 if sys.byteorder == "little" else 1


def _limbs22(arr):
    """Split canonical Mersenne-61 residues into three 22-bit limbs."""
    return (arr & _MASK22, (arr >> _U22) & _MASK22, arr >> _U44)


def _word_column_sums(words):
    """``uint64`` totals of the four 32-bit word columns (even low, even
    high, odd low, odd high) of a run of pairs: exact for up to 2^32
    pairs."""
    if words.shape[0] < _COLUMN_SUM_PAIRS:
        return _np.add.reduce(words, axis=0, dtype=_np.uint64)
    return _np.array([words[:, column].sum(dtype=_np.uint64)
                      for column in range(4)])


def _limb_dot(a_limbs, b_limbs, symmetric: bool) -> int:
    """Exact Σ a·b over one chunk from pre-split limbs, as a Python int.

    ``np.dot`` on uint64 limbs is a single fused multiply-add pass per
    limb pair (no temporaries), ~3x the throughput of canonical-residue
    modmul chains; the nine (six when symmetric) partial dots are exact
    by the chunk bound and recombine with power-of-two weights.
    """
    total = 0
    for i in range(3):
        for j in range(i if symmetric else 0, 3):
            s = int(_np.dot(a_limbs[i], b_limbs[j]))
            if symmetric and j > i:
                s *= 2
            total += s << (22 * (i + j))
    return total


def _mul_m61(a, b):
    """Exact ``a * b mod 2^61 - 1`` on canonical uint64 residues.

    32-bit limb split: with ``a = ah·2^32 + al`` and ``b = bh·2^32 + bl``,

        a·b = ah·bh·2^64 + (ah·bl + al·bh)·2^32 + al·bl

    and mod ``p = 2^61 - 1`` the three terms reduce via ``2^64 ≡ 8``,
    ``m·2^32 = (m >> 29) + (m & (2^29-1))·2^32 (mod p)`` and
    ``l ≡ (l >> 61) + (l & p)``.  Every partial sum stays in ``uint64``.
    """
    ah = a >> _U32
    al = a & _MASK32
    bh = b >> _U32
    bl = b & _MASK32
    hh = ah * bh  # < 2^58
    mid = ah * bl + al * bh  # < 2^62
    ll = al * bl  # < 2^64, exact in uint64
    acc = (hh << _U3) + ((mid & _MASK29) << _U32) + (mid >> _U29)
    acc = acc + (ll & _M61) + (ll >> _U61)  # < 3·2^61 + 2^34 < 2^63
    acc = (acc & _M61) + (acc >> _U61)  # <= p + 3
    return _np.where(acc >= _M61, acc - _M61, acc)


def _mul_m61_acc(a, bh, bl, t0, t1, t2) -> None:
    """``t2 ← a·b`` as an *unreduced* residue, allocating nothing:
    :func:`_mul_m61`'s limb identities step by step through ``out=``.

    ``a`` may be a relaxed residue below 2^62; ``bh``/``bl`` are the
    32-bit halves of a canonical ``b`` — scalars, or arrays of ``a``'s
    shape (``bh`` may be ``t1`` itself).  Then ``hh < 2^59``,
    ``mid < 3·2^61`` and the sum left in ``t2`` is below
    2^63 + 2^34 + 8: one more canonical residue may be added before
    :func:`_reduce_m61_into` without reaching 2^64.  ``a``, ``t0`` and
    ``t1`` are clobbered.
    """
    _np.right_shift(a, _U32, out=t0)  # ah < 2^30
    _np.bitwise_and(a, _MASK32, out=a)  # al
    _np.multiply(t0, bh, out=t2)  # hh < 2^59
    _np.multiply(t0, bl, out=t0)
    _np.multiply(a, bh, out=t1)
    _np.add(t0, t1, out=t0)  # mid < 2^62 + 2^61
    _np.multiply(a, bl, out=a)  # ll < 2^64
    _np.left_shift(t2, _U3, out=t2)
    _np.bitwise_and(t0, _MASK29, out=t1)
    _np.left_shift(t1, _U32, out=t1)
    _np.add(t2, t1, out=t2)
    _np.right_shift(t0, _U29, out=t0)
    _np.add(t2, t0, out=t2)
    _np.bitwise_and(a, _M61, out=t1)
    _np.add(t2, t1, out=t2)
    _np.right_shift(a, _U61, out=a)
    _np.add(t2, a, out=t2)


def _reduce_m61_into(acc, work, out) -> None:
    """``out ←`` the canonical residue of any ``uint64`` array ``acc``
    (clobbered, as is ``work``): one Mersenne fold leaves at most
    p + 7, one conditional subtraction the residue."""
    _np.right_shift(acc, _U61, out=work)
    _np.bitwise_and(acc, _M61, out=acc)
    _np.add(acc, work, out=acc)
    # acc - p wraps far above acc exactly when acc < p.
    _np.subtract(acc, _M61, out=work)
    _np.minimum(acc, work, out=out)


def _mul_m61_into(a, b, t0, t1, t2) -> None:
    """``a ← a·b mod 2^61 - 1`` without allocating, for canonical arrays
    of one shape.  ``b`` and the three scratch arrays are clobbered.
    """
    _np.right_shift(b, _U32, out=t1)
    _np.bitwise_and(b, _MASK32, out=b)
    _mul_m61_acc(a, t1, b, t0, t1, t2)
    _reduce_m61_into(t2, t0, a)


class ScalarBackend:
    """Pure-Python backend: "arrays" are plain lists of canonical ints.

    Mirrors the :class:`VectorizedField` API one-for-one so protocol code
    written against the backend seam runs unchanged when NumPy is not
    installed, when ``REPRO_BACKEND=scalar`` forces the reference path,
    and for every modulus other than ``2^61 - 1``.
    """

    name = "scalar"
    vectorized = False

    def __init__(self, field: PrimeField):
        self.field = field
        self.p = field.p

    # -- array construction -------------------------------------------------

    def asarray(self, values: Sequence[int]) -> List[int]:
        p = self.p
        return [int(v) % p for v in values]

    def to_list(self, arr: Sequence[int]) -> List[int]:
        return [int(v) for v in arr]

    def zeros(self, n: int) -> List[int]:
        return [0] * n

    def index_array(self, values: Sequence[int]) -> List[int]:
        return [int(v) for v in values]

    # -- elementwise arithmetic --------------------------------------------

    @staticmethod
    def _pairs(a, b):
        a_seq = isinstance(a, (list, tuple))
        b_seq = isinstance(b, (list, tuple))
        if a_seq and b_seq:
            if len(a) != len(b):
                raise ValueError("length mismatch in elementwise op")
            return zip(a, b)
        if a_seq:
            return ((x, b) for x in a)
        if b_seq:
            return ((a, y) for y in b)
        return iter([(a, b)])

    def add(self, a, b) -> List[int]:
        p = self.p
        return [(x + y) % p for x, y in self._pairs(a, b)]

    def sub(self, a, b) -> List[int]:
        p = self.p
        return [(x - y) % p for x, y in self._pairs(a, b)]

    def mul(self, a, b) -> List[int]:
        p = self.p
        return [x * y % p for x, y in self._pairs(a, b)]

    def take(self, arr: Sequence[int], idx: Sequence[int]) -> List[int]:
        return [arr[i] for i in idx]

    def select(self, bits: Sequence[int], if_one, if_zero) -> List[int]:
        """Elementwise choice by a 0/1 array: ``if_one`` where bit else
        ``if_zero`` (each a scalar or an equally long array)."""
        one_seq = isinstance(if_one, (list, tuple))
        zero_seq = isinstance(if_zero, (list, tuple))
        return [
            (if_one[t] if one_seq else if_one)
            if bit
            else (if_zero[t] if zero_seq else if_zero)
            for t, bit in enumerate(bits)
        ]

    def concat(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return list(a) + list(b)

    def nonzero(self, mask: Sequence[int]) -> List[int]:
        """Indices of the nonzero entries of a 0/1 mask."""
        return [t for t, v in enumerate(mask) if v]

    def scatter_sum(self, idx: Sequence[int], weights: Sequence[int],
                    size: int) -> List[int]:
        """``out[idx[t]] += weights[t]`` over a fresh zero table mod p."""
        p = self.p
        out = [0] * size
        for i, w in zip(idx, weights):
            out[i] = (out[i] + w) % p
        return out

    def outer_flat(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Flattened outer product: ``out[i + len(a)·j] = a[i]·b[j]``."""
        p = self.p
        return [x * y % p for y in b for x in a]

    def pair_columns(self, pairs: Sequence[Tuple[int, int]]):
        """Split a sequence of ``(a, b)`` pairs into two columns."""
        if not pairs:
            return [], []
        first, second = zip(*pairs)
        return list(first), list(second)

    # -- exact integer columns ------------------------------------------------
    #
    # Signed and never reduced: a service dataset's counts and its replay
    # log.  Lists of Python ints here, int64 arrays on the vectorized
    # backend — which moves a column to Python-int storage before an
    # entry could leave int64, so both are exact.

    def int_zeros(self, n: int) -> List[int]:
        return [0] * n

    def int_columns(self, pairs) -> Tuple[List[int], List[int]]:
        """Split ``(a, b)`` pairs into two columns; anything that is not
        an integer (``"7"``, ``7.9``, ``None``) is a TypeError."""
        first, second = [], []
        for a, b in pairs:
            first.append(index(a))
            second.append(index(b))
        return first, second

    def int_bounds(self, column: Sequence[int]) -> Tuple[int, int]:
        """``(min, max)`` of a non-empty column."""
        return min(column), max(column)

    def int_add_at(self, counts: List[int], keys, deltas, mass: int):
        """``counts[keys[t]] += deltas[t]``; returns the column.  ``mass``
        bounds Σ|δ| over everything ever added to it, this block included."""
        for key, delta in zip(keys, deltas):
            counts[key] += delta
        return counts

    def int_table(self, rows: int) -> List[List[int]]:
        """An empty table of ``rows`` growable columns."""
        return [[] for _ in range(rows)]

    def int_table_append(self, table, used: int, columns):
        """``table[:, :used]`` followed by ``columns`` (one per row; a plain
        int repeats down its column); returns the table."""
        count = len(columns[-1])
        for row, column in zip(table, columns):
            row.extend(column if isinstance(column, list)
                       else [column] * count)
        return table

    def int_runs(self, column) -> List[int]:
        """Where each run of equal entries of ``column`` starts, then
        its length: run t is ``column[bounds[t]:bounds[t + 1]]``."""
        return [0, *(t for t in range(1, len(column))
                     if column[t] != column[t - 1]), len(column)]

    def int_entries(self, counts, taken=()):
        """The nonzero entries of ``counts`` less every ``(keys, deltas)``
        block of ``taken``: their indices, increasing, and their exact
        values.  ``counts`` is never written, and copied only when
        ``taken`` holds a block."""
        if taken:
            counts = list(counts)
            for keys, deltas in taken:
                for key, delta in zip(keys, deltas):
                    counts[key] -= delta
        keys = [t for t, count in enumerate(counts) if count]
        return keys, [counts[t] for t in keys]

    # -- stacked (2-D) operations --------------------------------------------
    #
    # A "stack" is a rows × width table: one row per query / line point /
    # worker.  The scalar representation is a list of canonical-residue
    # lists; the vectorized one is a 2-D backend array.  These power the
    # batched multi-query rounds and the stacked line restriction in GKR.

    def stack(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        p = self.p
        return [[int(v) % p for v in row] for row in rows]

    def row_fold(self, stack, r: int, zero_weight: int = None):
        """Fold every row's column pairs with the *same* challenge ``r``."""
        return [fold_pairs(self, self.field, row, r, zero_weight)
                for row in stack]

    def rows_fold(self, stack, rs: Sequence[int]):
        """Fold each row with its *own* challenge ``rs[q]`` (stacked fold)."""
        if len(stack) != len(rs):
            raise ValueError("one challenge per row required")
        return [fold_pairs(self, self.field, row, r)
                for row, r in zip(stack, rs)]

    # -- pair prefix sums ----------------------------------------------------
    #
    # The structured (dyadic) RANGE-SUM fold needs, per round, the sum of
    # the even entries and the sum of the odd entries of the folded proof
    # table over one segment per query: read directly, or O(1) lookups in
    # one shared prefix-sum pass once the segments together cover more
    # pairs than the table has entries.

    def pair_prefix_sums(self, table: Sequence[int]):
        """Running sums of the even and odd entries of a proof table.

        Returns an opaque state for :meth:`prefix_segment_sums`; entry
        ``k`` of either running sum is ``Σ_{t<k} table[2t (+1)] mod p``.
        """
        p = self.p
        even = [0] * (len(table) // 2 + 1)
        odd = [0] * (len(table) // 2 + 1)
        e = o = 0
        k = 1
        for t in range(0, len(table), 2):
            e = (e + table[t]) % p
            o = (o + table[t + 1]) % p
            even[k] = e
            odd[k] = o
            k += 1
        return even, odd

    def prefix_segment_sums(self, state, start: int, end: int) -> Tuple[int, int]:
        """``(Σ even, Σ odd)`` over pair indices ``[start, end)`` mod p."""
        even, odd = state
        p = self.p
        return (even[end] - even[start]) % p, (odd[end] - odd[start]) % p

    def pair_segment_sums(self, table: Sequence[int], start: int,
                          end: int) -> Tuple[int, int]:
        """:meth:`prefix_segment_sums` read straight off the table, with
        no prefix pass."""
        p = self.p
        return (sum(table[2 * start : 2 * end : 2]) % p,
                sum(table[2 * start + 1 : 2 * end : 2]) % p)

    # -- aggregates ----------------------------------------------------------

    def sum(self, arr: Sequence[int]) -> int:
        return sum(arr) % self.p

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        return self.field.dot(xs, ys)

    def __repr__(self) -> str:
        return "ScalarBackend(p=%d)" % self.p


class VectorizedField:
    """NumPy-backed ``Z_p`` arithmetic on whole arrays, for
    ``p = 2^61 - 1`` only (:func:`get_backend` serves every other modulus
    from :class:`ScalarBackend`).

    Arrays handed between methods are always *canonical*: every element in
    ``[0, p)``, dtype ``uint64``.  Scalar operands may be arbitrary Python
    ints (negative values are reduced, which is how stream deletions
    enter).
    """

    name = "vectorized"
    vectorized = True

    def __init__(self, field: PrimeField):
        if _np is None:
            raise RuntimeError(
                "VectorizedField requires numpy; install it or use "
                "ScalarBackend / REPRO_BACKEND=scalar"
            )
        if field.p != _MERSENNE_61:
            raise ValueError(
                "VectorizedField has no path for p = %d, only for 2^61 - 1; "
                "use ScalarBackend (get_backend selects it)" % field.p
            )
        self.field = field
        self.p = field.p

    # -- array construction -------------------------------------------------

    def asarray(self, values):
        """Canonical array from any mix of Python ints / NumPy arrays."""
        p = self.p
        if isinstance(values, _np.ndarray):
            if values.dtype == _np.uint64:
                return _np.mod(values, _M61)
            if values.dtype.kind == "i":
                return self._int64_residues(values.astype(_np.int64,
                                                          copy=False))
            values = values.tolist()
        elif not isinstance(values, (list, tuple)):
            values = list(values)
        try:
            # Fast path: machine-word ints reduce vectorized.
            arr = _np.fromiter(values, dtype=_np.int64, count=len(values))
        except (OverflowError, TypeError):
            return _np.fromiter(
                (int(v) % p for v in values),
                dtype=_np.uint64,
                count=len(values),
            )
        return self._int64_residues(arr)

    def _int64_residues(self, v):
        """``v mod p`` of an int64 array, as a fresh canonical array.

        From :data:`_MASK_REDUCE_MIN` entries on, no division: each entry
        is cast, and p is added through the sign mask where the sign bit
        is set (2^64 + v + p wraps to v + p), which is the residue of
        every entry in [−p, p) — counts and update deltas.  An entry
        outside that range leaves a result at p or above (v itself, or
        2^64 + v + p), so one max over the result decides whether the
        column goes through ``np.mod`` instead.
        """
        if len(v) >= _MASK_REDUCE_MIN:
            out = _np.right_shift(v, 63).view(_np.uint64)
            _np.bitwise_and(out, _M61, out=out)
            _np.add(out, v.view(_np.uint64), out=out)
            if _np.maximum.reduce(out) < _M61:
                return out
        return _np.mod(v, _np.int64(self.p)).astype(_np.uint64)

    def to_list(self, arr) -> List[int]:
        if isinstance(arr, _np.ndarray):
            return arr.tolist()  # Python ints, one C pass
        return [int(v) for v in arr]

    def zeros(self, n: int):
        return _np.zeros(n, dtype=_np.uint64)

    def index_array(self, values):
        """Signed index array for table gathers (keys, digit vectors)."""
        if not isinstance(values, (list, tuple)):
            values = list(values)
        return _np.fromiter(values, dtype=_np.int64, count=len(values))

    def _norm(self, x):
        """Coerce a scalar operand to a canonical residue; pass arrays."""
        if isinstance(x, _np.ndarray):
            return x
        return _np.uint64(int(x) % self.p)

    # -- elementwise arithmetic --------------------------------------------

    def _both_scalars(self, a, b) -> bool:
        # numpy 2.x scalar integer ops emit overflow RuntimeWarnings (the
        # np.where wraparound branch is evaluated eagerly); plain ints are
        # exact and warning-free, so 0-d operands never enter the array
        # kernels.
        return not isinstance(a, _np.ndarray) and not isinstance(b, _np.ndarray)

    def add(self, a, b):
        if self._both_scalars(a, b):
            return self._norm((int(a) + int(b)) % self.p)
        a = self._norm(a)
        b = self._norm(b)
        s = a + b  # both < p < 2^61, no overflow
        return _np.where(s >= _M61, s - _M61, s)

    def sub(self, a, b):
        if self._both_scalars(a, b):
            return self._norm((int(a) - int(b)) % self.p)
        a = self._norm(a)
        b = self._norm(b)
        s = a + (_M61 - b)  # in (0, 2p)
        return _np.where(s >= _M61, s - _M61, s)

    def mul(self, a, b):
        if self._both_scalars(a, b):
            return self._norm(int(a) * int(b) % self.p)
        return _mul_m61(self._norm(a), self._norm(b))

    def take(self, arr, idx):
        return arr[idx]

    def select(self, bits, if_one, if_zero):
        """Elementwise choice by a 0/1 array (scalar or array branches)."""
        if not isinstance(bits, _np.ndarray):
            bits = self.index_array(bits)
        return _np.where(bits != 0, self._norm(if_one), self._norm(if_zero))

    def nonzero(self, mask):
        """Indices of the nonzero entries of a 0/1 mask, as int64."""
        if not isinstance(mask, _np.ndarray):
            mask = self.index_array(mask)
        return _np.nonzero(mask)[0].astype(_np.int64)

    #: Chunk bound for :meth:`scatter_sum`: 32-bit limb partial sums over
    #: at most 2^20 terms stay below 2^52, exact in float64.
    _SCATTER_CHUNK = 1 << 20

    def scatter_sum(self, idx, weights, size: int):
        """``out[idx[t]] += weights[t] (mod p)`` over a fresh zero table.

        NumPy's ``bincount`` only accumulates float64 weights, so each
        canonical residue is split into 32-bit limbs whose bucket sums
        stay exactly representable; chunking keeps that bound for any
        input length.  This is the prover's "inner product with a public
        function" step: gate contributions scatter into an
        assignment-indexed table in O(G) C-level work.
        """
        idx = idx if isinstance(idx, _np.ndarray) else self.index_array(idx)
        w = (
            weights
            if isinstance(weights, _np.ndarray)
            else self.asarray(weights)
        )
        out = self.zeros(size)
        two32 = (1 << 32) % self.p
        for start in range(0, idx.shape[0], self._SCATTER_CHUNK):
            ic = idx[start : start + self._SCATTER_CHUNK]
            wc = w[start : start + self._SCATTER_CHUNK]
            hi = _np.bincount(
                ic, weights=(wc >> _U32).astype(_np.float64), minlength=size
            ).astype(_np.uint64)
            lo = _np.bincount(
                ic, weights=(wc & _MASK32).astype(_np.float64), minlength=size
            ).astype(_np.uint64)
            # hi/lo bucket sums can exceed p (never 2^52): reduce before
            # re-entering the canonical-residue arithmetic.
            out = self.add(
                out,
                self.add(self.mul(_np.mod(hi, _M61), two32),
                         _np.mod(lo, _M61)),
            )
        return out

    def concat(self, a, b):
        a = a if isinstance(a, _np.ndarray) else self.asarray(a)
        b = b if isinstance(b, _np.ndarray) else self.asarray(b)
        return _np.concatenate([a, b])

    def outer_flat(self, a, b):
        """Flattened outer product: ``out[i + len(a)·j] = a[i]·b[j]``."""
        a = a if isinstance(a, _np.ndarray) else self.asarray(a)
        b = b if isinstance(b, _np.ndarray) else self.asarray(b)
        return self.mul(_np.tile(a, b.shape[0]), _np.repeat(b, a.shape[0]))

    def pair_columns(self, pairs):
        """Split ``(a, b)`` pairs into two int64 column arrays.

        One C-level pass over the flattened pair stream; raises
        OverflowError when a value does not fit int64 (callers fall back
        to a Python-level path).
        """
        n = len(pairs)
        flat = _np.fromiter(
            chain.from_iterable(pairs), dtype=_np.int64, count=2 * n
        ).reshape(n, 2)
        return flat[:, 0], flat[:, 1]

    def net_columns(self, keys, deltas):
        """Distinct keys of an int64 update block and their net deltas.

        One sort and one exact int64 segment sum (the caller guarantees
        ``max|δ| · n < 2^63``); keys whose updates cancel are dropped.
        """
        order = _np.argsort(keys)
        keys = keys[order]
        starts = _np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = _np.concatenate(([0], starts))
        nets = _np.add.reduceat(deltas[order], starts)
        live = _np.flatnonzero(nets)
        return keys[starts[live]], nets[live]

    # -- exact integer columns (see ScalarBackend) ----------------------------

    def int_zeros(self, n: int):
        return _np.zeros(n, dtype=_np.int64)

    def int_columns(self, pairs):
        """Split ``(a, b)`` pairs into two int64 columns — object columns
        of Python ints when a value does not fit; anything that is not an
        integer is a TypeError (``fromiter`` alone would parse ``"7"``
        and truncate ``7.9``)."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        try:
            flat = _np.fromiter(map(index, chain.from_iterable(pairs)),
                                dtype=_np.int64)
        except OverflowError:
            flat = _np.array(
                [index(v) for v in chain.from_iterable(pairs)], dtype=object)
        if flat.shape[0] != 2 * len(pairs):
            raise ValueError("an update is one (key, delta) pair")
        flat = flat.reshape(len(pairs), 2)
        return flat[:, 0], flat[:, 1]

    def int_bounds(self, column) -> Tuple[int, int]:
        return int(column.min()), int(column.max())

    def int_add_at(self, counts, keys, deltas, mass: int):
        """One scatter-add.  While ``mass`` — a bound on Σ|δ| over
        everything ever added to the column — is below 2^63 no int64
        entry can wrap; past it the column becomes Python ints, once."""
        if counts.dtype != object and mass >= 1 << 63:
            counts = counts.astype(object)
        if counts.dtype == object:
            deltas = deltas.astype(object)  # not wrapping int64 scalars
        _np.add.at(counts, keys.astype(_np.int64, copy=False), deltas)
        return counts

    def int_table(self, rows: int):
        return _np.empty((rows, 0), dtype=_np.int64)

    def int_table_append(self, table, used: int, columns):
        """Slice assignment into capacity that doubles when it runs out
        (and turns to Python ints with the first column that has)."""
        end = used + columns[-1].shape[0]
        wide = table.dtype != object and any(
            getattr(column, "dtype", None) == object for column in columns)
        if wide or end > table.shape[1]:
            grown = _np.empty(
                (table.shape[0], max(end, 2 * table.shape[1])),
                dtype=object if wide else table.dtype)
            grown[:, :used] = table[:, :used]
            table = grown
        for row, column in zip(table, columns):
            row[used:end] = column
        return table

    def int_runs(self, column) -> List[int]:
        cuts = _np.flatnonzero(column[1:] != column[:-1]) + 1
        return [0, *cuts.tolist(), column.shape[0]]

    def int_entries(self, counts, taken=()):
        """One ``subtract.at`` per taken block on a copy — of Python
        ints when the column or a taken delta already is — then one
        ``flatnonzero``."""
        if taken:
            wide = counts.dtype == object or any(
                deltas.dtype == object for _keys, deltas in taken)
            counts = counts.astype(object if wide else _np.int64)
            for keys, deltas in taken:
                _np.subtract.at(counts, keys.astype(_np.int64, copy=False),
                                deltas.astype(counts.dtype, copy=False))
        keys = _np.flatnonzero(counts)
        return keys, counts[keys]

    # -- stacked (2-D) operations --------------------------------------------

    def stack(self, rows):
        """2-D canonical array from a sequence of rows (lists or arrays)."""
        arrs = [
            r if isinstance(r, _np.ndarray) else self.asarray(r) for r in rows
        ]
        if not arrs:
            return _np.zeros((0, 0), dtype=_np.uint64)
        return _np.stack(arrs)

    def row_fold(self, stack, r: int, zero_weight: int = None):
        """Fold every row's column pairs with the *same* challenge ``r``."""
        r %= self.p
        even = stack[:, 0::2]
        odd = stack[:, 1::2]
        if zero_weight is None:
            return self.add(even, self.mul(r, self.sub(odd, even)))
        w0 = zero_weight % self.p
        if w0 == 1:
            return self.add(even, self.mul(odd, r))
        return self.add(self.mul(even, w0), self.mul(odd, r))

    def rows_fold(self, stack, rs):
        """Fold each row with its *own* challenge ``rs[q]`` (stacked fold)."""
        rs = rs if isinstance(rs, _np.ndarray) else self.asarray(rs)
        if stack.shape[0] != rs.shape[0]:
            raise ValueError("one challenge per row required")
        col = rs.reshape(-1, 1)
        even = stack[:, 0::2]
        odd = stack[:, 1::2]
        return self.add(even, self.mul(self.sub(odd, even), col))

    # -- in-place tile kernels ----------------------------------------------
    #
    # The stacked ingest kernel (repro.lde.streaming.SketchStack) works a
    # (rows × updates) tile at a time in buffers it never frees, and the
    # prover kernels below (fold_pairs, the round sums) a tile of table
    # pairs at a time in the same ones.  The scalar backend walks its
    # input one entry at a time and has no counterpart.

    def tile_scratch(self, elements: int):
        """Five reusable rows of ``elements`` entries for the in-place
        tile kernels (:meth:`mul_into`, :meth:`row_int_dots`,
        :func:`fold_pairs` and the round-sum kernels).

        One set per thread, kept for the thread's life; contents are
        garbage between calls.  A feed that allocated its tiles per
        block pushed them through malloc thousands of times a second:
        measured on the ``svc_analytic`` benchmark, five 64 KiB arrays
        per block cost +4.7 MB peak RSS to heap fragmentation, and one
        1.25 MiB array per block +11 MB (its free raises glibc's mmap
        threshold for the whole process).
        """
        held = getattr(_TILE_SCRATCH, "rows", None)
        if held is None or held.shape[1] < elements:
            held = self.zeros(5 * elements).reshape(5, elements)
            _TILE_SCRATCH.rows = held
        return held

    def mul_into(self, a, b, work) -> None:
        """``a ← a·b (mod p)`` for canonical arrays of one shape; ``b`` and
        ``work`` (three more arrays of that shape) may be clobbered.
        Allocates nothing."""
        _mul_m61_into(a, b, *work)

    def row_int_dots(self, stack, ints, work=None) -> List[int]:
        """Per-row ``Σ_t stack[q, t] · ints[t] mod p`` against integers
        that are *not* residues: signed stream deltas.

        The rows are split into 22-bit limbs once (into ``work``, three
        arrays of the stack's shape, when given) and dotted, in int64,
        with the signed 22-bit limbs of ``ints`` — exact by the
        :data:`_DOT_CHUNK` bound — skipping the limbs no entry reaches, so
        small deltas cost three fused passes.
        """
        if ints.dtype != _np.int64 or (
                ints.size and int(ints.min()) < -(1 << 62)):
            # Canonical residues, or magnitudes np.abs cannot represent.
            ints = self.asarray(ints).view(_np.int64)
        totals = [0] * stack.shape[0]
        for start in range(0, stack.shape[1], _DOT_CHUNK):
            part = ints[start : start + _DOT_CHUNK]
            sign = _np.sign(part)
            size = _np.abs(part)
            rows = stack[:, start : start + _DOT_CHUNK]
            if work is None:
                rows = _limbs22(rows)
            else:
                low, mid, high = (w[:, : rows.shape[1]] for w in work)
                _np.bitwise_and(rows, _MASK22, out=low)
                _np.right_shift(rows, _U22, out=mid)
                _np.bitwise_and(mid, _MASK22, out=mid)
                _np.right_shift(rows, _U44, out=high)
                rows = (low, mid, high)
            for j in range(3):
                limb = (size >> (22 * j)) & _np.int64((1 << 22) - 1)
                if not limb.any():
                    continue
                limb *= sign
                for i in range(3):
                    dots = _np.dot(rows[i].view(_np.int64), limb).tolist()
                    for q, s in enumerate(dots):
                        totals[q] += s << (22 * (i + j))
        p = self.p
        return [t % p for t in totals]

    # -- pair prefix sums ----------------------------------------------------

    def pair_prefix_sums(self, table):
        """Even/odd running totals of a proof table, a block at a time.

        Returns an opaque state for :meth:`prefix_segment_sums`: the
        table seen as rows of four 32-bit words per pair (even low, even
        high, odd low, odd high) and the running totals of each word
        column at every :data:`_PREFIX_BLOCK` boundary.  Four strided
        reductions over the table and one ``cumsum`` over the blocks —
        no per-pair prefix is ever written.  A word is < 2^32, so any
        total over a table of up to 2^31 pairs stays below 2^63: exact
        in ``uint64``.
        """
        table = (
            table if isinstance(table, _np.ndarray) else self.asarray(table)
        )
        words = _np.ascontiguousarray(table).view(_np.uint32).reshape(-1, 4)
        blocks = words.shape[0] // _PREFIX_BLOCK
        totals = _np.zeros((blocks + 1, 4), dtype=_np.uint64)
        whole = words[: blocks * _PREFIX_BLOCK]
        for column in range(4):
            _np.sum(
                whole[:, column].reshape(blocks, _PREFIX_BLOCK), axis=1,
                dtype=_np.uint64, out=totals[1:, column],
            )
        return words, _np.cumsum(totals, axis=0, out=totals)

    def prefix_segment_sums(self, state, start: int, end: int) -> Tuple[int, int]:
        """``(Σ even, Σ odd)`` over pair indices ``[start, end)`` mod p.

        Whole blocks come from the running totals; the ragged ends — or
        a segment inside one block — are summed directly, fewer than
        :data:`_PREFIX_BLOCK` pairs each.
        """
        words, totals = state
        first = -(-start // _PREFIX_BLOCK)
        last = end // _PREFIX_BLOCK
        if first > last:
            return self._pair_word_sums(_word_column_sums(words[start:end]))
        sums = totals[last] - totals[first]
        for piece in (words[start : first * _PREFIX_BLOCK],
                      words[last * _PREFIX_BLOCK : end]):
            if piece.shape[0]:
                sums += _word_column_sums(piece)
        return self._pair_word_sums(sums)

    def pair_segment_sums(self, table, start: int, end: int) -> Tuple[int, int]:
        """:meth:`prefix_segment_sums` read straight off the table, with
        no prefix pass: its 32-bit word columns summed in ``uint64``
        (:func:`_word_column_sums`)."""
        table = (
            table if isinstance(table, _np.ndarray) else self.asarray(table)
        )
        return self._pair_word_sums(_word_column_sums(_np.ascontiguousarray(
            table[2 * start : 2 * end]).view(_np.uint32).reshape(-1, 4)))

    def _pair_word_sums(self, sums) -> Tuple[int, int]:
        """``(Σ even, Σ odd)`` mod p from the four ``uint64`` word-column
        totals (:func:`_word_column_sums`) of a run of pairs."""
        sums = sums.tolist()
        p = self.p
        low, high = _LOW_WORD, 1 - _LOW_WORD
        return (
            ((sums[high] << 32) + sums[low]) % p,
            ((sums[2 + high] << 32) + sums[2 + low]) % p,
        )

    # -- aggregates ----------------------------------------------------------

    def sum(self, arr) -> int:
        """Exact sum mod p of a canonical array (any length < 2^32)."""
        a = arr if isinstance(arr, _np.ndarray) else self.asarray(arr)
        # Elements are < 2^61: summing the 32-bit halves separately keeps
        # both accumulators far from uint64 overflow.
        hi = int(_np.sum(a >> _U32, dtype=_np.uint64))
        lo = int(_np.sum(a & _MASK32, dtype=_np.uint64))
        return ((hi << 32) + lo) % self.p

    def dot(self, xs, ys) -> int:
        """Exact ``Σ xs·ys mod p`` of two vectors.

        The products are computed as nine 22-bit-limb inner products per
        chunk (six when ``xs is ys``) — fused ``np.dot`` passes with no
        canonical-residue temporaries — and recombined exactly in Python
        integers.
        """
        symmetric = xs is ys
        xs = xs if isinstance(xs, _np.ndarray) else self.asarray(xs)
        ys = xs if symmetric else (
            ys if isinstance(ys, _np.ndarray) else self.asarray(ys)
        )
        if xs.shape != ys.shape:
            raise ValueError("dot of vectors with different lengths")
        total = 0
        for start in range(0, xs.shape[0], _DOT_CHUNK):
            xc = _limbs22(xs[start : start + _DOT_CHUNK])
            yc = xc if symmetric else _limbs22(ys[start : start + _DOT_CHUNK])
            total += _limb_dot(xc, yc, symmetric)
        return total % self.p

    def __repr__(self) -> str:
        return "VectorizedField(p=%d)" % self.p


Backend = Union[ScalarBackend, VectorizedField]


def ensure_backend_array(backend: Backend, table):
    """Coerce a prover table to the backend's array type.

    Subclasses (e.g. the adversarial provers) sometimes rebuild ``_table``
    as a plain list; under a vectorized backend the folding code converts
    it back once instead of failing.
    """
    if getattr(backend, "vectorized", False) and isinstance(table, (list, tuple)):
        return backend.asarray(table)
    return table


def canonical_table(backend: Backend, field: PrimeField, values) -> object:
    """Proof table from a raw (integer) frequency vector.

    Backend array under a vectorized backend, list of canonical residues
    otherwise — the shared first step of every table-folding prover.  A
    :func:`frozen_table` comes back as the same object: no fold writes
    to its input, so any number of provers can start from one.
    """
    if getattr(backend, "vectorized", False):
        if (isinstance(values, _np.ndarray) and values.dtype == _np.uint64
                and not values.flags.writeable):
            return values
        return backend.asarray(values)
    if isinstance(values, tuple):
        return values
    p = field.p
    return [v % p for v in values]


def frozen_table(backend: Backend, field: PrimeField, values) -> object:
    """:func:`canonical_table` made read-only (a tuple on the scalar
    backend), to be shared: a write through any alias raises."""
    table = canonical_table(backend, field, values)
    if getattr(backend, "vectorized", False):
        table.flags.writeable = False
        return table
    return tuple(table)


def frozen_start(backend: Backend, field: PrimeField, *tables):
    """:func:`compact_tables` of shared read-only tables, to be kept
    beside them and handed to every proof of the same data: under NumPy
    its pair ids and tables are made read-only too, so a write through
    any alias raises; the lists of a compact start of at most
    :data:`SMALL_TABLE` pairs are never written by a proof."""
    start = compact_tables(backend, field, *tables)
    layout = start[0]
    for part in (layout and layout.ids,) + start[2:]:
        if hasattr(part, "flags"):
            part.flags.writeable = False
    return start


def small_tables(backend: Backend, field: PrimeField, *tables):
    """``(backend, *tables)`` a proof continues on: as given while the
    first table has more than :data:`SMALL_TABLE` entries, else the
    :class:`ScalarBackend` and the tables as lists of Python ints (None
    stays None).

    A table-folding prover calls this on every fold's output and keeps
    the result for that proof only: its own ``backend`` is never
    replaced, so the next proof starts on it — and on the shared
    canonical table, uncopied — again.  Every kernel has a byte-identical
    scalar mirror, so the switch changes no transcript word.
    """
    if (not getattr(backend, "vectorized", False)
            or len(tables[0]) > SMALL_TABLE):
        return (backend,) + tables
    return (ScalarBackend(field),) + tuple(
        None if table is None else backend.to_list(table)
        for table in tables)


class CompactPairs(NamedTuple):
    """Where a compact proof table's pairs sit in the dense one: ``ids``,
    the sorted ids of the pairs the proof's tables touch, out of
    ``pairs`` — an integer array under NumPy, a list of Python ints (of
    any size) on the :class:`ScalarBackend`.  A compact table is those
    pairs' entries, interleaved ``E, O, E, O, …`` like a dense one's, so
    every pair kernel (:func:`fold_pairs`, :func:`moment_round_sums`,
    :func:`inner_product_round_sums`, the segment sums) runs on it
    unchanged: a pair of zeros adds nothing to any moment of order
    >= 1, inner product or segment sum, and folds to zero."""

    ids: object
    pairs: int


def _onward(backend: Backend, field: PrimeField, layout, tables):
    """``(layout, backend, *tables)``: a dense proof through
    :func:`small_tables`, a compact one on :class:`ScalarBackend` lists,
    its pair ids Python ints, once it holds at most :data:`SMALL_TABLE`
    pairs — a compact round re-pairs and searches besides, which the
    scalar mirror does faster up to there (README, *Sparse early
    rounds*)."""
    if layout is None:
        return (None,) + small_tables(backend, field, *tables)
    if not getattr(backend, "vectorized", False) or len(layout.ids) > SMALL_TABLE:
        return (layout, backend, *tables)
    return (CompactPairs(layout.ids.tolist(), layout.pairs),
            ScalarBackend(field),
            *(None if table is None else table.tolist() for table in tables))


def compact_tables(backend: Backend, field: PrimeField, *tables):
    """``(layout, backend, *tables)`` a proof starts on: a
    :class:`CompactPairs` and the tables cut down to the pairs any of
    them touches while those are at most :data:`COMPACT_SHARE` of the
    pairs, else None, ``backend`` and the tables as given (None stays
    None).

    Only tables above :data:`SMALL_TABLE` entries go compact, and tables
    on the :class:`ScalarBackend` only up to half the cut; a compact one
    of at most :data:`SMALL_TABLE` pairs goes on as scalar lists.  The
    tables are read, never written: a shared canonical table stays whole
    for the next proof.
    """
    first = tables[0]
    pairs = len(first) // 2
    if len(first) <= SMALL_TABLE:
        return (None, backend) + tables
    if not getattr(backend, "vectorized", False):
        # On lists the start costs about one dense fold, which a
        # fold-only proof wins back only if the layout outlives its first
        # fold, which about doubles the share touched: so half the cut.
        cut = int(COMPACT_SHARE * pairs / 2)
        present = [table for table in tables if table is not None]
        # More than 2·cut nonzero entries touch more than cut pairs.
        if any(len(table) - table.count(0) > 2 * cut for table in present):
            return (None, backend) + tables
        # A pair is touched where its entries or-ed are nonzero; touched
        # pairs are counted only up to one past the cut.
        ids = list(islice(compress(count(), reduce(partial(map, or_), [
            map(or_, table[0::2], table[1::2]) for table in present])),
            cut + 1))
        if len(ids) > cut:
            return (None, backend) + tables
        return _onward(backend, field, CompactPairs(ids, pairs), [
            None if table is None else list(chain.from_iterable(zip(
                map(table[0::2].__getitem__, ids),
                map(table[1::2].__getitem__, ids))))
            for table in tables])
    # A pair is touched where its two entries' "is nonzero" bytes, seen
    # as one 16-bit word, are not both zero.
    touched = None
    for table in tables:
        if table is not None:
            nonzero = _np.not_equal(table, 0).view(_np.uint16)
            touched = nonzero if touched is None else touched | nonzero
    if _np.count_nonzero(touched) > COMPACT_SHARE * pairs:
        return (None, backend) + tables
    ids = _np.flatnonzero(_np.not_equal(touched, 0))
    # A pair is copied as one 16-byte element (4× a 2-D take).
    return _onward(backend, field, CompactPairs(ids, pairs), [
        None if table is None else table.view("V16")[ids].view(_np.uint64)
        for table in tables])


def compact_entries(backend: Backend, field: PrimeField, *entries,
                    size: int):
    """``(layout, backend, *tables)`` a proof over dense tables of
    ``size`` entries starts on, built from ``entries`` — each a mapping
    ``{index: value}`` of a table's entries, None for no table — without
    the dense tables: laid out on the union of their supports as
    :func:`compact_tables` would leave them, entries ≡ 0 (mod p)
    dropped.  The keys are the pair ids of the table these entries are
    the fold of, so the proof's first pairs are the distinct
    ``key >> 1``: with at most :data:`SMALL_TABLE` of them it starts on
    :class:`ScalarBackend` lists, as :func:`refold_tables` would move
    it, and past 2^64 entries too, where a key leaves ``uint64``;
    otherwise NumPy sorts and places the keys, and
    :func:`refold_tables` moves it to lists if the entries ≡ 0 it drops
    leave too few pairs (a mapping fed through a prover's ``process``
    keeps no key at 0).
    """
    present = [e for e in entries if e is not None]
    union = present[0] if len(present) == 1 else set().union(*present)
    # At most two keys share a pair: 2·SMALL_TABLE + 1 keys settle it.
    if (getattr(backend, "vectorized", False) and size <= 1 << 64
            and len({i >> 1 for i in islice(union, 2 * SMALL_TABLE + 1)})
            > SMALL_TABLE):
        keys = _np.fromiter(union, dtype=_np.uint64, count=len(union))
        order = _np.argsort(keys)
        tables = [None if e is None else backend.asarray(
            list(map(e.get, union, repeat(0))))[order] for e in entries]
        kept = _np.logical_or.reduce([t != 0 for t in tables if t is not None])
        return refold_tables(
            backend, field, CompactPairs(keys[order][kept], size),
            *(t if t is None else t[kept] for t in tables))
    if getattr(backend, "vectorized", False):
        backend = ScalarBackend(field)
    p = field.p
    residues = [None if e is None else {i: v % p for i, v in e.items() if v % p}
                for e in entries]
    keys = sorted(set().union(*filter(None, residues)))
    return refold_tables(backend, field, CompactPairs(keys, size), *(
        None if r is None else [r.get(i, 0) for i in keys] for r in residues))


def refold_tables(backend: Backend, field: PrimeField, layout, *folded):
    """``(layout, backend, *tables)`` a proof continues on after a fold
    of its tables laid out as ``layout``.

    A dense fold goes to :func:`small_tables`.  A compact fold holds one
    entry per touched pair; the entries of pairs ``2s`` and ``2s + 1``
    become pair ``s``'s even and odd entries.  Once the pairs touched are
    more than :data:`COMPACT_SHARE` of the pairs, or the table is down to
    :data:`SMALL_TABLE` entries, the entries are scattered into a dense
    table instead, and :func:`small_tables` takes over from there; a
    compact table of at most :data:`SMALL_TABLE` pairs goes on as scalar
    lists.
    """
    if layout is not None:
        ids, size = layout
        paired = size > SMALL_TABLE and _pairing(
            ids, COMPACT_SHARE * (size // 2))
        if paired:
            pair_ids, slots = paired
            return _onward(
                backend, field, CompactPairs(pair_ids, size // 2),
                _scattered(backend, slots, folded, 2 * len(pair_ids)))
        # The fold's entry for pair t belongs at entry t of a dense fold.
        folded = _scattered(backend, ids, folded, size)
    return _onward(backend, field, None, folded)


def _pairing(ids, limit: float):
    """``(pair_ids, slots)`` of a compact fold laid out by ``ids``, or
    None when it makes more than ``limit`` new pairs: the entry of old
    pair ``ids[i]`` goes to slot ``ids[i] & 1`` of new pair
    ``ids[i] >> 1``, whose place is the number of new pairs begun before
    ``i``."""
    if isinstance(ids, list):
        place = {}
        slots = [2 * place.setdefault(i >> 1, len(place)) + (i & 1)
                 for i in ids]
        return (list(place), slots) if len(place) <= limit else None
    halves = ids >> 1
    starts = _np.ones(len(ids), dtype=bool)
    _np.not_equal(halves[1:], halves[:-1], out=starts[1:])
    if _np.count_nonzero(starts) > limit:
        return None
    slots = _np.cumsum(starts)
    slots -= 1
    slots <<= 1
    slots += (ids & 1).view(_np.int64)  # compact_entries' keys are uint64
    return halves[starts], slots


def _scattered(backend: Backend, at, tables, length: int):
    """Each table's entries (None stays None) written at ``at`` of a zero
    table of ``length`` entries, of the table's kind."""
    out = []
    for entries in tables:
        table = entries
        if isinstance(entries, list):
            table = [0] * length
            for i, value in zip(at, entries):
                table[i] = value
        elif entries is not None:
            table = backend.zeros(length)
            table[at] = entries
        out.append(table)
    return out


def entry_reader(table, layout, indices):
    """``read(i)``: entry ``i`` of the dense table, a Python int, read
    from a table laid out as ``layout`` — 0 for an entry of an absent
    pair.  A compact NumPy table is searched once, for every entry of
    ``indices`` (any iterable, consumed only then); a compact list is
    bisected per read, a dense table read in place."""
    if layout is None:
        return (table.__getitem__ if isinstance(table, (list, tuple))
                else table.item)
    ids = layout.ids
    if isinstance(ids, list):
        def read(i):
            at = bisect_left(ids, i >> 1)
            if at < len(ids) and ids[at] == i >> 1:
                return table[2 * at + (i & 1)]
            return 0
        return read
    indices = list(indices)
    if not indices or not len(ids):
        return dict.fromkeys(indices, 0).__getitem__
    # Split in Python: an entry index may pass 2^63, its pair id never.
    pairs = _np.asarray([i >> 1 for i in indices], dtype=ids.dtype)
    at = _np.searchsorted(ids, pairs)
    _np.minimum(at, len(ids) - 1, out=at)
    values = table[2 * at + [i & 1 for i in indices]]
    values[ids[at] != pairs] = 0
    return dict(zip(indices, values.tolist())).__getitem__


def indices_within(table, low: int, high: int) -> List[int]:
    """Ascending indices of a dense table's entries inside
    ``[low, high]``, as Python ints."""
    if isinstance(table, (list, tuple)):
        return [i for i, value in enumerate(table) if low <= value <= high]
    return _np.flatnonzero((table >= low) & (table <= high)).tolist()


def pair_runs(layout, runs):
    """Runs ``(start, end)`` of a dense table's pairs (None stays None) as
    runs of a table laid out as ``layout``: the same runs when it is
    dense, else each run's touched pairs, all found by one search."""
    if layout is None:
        return runs
    ids = layout.ids
    ends = [end for run in runs if run for end in run]
    if isinstance(ids, list):
        mapped = iter([bisect_left(ids, end) for end in ends])
    else:
        mapped = iter(_np.searchsorted(
            ids, _np.asarray(ends, dtype=ids.dtype)).tolist())
    return [run and (next(mapped), next(mapped)) for run in runs]


def _split_limbs(values, bound: int, rows):
    """The 22-bit limbs of ``values`` (canonical, at most ``bound`` >=
    2^22) written to the three ``rows``, low limb first; returns the two
    or three ``bound`` reaches."""
    _np.bitwise_and(values, _MASK22, out=rows[0])
    _np.right_shift(values, _U22, out=rows[1])
    if not bound >> 44:
        return rows[:2]
    _np.right_shift(values, _U44, out=rows[2])
    _np.bitwise_and(rows[1], _MASK22, out=rows[1])
    return rows


def _tile_limbs(backend: "VectorizedField", table, a: int, b: int,
                column: int = 0):
    """22-bit limbs of table entries ``[2a, 2b)`` — one tile's pairs — as
    the rows of a matrix, low limb first: only the limbs the tile's
    largest entry reaches, so counts below 2^22 are one row, the table's
    own slice, neither copied nor written.  Otherwise the rows live in
    the thread's scratch, ``column`` 0 or 1 choosing the half of it.
    """
    tile = table[2 * a : 2 * b]
    bound = int(tile.max())
    if bound < 1 << 22:
        return tile[None, :]
    start = 2 * _TILE_PAIRS * column
    return _split_limbs(tile, bound, backend.tile_scratch(
        4 * _TILE_PAIRS)[:3, start : start + tile.shape[0]])


def _limb_products(xs, ys) -> int:
    """Exact ``Σ_t x_t·y_t`` from two limb matrices of one tile, as a
    Python int: every limb-pair dot in one integer matrix product.  A
    limb is < 2^22, so a dot of up to 2^19 terms stays below 2^63 —
    exact in ``uint64`` for tiles of :data:`_TILE_PAIRS` pairs."""
    total = 0
    for i, row in enumerate(_np.dot(xs, ys.T).tolist()):
        for j, s in enumerate(row):
            total += s << (22 * (i + j))
    return total


def _fold_pairs_m61(backend: "VectorizedField", table, r: int, w0):
    """:func:`fold_pairs` on ``uint64`` Mersenne-61 residues: each tile's
    ``w0·E + r·O`` by one in-place limb product against the pre-split
    scalar, allocating only the output.  ``w0`` is None for ``1 - r``.
    """
    pairs = table.shape[0] // 2
    out = _np.empty(pairs, dtype=_np.uint64)
    rh, rl = _np.uint64(r >> 32), _np.uint64(r & 0xFFFFFFFF)
    scratch = backend.tile_scratch(4 * _TILE_PAIRS)
    for a in range(0, pairs, _TILE_PAIRS):
        b = min(a + _TILE_PAIRS, pairs)
        even = table[2 * a : 2 * b : 2]
        odd = table[2 * a + 1 : 2 * b : 2]
        d, t0, t1, t2 = scratch[:4, : b - a]
        if w0 is None:
            # (1-r)·E + r·O = E + r·(O - E), and O + (p - E) < 2p < 2^62
            # is a relaxed residue the limb product takes as it is.
            _np.subtract(_M61, even, out=d)
            _np.add(d, odd, out=d)
        else:
            _np.copyto(d, odd)
        _mul_m61_acc(d, rh, rl, t0, t1, t2)
        if w0 is None or w0 == 1:
            _np.add(t2, even, out=t2)  # < 2^63 + 2^61 + 2^34 + 8
        else:
            _reduce_m61_into(t2, t0, out[a:b])
            _np.copyto(d, even)
            _mul_m61_acc(d, _np.uint64(w0 >> 32),
                         _np.uint64(w0 & 0xFFFFFFFF), t0, t1, t2)
            _np.add(t2, out[a:b], out=t2)
        _reduce_m61_into(t2, t0, out[a:b])
    return out


def fold_pairs(backend: Backend, field: PrimeField, table, r: int,
               zero_weight: int = None):
    """One table fold: ``T'[t] = w0·T[2t] + r·T[2t+1] (mod p)``.

    The Appendix B.1 step shared by the sum-check provers (where
    ``w0 = 1 - r``, the default) and the tree-hash prover (which passes
    ``zero_weight=1`` for the unnormalized variant).  Accepts list or
    backend-array tables; returns the same kind it was given and never
    writes its input.
    """
    p = field.p
    r %= p
    w0 = (1 - r) % p if zero_weight is None else zero_weight % p
    if getattr(backend, "vectorized", False):
        return _fold_pairs_m61(backend, ensure_backend_array(backend, table),
                               r, None if zero_weight is None else w0)
    return [(w0 * even + r * odd) % p
            for even, odd in zip(table[0::2], table[1::2])]


def _moment_tile(top_order: int) -> Tuple[int, int]:
    """``(rows, pairs)`` of one tile of :func:`_pair_moments_m61`: five
    work rows and three limb rows for each power 1 .. k-1 — 3k + 2 — of a
    tile must fit the 5 × 2^15 scratch entries, so the tile shrinks as
    the top order grows and memory grows with neither k nor the table."""
    rows = 3 * max(top_order, 2) + 2
    return rows, min(_TILE_PAIRS, 10 * _TILE_PAIRS // rows)


def _pair_moments_m61(backend: "VectorizedField", table, orders):
    """``{k: [Σ_t E_t^(k-j)·O_t^j for j = 0..k]}`` of a ``uint64``
    Mersenne-61 table as exact Python ints, a tile at a time.

    The halves are interleaved, so ``tile^e`` is one product over the
    tile for both: a plain ``uint64`` multiply while ``top^e < p`` (all
    of round 0 on count data), :func:`_mul_m61_into` after.  Each power
    is split into only the limbs its bound reaches and a moment is one
    :func:`_limb_products` of strided views.  All rows live in the
    thread's scratch (:func:`_moment_tile`).
    """
    top_order = orders[-1]
    rows, step = _moment_tile(top_order)
    scratch = backend.tile_scratch(4 * _TILE_PAIRS).reshape(-1)[
        : 2 * step * rows].reshape(rows, 2 * step)
    moments = {k: [0] * (k + 1) for k in orders}
    pairs = table.shape[0] // 2
    for a in range(0, pairs, step):
        tile = table[2 * a : 2 * min(a + step, pairs)]
        work = scratch[:, : tile.shape[0]]
        top = bound = int(tile.max())
        limbs = [None, tile[None, :] if bound < 1 << 22
                 else _split_limbs(tile, bound, work[5:8])]
        power = tile
        for e in range(2, top_order):
            bound *= top
            block = work[3 * e + 2 : 3 * e + 5]
            # A one-limb power is its own limb row and must survive the
            # next product; wider ones are split, so they share row 0.
            narrow = bound < 1 << 22
            dest = block[0] if narrow else work[0]
            if bound < _MERSENNE_61:
                _np.multiply(power, tile, out=dest)
            else:
                bound = _MERSENNE_61 - 1
                if power is not dest:
                    _np.copyto(dest, power)
                spare, t0, t1, t2 = work[1:5]
                _np.copyto(spare, tile)
                _mul_m61_into(dest, spare, t0, t1, t2)
            power = dest
            limbs.append(power[None, :] if narrow
                         else _split_limbs(power, bound, block))
        even = [m if m is None else m[:, 0::2] for m in limbs]
        odd = [m if m is None else m[:, 1::2] for m in limbs]
        for k, sums in moments.items():
            if k == 1:
                halves = limbs[1].reshape(limbs[1].shape[0], -1, 2)
                for i, (e, o) in enumerate(
                        halves.sum(axis=1, dtype=_np.uint64).tolist()):
                    sums[0] += e << (22 * i)
                    sums[1] += o << (22 * i)
                continue
            sums[0] += _limb_products(even[k - 1], even[1])
            sums[k] += _limb_products(odd[k - 1], odd[1])
            for j in range(1, k):
                sums[j] += _limb_products(even[k - j], odd[j])
    return moments


@lru_cache(maxsize=64)
def _line_power_weights(k: int):
    """Row c = 2..k: the integer coefficients of the pair moments in
    ``Σ_t ((1-c)·E_t + c·O_t)^k`` — ``C(k,j)·(1-c)^(k-j)·c^j``, negative
    where k - j is odd.  (At c = 0 and 1 the sum is a moment itself.)"""
    return tuple(
        tuple(comb(k, j) * (1 - c) ** (k - j) * c ** j for j in range(k + 1))
        for c in range(2, k + 1)
    )


def moment_round_sums(backend: Backend, field: PrimeField, table,
                      orders) -> Dict[int, List[int]]:
    """``{k: [g(0), ..., g(k)]}`` of the degree-k sum-check round
    polynomials ``g(c) = Σ_t ((1-c)·A[2t] + c·A[2t+1])^k`` for every
    order k asked for, in one pass over the folded table A.

    ``g(c) = Σ_j C(k,j)·(1-c)^(k-j)·c^j · M_j`` with the k + 1 pair
    moments ``M_j = Σ_t A[2t]^(k-j)·A[2t+1]^j``: k - 2 elementwise
    products give the powers every order shares, each moment is one
    inner product, and the weights are exact integers reduced once at
    the end.  Shared by the F2 / Fk provers (order 2 is F2), the shard
    workers and the batched engine, on either backend.

    A request for order 2 alone — every F2-only round — takes the three
    products ``g(0)``, ``g(1)`` and ``Σ E·O`` directly, as limb products
    on a Mersenne-61 table (:func:`_f2_sums_m61`): the general kernel's
    bookkeeping is ≈ 5 µs a call, a sixth of an F2 proof at u = 2^12.
    """
    orders = sorted(set(orders))
    if not orders:
        return {}
    if orders[0] < 1:
        raise ValueError("moment order k must be >= 1, got %d" % orders[0])
    table = ensure_backend_array(backend, table)
    p = field.p
    if orders == [2]:
        if getattr(backend, "vectorized", False):
            return {2: _f2_sums_m61(backend, field, table)}
        even, odd = table[0::2], table[1::2]
        g0, g1, gm = (sum(map(mul, x, y)) for x, y in (
            (even, even), (odd, odd), (even, odd)))
        return {2: [g0 % p, g1 % p, (g0 + 4 * g1 - 4 * gm) % p]}
    return {
        k: [sums[0] % p, sums[-1] % p] + [
            sum(w * m for w, m in zip(row, sums)) % p
            for row in _line_power_weights(k)]
        for k, sums in pair_moments(backend, table, orders).items()
    }


def pair_moments(backend: Backend, table, orders) -> Dict[int, List[int]]:
    """``{k: [Σ_t A[2t]^(k-j)·A[2t+1]^j for j = 0..k]}`` for every order
    k >= 1 in the ascending ``orders``, as Python ints congruent to the
    moments mod p (exact on NumPy, reduced on :class:`ScalarBackend`).

    The raw pair moments under :func:`moment_round_sums` and the
    frequency-based prover's round message; any order.  The scalar body
    takes the powers ``A^2 .. A^(k-1)`` once and each moment as one
    ``dot`` of an even power against an odd one.
    """
    if getattr(backend, "vectorized", False):
        return _pair_moments_m61(backend, table, orders)
    powers = [None, table]
    for _ in range(2, orders[-1]):
        powers.append(backend.mul(powers[-1], table))
    even = [q if q is None else q[0::2] for q in powers]
    odd = [q if q is None else q[1::2] for q in powers]
    return {
        k: [backend.sum(even[1]), backend.sum(odd[1])] if k == 1 else
        [backend.dot(even[k - 1], even[1])]
        + [backend.dot(even[k - j], odd[j]) for j in range(1, k)]
        + [backend.dot(odd[k - 1], odd[1])]
        for k in orders
    }


def _f2_sums_m61(backend: "VectorizedField", field: PrimeField,
                 table) -> List[int]:
    """Order 2 of :func:`moment_round_sums` on a ``uint64`` Mersenne-61
    table: ``g(0)``, ``g(1)`` and the cross moment as three limb
    products per tile, ``g(2) = g(0) + 4·g(1) - 4·Σ E·O``."""
    p = field.p
    g0 = g1 = gm = 0
    pairs = table.shape[0] // 2
    for a in range(0, pairs, _TILE_PAIRS):
        limbs = _tile_limbs(backend, table, a, min(a + _TILE_PAIRS, pairs))
        lo, hi = limbs[:, 0::2], limbs[:, 1::2]
        g0 += _limb_products(lo, lo)
        g1 += _limb_products(hi, hi)
        gm += _limb_products(lo, hi)
    return [g0 % p, g1 % p, (g0 + 4 * g1 - 4 * gm) % p]


def f2_round_sums(backend: Backend, field: PrimeField, table) -> List[int]:
    """[g(0), g(1), g(2)] of the F2 sum-check round polynomial
    ``g(c) = Σ_t ((1-c)·A[2t] + c·A[2t+1])²``: order 2 of
    :func:`moment_round_sums`, for the shard workers and the
    coordinator."""
    return moment_round_sums(backend, field, table, (2,))[2]


def inner_product_round_sums(
    backend: Backend, field: PrimeField, table_a, table_b
) -> List[int]:
    """[g(0), g(1), g(2)] with ``g(c) = Σ_t lineA_t(c) · lineB_t(c)``.

    The two-table analogue of :func:`f2_round_sums` — three inner
    products over the even/odd halves of both tables.  Shared by the
    INNER-PRODUCT / RANGE-SUM provers and the batched multi-query
    engine's shared-vector queries.
    """
    p = field.p
    table_a = ensure_backend_array(backend, table_a)
    table_b = ensure_backend_array(backend, table_b)
    if getattr(backend, "vectorized", False):
        # g(2) = Σ (2·Oa - Ea)(2·Ob - Eb) from the four even/odd cross
        # dots; the limbs are split once per tile and, as in
        # f2_round_sums, only those the entries reach.
        ee = oo = cross = 0
        pairs = table_a.shape[0] // 2
        for a in range(0, pairs, _TILE_PAIRS):
            b = min(a + _TILE_PAIRS, pairs)
            a_limbs = _tile_limbs(backend, table_a, a, b, 0)
            b_limbs = _tile_limbs(backend, table_b, a, b, 1)
            a_lo, a_hi = a_limbs[:, 0::2], a_limbs[:, 1::2]
            b_lo, b_hi = b_limbs[:, 0::2], b_limbs[:, 1::2]
            ee += _limb_products(a_lo, b_lo)
            oo += _limb_products(a_hi, b_hi)
            cross += _limb_products(a_lo, b_hi) + _limb_products(a_hi, b_lo)
        return [ee % p, oo % p, (ee + 4 * oo - 2 * cross) % p]
    g0 = g1 = g2 = 0
    for t in range(0, len(table_a), 2):
        a_lo, a_hi = table_a[t], table_a[t + 1]
        b_lo, b_hi = table_b[t], table_b[t + 1]
        g0 += a_lo * b_lo
        g1 += a_hi * b_hi
        g2 += (2 * a_hi - a_lo) * (2 * b_hi - b_lo)
    return [g0 % p, g1 % p, g2 % p]


def get_backend(field: PrimeField, name: str = None) -> Backend:
    """Select the compute backend for ``field``.

    ``name`` is ``"auto"``, ``"vectorized"`` or ``"scalar"``; when omitted
    it is read from the ``REPRO_BACKEND`` environment variable (default
    ``auto``).  ``auto`` and ``vectorized`` pick :class:`VectorizedField`
    when NumPy is importable and ``field`` is ``2^61 - 1``, and
    :class:`ScalarBackend` otherwise: NumPy has no path for any other
    modulus.  Requesting ``vectorized`` without NumPy is an error.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if name not in ("auto", "vectorized", "scalar"):
        raise ValueError(
            "unknown backend %r (expected auto, vectorized or scalar)" % name
        )
    if name == "vectorized" and not HAVE_NUMPY:
        raise RuntimeError(
            "the vectorized backend was requested but numpy is not "
            "installed (unset %s or install numpy)" % BACKEND_ENV_VAR
        )
    if name == "scalar" or not HAVE_NUMPY or field.p != _MERSENNE_61:
        return ScalarBackend(field)
    return VectorizedField(field)
