"""Sparse provers: the ``O(min(u, n log(u/n)))`` bound of Theorems 4 & 5.

When the stream touches only n ≪ u distinct keys, the folded tables
stay sparse for the first ~log(u/n) rounds.  The standalone dense
provers (:mod:`repro.core.f2`, :mod:`repro.core.fk`,
:mod:`repro.core.inner_product`) still fold all u entries every round;
the batched engine (:mod:`repro.core.multiquery`) and the tree prover
(:mod:`repro.core.subvector`) keep only the touched pairs until they
pass :data:`~repro.field.vectorized.COMPACT_SHARE` of a dense table of
at most 2^d entries (:func:`~repro.field.vectorized.compact_tables`).
The provers here go further: they hold a frequency *dictionary*, so no
dense vector of the universe ever exists (u = 2^24 and beyond), touching
O(n) entries per round until the table densifies — exactly the
``n·log(u/n)`` term in the paper's prover bounds.  They produce messages
*identical* to the dense provers' (tested), so they are drop-in
replacements accepted by the same verifiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import pow2_dimension
from repro.core.subvector import sibling_plan
from repro.field.modular import PrimeField
from repro.field.vectorized import get_backend

try:  # NumPy is optional; the dictionary reference path needs none of it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None


class _SparseTable:
    """Sorted (index, value) arrays with one-``scatter_sum``-pass folds.

    The vectorized sparse representation shared by the sparse provers:
    ``idx`` is a sorted int64 array of positions with nonzero entries and
    ``val`` the matching canonical residues.  A fold groups the entries
    by pair id ``idx >> 1`` and scatters each entry's weighted value
    (``(1-r)``/``zero_weight`` for even positions, ``r`` for odd) into a
    dense per-pair table — O(n) C-level work per round, the
    ``n·log(u/n)`` bound of Theorems 4 & 5 with no per-node Python
    dictionaries.
    """

    def __init__(self, backend, field: PrimeField, idx, val):
        self.backend = backend
        self.field = field
        self.idx = idx
        self.val = val
        self._grouping = None  # (pairs, inverse, odd), shared per level

    @classmethod
    def from_dict(cls, backend, field: PrimeField, table: Dict[int, int]):
        p = field.p
        items = sorted((i, f % p) for i, f in table.items() if f % p)
        idx = backend.index_array([i for i, _ in items])
        val = backend.asarray([f for _, f in items])
        return cls(backend, field, idx, val)

    def __len__(self) -> int:
        return int(self.idx.shape[0])

    def _group(self):
        """Pair grouping of the current level, computed once and shared
        by the round message and the fold."""
        if self._grouping is None:
            pairs, inverse = _np.unique(self.idx >> 1, return_inverse=True)
            self._grouping = (pairs, inverse, (self.idx & 1))
        return self._grouping

    def pair_split(self):
        """(pair ids, lo values, hi values) dense arrays over the pairs
        that contain at least one nonzero entry."""
        be = self.backend
        pairs, inverse, odd = self._group()
        even = odd == 0
        n = pairs.shape[0]
        lo = be.scatter_sum(inverse[even], self.val[even], n)
        hi = be.scatter_sum(inverse[~even], self.val[~even], n)
        return pairs, lo, hi

    def fold(self, r: int, zero_weight: Optional[int] = None) -> "_SparseTable":
        """One level fold: ``T'[t] = w0·T[2t] + r·T[2t+1]`` over the
        touched pairs only, as a single weighted scatter."""
        be = self.backend
        p = self.field.p
        r %= p
        w0 = (1 - r) % p if zero_weight is None else zero_weight % p
        pairs, inverse, odd = self._group()
        weighted = be.mul(self.val, be.select(odd, r, w0))
        folded = be.scatter_sum(inverse, weighted, pairs.shape[0])
        keep = be.nonzero(folded != 0)
        return _SparseTable(be, self.field, pairs[keep], folded[keep])

    def lookup(self, indices) -> List[int]:
        """Values at ``indices`` (0 for absent positions), as ints."""
        if not len(indices):
            return []
        where = _np.searchsorted(self.idx, indices)
        out = []
        n = self.idx.shape[0]
        for q, w in zip(indices, where.tolist()):
            if w < n and int(self.idx[w]) == q:
                out.append(int(self.val[w]))
            else:
                out.append(0)
        return out


class SparseF2Prover:
    """F2 prover over a dictionary table: O(n) per round while sparse.

    Under a vectorized backend the dictionary becomes a
    :class:`_SparseTable`: round messages are three limb inner products
    over the touched pairs and each fold is one ``scatter_sum`` pass.
    The dictionary loops below are the bit-identical reference.
    """

    def __init__(self, field: PrimeField, u: int, backend=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq: Dict[int, int] = {}
        self._table: Optional[Dict[int, int]] = None
        self._vtable: Optional[_SparseTable] = None

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        value = self.freq.get(i, 0) + delta
        if value:
            self.freq[i] = value
        else:
            self.freq.pop(i, None)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def true_answer(self) -> int:
        return sum(f * f for f in self.freq.values())

    #: Below this population the dictionary loops win (fixed NumPy
    #: per-op overhead dominates tiny arrays); above it the scatter
    #: passes do.  Messages are identical either way.
    VECTOR_MIN_KEYS = 2048

    def _use_vectorized(self) -> bool:
        return (
            getattr(self.backend, "vectorized", False)
            and _np is not None
            and len(self.freq) >= self.VECTOR_MIN_KEYS
        )

    def begin_proof(self) -> None:
        p = self.field.p
        if self._use_vectorized():
            self._vtable = _SparseTable.from_dict(
                self.backend, self.field, self.freq
            )
            self._table = {}  # sentinel: proof phase started
            return
        self._vtable = None
        self._table = {i: f % p for i, f in self.freq.items() if f % p}

    def round_message(self) -> List[int]:
        """Same message as the batched engine's F2 member — computed by
        visiting only the pairs containing a nonzero entry."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
        if self._vtable is not None:
            be = self.backend
            _pairs, lo, hi = self._vtable.pair_split()
            g0 = be.dot(lo, lo)
            g1 = be.dot(hi, hi)
            gm = be.dot(lo, hi)
            return [g0, g1, (g0 + 4 * g1 - 4 * gm) % p]
        table = self._table
        g0 = 0
        g1 = 0
        g2 = 0
        for t in {i >> 1 for i in table}:
            lo = table.get(2 * t, 0)
            hi = table.get(2 * t + 1, 0)
            g0 += lo * lo
            g1 += hi * hi
            at2 = 2 * hi - lo
            g2 += at2 * at2
        return [g0 % p, g1 % p, g2 % p]

    def receive_challenge(self, r: int) -> None:
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        if self._vtable is not None:
            self._vtable = self._vtable.fold(r)
            return
        p = self.field.p
        table = self._table
        one_minus_r = (1 - r) % p
        folded: Dict[int, int] = {}
        for t in {i >> 1 for i in table}:
            value = (
                one_minus_r * table.get(2 * t, 0)
                + r * table.get(2 * t + 1, 0)
            ) % p
            if value:
                folded[t] = value
        self._table = folded


class SparseInnerProductProver:
    """Inner-product prover over dictionary tables: O((n_a + n_b)·d) work.

    Message-identical to the batched engine's INNER-PRODUCT member;
    pairs where both vectors vanish contribute nothing and are never
    touched.
    """

    def __init__(self, field: PrimeField, u: int):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.freq_a: Dict[int, int] = {}
        self.freq_b: Dict[int, int] = {}
        self._table_a: Optional[Dict[int, int]] = None
        self._table_b: Optional[Dict[int, int]] = None

    def _bump(self, table: Dict[int, int], i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        value = table.get(i, 0) + delta
        if value:
            table[i] = value
        else:
            table.pop(i, None)

    def process_a(self, i: int, delta: int) -> None:
        self._bump(self.freq_a, i, delta)

    def process_b(self, i: int, delta: int) -> None:
        self._bump(self.freq_b, i, delta)

    def true_answer(self) -> int:
        return sum(v * self.freq_b.get(i, 0) for i, v in self.freq_a.items())

    def begin_proof(self) -> None:
        p = self.field.p
        self._table_a = {i: f % p for i, f in self.freq_a.items() if f % p}
        self._table_b = {i: f % p for i, f in self.freq_b.items() if f % p}

    def round_message(self) -> List[int]:
        if self._table_a is None or self._table_b is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
        ta, tb = self._table_a, self._table_b
        g0 = g1 = g2 = 0
        for t in {i >> 1 for i in ta} | {i >> 1 for i in tb}:
            a_lo = ta.get(2 * t, 0)
            a_hi = ta.get(2 * t + 1, 0)
            b_lo = tb.get(2 * t, 0)
            b_hi = tb.get(2 * t + 1, 0)
            g0 += a_lo * b_lo
            g1 += a_hi * b_hi
            g2 += (2 * a_hi - a_lo) * (2 * b_hi - b_lo)
        return [g0 % p, g1 % p, g2 % p]

    def receive_challenge(self, r: int) -> None:
        if self._table_a is None or self._table_b is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
        one_minus_r = (1 - r) % p

        def fold(table: Dict[int, int]) -> Dict[int, int]:
            out: Dict[int, int] = {}
            for t in {i >> 1 for i in table}:
                value = (
                    one_minus_r * table.get(2 * t, 0)
                    + r * table.get(2 * t + 1, 0)
                ) % p
                if value:
                    out[t] = value
            return out

        self._table_a = fold(self._table_a)
        self._table_b = fold(self._table_b)


class SparseSubVectorProver:
    """SUB-VECTOR prover over dictionary level arrays.

    Missing entries hash to 0, so sibling lookups outside the populated
    region cost O(1) and each fold touches O(n) nodes — the
    ``n log(u/n)`` tree-size bound from Appendix B.2.
    """

    def __init__(self, field: PrimeField, u: int, normalized: bool = False,
                 backend=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.normalized = normalized
        self.backend = backend if backend is not None else get_backend(field)
        self.freq: Dict[int, int] = {}
        self._level: Optional[Dict[int, int]] = None
        self._vlevel: Optional[_SparseTable] = None
        self._level_index = 0
        self._plan = None
        self._query: Optional[Tuple[int, int]] = None

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        value = self.freq.get(i, 0) + delta
        if value:
            self.freq[i] = value
        else:
            self.freq.pop(i, None)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def receive_query(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi < self.size:
            raise ValueError("query range [%d, %d] invalid" % (lo, hi))
        self._query = (lo, hi)
        self._plan = sibling_plan(lo, hi, self.d)
        p = self.field.p
        if (
            getattr(self.backend, "vectorized", False)
            and _np is not None
            and len(self.freq) >= SparseF2Prover.VECTOR_MIN_KEYS
        ):
            self._vlevel = _SparseTable.from_dict(
                self.backend, self.field, self.freq
            )
            self._level = {}  # sentinel: query phase started
        else:
            self._vlevel = None
            self._level = {i: f % p for i, f in self.freq.items() if f % p}
        self._level_index = 0

    def answer_entries(self) -> List[Tuple[int, int]]:
        if self._query is None:
            raise RuntimeError("receive_query() must be called first")
        lo, hi = self._query
        p = self.field.p
        return sorted(
            (i, f % p)
            for i, f in self.freq.items()
            if lo <= i <= hi and f % p
        )

    def level0_siblings(self) -> List[Tuple[int, int]]:
        if self._plan is None or self._level is None:
            raise RuntimeError("receive_query() must be called first")
        if self._vlevel is not None:
            return list(zip(self._plan[0], self._vlevel.lookup(self._plan[0])))
        return [(idx, self._level.get(idx, 0)) for idx in self._plan[0]]

    def receive_challenge(self, r_j: int) -> List[Tuple[int, int]]:
        if self._plan is None or self._level is None:
            raise RuntimeError("receive_query() must be called first")
        p = self.field.p
        zero_weight = (1 - r_j) % p if self.normalized else 1
        if self._vlevel is not None:
            self._vlevel = self._vlevel.fold(r_j, zero_weight=zero_weight)
            self._level_index += 1
            j = self._level_index
            if j < self.d:
                return list(
                    zip(self._plan[j], self._vlevel.lookup(self._plan[j]))
                )
            return []
        level = self._level
        folded: Dict[int, int] = {}
        for t in {i >> 1 for i in level}:
            value = (
                zero_weight * level.get(2 * t, 0)
                + r_j * level.get(2 * t + 1, 0)
            ) % p
            if value:
                folded[t] = value
        self._level = folded
        self._level_index += 1
        j = self._level_index
        if j < self.d:
            return [(idx, self._level.get(idx, 0)) for idx in self._plan[j]]
        return []
