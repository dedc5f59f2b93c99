"""Sparse provers: the ``O(min(u, n log(u/n)))`` bound of Theorems 4 & 5.

When the stream touches only n ≪ u distinct keys, the folded tables
stay sparse for the first ~log(u/n) rounds.  The batched engine
(:mod:`repro.core.multiquery`) and the tree prover
(:mod:`repro.core.subvector`) start from a dense canonical table of 2^d
entries and keep only its touched pairs until they pass
:data:`~repro.field.vectorized.COMPACT_SHARE` of it
(:func:`~repro.field.vectorized.compact_tables`).  The provers here hold
a frequency *dictionary* instead, so no dense vector of the universe
ever exists (any u works), touching O(n) entries per round until the
table densifies — exactly the ``n·log(u/n)`` term in the paper's prover
bounds.  Under NumPy, from :data:`VECTOR_MIN_KEYS` keys on and while
u ≤ 2^64, a proof starts on the same compact layout, built straight
from the dictionary (:func:`~repro.field.vectorized.compact_entries`),
and runs the shared kernels from there; below that, past 2^64 and
without NumPy, the dictionary loops run.  Messages are *identical* to
the dense provers' (tested), so these are drop-in replacements accepted
by the same verifiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import pow2_dimension
from repro.core.subvector import sibling_plan
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    compact_entries,
    entry_reader,
    f2_round_sums,
    fold_pairs,
    get_backend,
    refold_tables,
)

#: Keys from which a NumPy proof starts compact instead of on the
#: dictionary loops: where whole proofs cross over at u = 2^20 and 2^48,
#: F2 near 56–64 keys and a range scan near 80–96.  At 80 keys an F2
#: proof takes 0.80 ms against 1.04 (2^20) and 2.21 against 3.65 (2^48),
#: a scan 0.59 against 0.54 and 1.78 against 1.89 (best of 15, one
#: pinned Xeon CPU; README, *Sparse early rounds*).  Messages are
#: identical either way.
VECTOR_MIN_KEYS = 80


def _bump(freq: Dict[int, int], u: int, i: int, delta: int) -> None:
    """``freq[i] += delta`` for a key of [u], dropping a key that hits 0."""
    if not 0 <= i < u:
        raise ValueError("key %d outside universe [0, %d)" % (i, u))
    value = freq.get(i, 0) + delta
    if value:
        freq[i] = value
    else:
        freq.pop(i, None)


def _residues(field: PrimeField, freq: Dict[int, int]) -> Dict[int, int]:
    p = field.p
    return {i: f % p for i, f in freq.items() if f % p}


def _fold_dict(table: Dict[int, int], w0: int, r: int, p: int
               ) -> Dict[int, int]:
    """One fold ``T'[t] = w0·T[2t] + r·T[2t+1]`` of a dictionary table,
    visiting only the pairs holding an entry."""
    folded: Dict[int, int] = {}
    for t in {i >> 1 for i in table}:
        value = (w0 * table.get(2 * t, 0) + r * table.get(2 * t + 1, 0)) % p
        if value:
            folded[t] = value
    return folded


def _kernel_start(prover):
    """``(layout, backend, table)`` a proof on the shared kernels starts
    on, or None for the dictionary loops."""
    if len(prover.freq) < VECTOR_MIN_KEYS:
        return None
    return compact_entries(prover.backend, prover.field, prover.freq,
                           prover.size)


def _kernel_fold(field: PrimeField, state, r: int, zero_weight=None):
    layout, be, table = state
    return refold_tables(be, field, layout, fold_pairs(
        be, field, table, r, zero_weight=zero_weight))


class SparseF2Prover:
    """F2 prover over a dictionary table: O(n) per round while sparse.

    From :data:`VECTOR_MIN_KEYS` keys a NumPy proof starts on the
    dictionary's compact layout and runs
    :func:`~repro.field.vectorized.f2_round_sums` and
    :func:`~repro.field.vectorized.fold_pairs` over it; the dictionary
    loops below are the bit-identical reference.
    """

    def __init__(self, field: PrimeField, u: int, backend=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq: Dict[int, int] = {}
        # One of the two is set once a proof starts: the dictionary, or
        # the (layout, backend, table) of the shared kernels.
        self._table: Optional[Dict[int, int]] = None
        self._vtable = None

    def process(self, i: int, delta: int) -> None:
        _bump(self.freq, self.u, i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def true_answer(self) -> int:
        return sum(f * f for f in self.freq.values())

    def begin_proof(self) -> None:
        self._vtable = _kernel_start(self)
        self._table = (None if self._vtable is not None
                       else _residues(self.field, self.freq))

    def round_message(self) -> List[int]:
        """Same message as the batched engine's F2 member — computed by
        visiting only the pairs containing a nonzero entry."""
        if self._vtable is not None:
            _layout, be, table = self._vtable
            return f2_round_sums(be, self.field, table)
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        p = self.field.p
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
        if self._vtable is not None:
            self._vtable = _kernel_fold(self.field, self._vtable, r)
        elif self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        else:
            p = self.field.p
            self._table = _fold_dict(self._table, (1 - r) % p, r, p)


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

    def process_a(self, i: int, delta: int) -> None:
        _bump(self.freq_a, self.u, i, delta)

    def process_b(self, i: int, delta: int) -> None:
        _bump(self.freq_b, self.u, i, delta)

    def true_answer(self) -> int:
        return sum(v * self.freq_b.get(i, 0) for i, v in self.freq_a.items())

    def begin_proof(self) -> None:
        self._table_a = _residues(self.field, self.freq_a)
        self._table_b = _residues(self.field, self.freq_b)

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
        self._table_a = _fold_dict(self._table_a, (1 - r) % p, r, p)
        self._table_b = _fold_dict(self._table_b, (1 - r) % p, r, p)


class SparseSubVectorProver:
    """SUB-VECTOR prover over dictionary level arrays.

    Missing entries hash to 0, so sibling lookups outside the populated
    region cost O(1) and each fold touches O(n) nodes — the
    ``n log(u/n)`` tree-size bound from Appendix B.2.  From
    :data:`VECTOR_MIN_KEYS` keys a NumPy query folds the dictionary's
    compact layout with the shared kernels instead.
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
        # As SparseF2Prover's _table and _vtable, one level at a time.
        self._level: Optional[Dict[int, int]] = None
        self._vlevel = None
        self._level_index = 0
        self._plan = None
        self._query: Optional[Tuple[int, int]] = None

    def process(self, i: int, delta: int) -> None:
        _bump(self.freq, self.u, i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def receive_query(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi < self.size:
            raise ValueError("query range [%d, %d] invalid" % (lo, hi))
        self._query = (lo, hi)
        self._plan = sibling_plan(lo, hi, self.d)
        self._vlevel = _kernel_start(self)
        self._level = (None if self._vlevel is not None
                       else _residues(self.field, self.freq))
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

    def _siblings(self, j: int) -> List[Tuple[int, int]]:
        """(node index, hash) of level ``j``'s plan entries."""
        plan = self._plan[j]
        if self._vlevel is None:
            return [(idx, self._level.get(idx, 0)) for idx in plan]
        layout, _be, level = self._vlevel
        read = entry_reader(level, layout, plan)
        return [(idx, read(idx)) for idx in plan]

    def level0_siblings(self) -> List[Tuple[int, int]]:
        if self._plan is None:
            raise RuntimeError("receive_query() must be called first")
        return self._siblings(0)

    def receive_challenge(self, r_j: int) -> List[Tuple[int, int]]:
        if self._plan is None:
            raise RuntimeError("receive_query() must be called first")
        if self._vlevel is not None:
            self._vlevel = _kernel_fold(self.field, self._vlevel, r_j,
                                        None if self.normalized else 1)
        else:
            p = self.field.p
            self._level = _fold_dict(
                self._level, (1 - r_j) % p if self.normalized else 1, r_j, p)
        self._level_index += 1
        j = self._level_index
        return self._siblings(j) if j < self.d else []
