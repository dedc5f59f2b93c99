"""SUB-VECTOR — the hash-tree reporting protocol of Section 4.1.

The verifier conceptually builds a binary tree over the frequency vector
with per-level random parameters ``r_1..r_d``; an internal node at level
``j+1`` hashes its children as ``v = v_L + r_{j+1} · v_R`` over ``Z_p``.
Only the root ``t`` is maintained while streaming (equation (8)):

    t = Σ_i a_i · Π_j r_j^{bit_j(i)}

The interactive phase reconstructs the root from the prover's claimed
sub-vector: the verifier aggregates the claimed leaves into the canonical
(dyadic) nodes of the query range, the prover supplies the O(1)-per-level
sibling hashes outside the range (after each ``r_j`` is revealed; ``r_d``
is never revealed), and the verifier merges upward and compares with ``t``.

The Appendix B.2 remark — hashing with ``(1-r_j) v_L + r_j v_R`` makes the
root exactly the LDE ``f_a(r)`` — is available via ``normalized=True``.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.channel import Channel
from repro.core.base import (
    VerificationResult,
    accepted,
    add_update,
    check_range,
    pow2_dimension,
    rejected,
)
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    compact_entries,
    compact_tables,
    entry_reader,
    fold_pairs,
    get_backend,
    refold_tables,
)
from repro.lde.canonical import dyadic_cover
from repro.lde.streaming import (
    DEFAULT_BLOCK,
    StreamSketch,
    apply_stream_batched,
)


_SCAN_BLOCK = 1 << 10  # keys per backend read of SubVectorProver.present


def sibling_plan(lo: int, hi: int, d: int) -> List[List[int]]:
    """Sibling node indices the prover must supply, per level.

    Deterministic function of the query range: simulate the bottom-up merge
    of the canonical cover of ``[lo, hi]`` and record, for every level j,
    the indices of level-j nodes that are held but whose sibling is not.
    Both parties compute this independently.
    """
    needed: List[List[int]] = [[] for _ in range(d)]
    held_by_level: Dict[int, set] = {}
    for level, index in dyadic_cover(lo, hi):
        held_by_level.setdefault(level, set()).add(index)
    current = held_by_level.get(0, set())
    for j in range(d):
        parents = set()
        for idx in sorted(current):
            sibling = idx ^ 1
            if sibling not in current:
                needed[j].append(sibling)
            parents.add(idx >> 1)
        current = parents | held_by_level.get(j + 1, set())
    return needed


@dataclass(frozen=True)
class SubVectorAnswer:
    """Verified query answer: sorted nonzero (key, frequency) pairs."""

    lo: int
    hi: int
    entries: Tuple[Tuple[int, int], ...]

    def as_dict(self) -> Dict[int, int]:
        return dict(self.entries)

    @property
    def k(self) -> int:
        return len(self.entries)


class TreeHashVerifier(StreamSketch):
    """Streaming verifier state: ``r_1..r_d`` and the running root ``t``."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        rng: Optional[random.Random] = None,
        point: Optional[Sequence[int]] = None,
        normalized: bool = False,
        backend=None,
    ):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.normalized = normalized
        self.backend = backend if backend is not None else get_backend(field)
        if point is None:
            if rng is None:
                rng = random.Random()
            point = field.rand_vector(rng, self.d)
        if len(point) != self.d:
            raise ValueError("need %d hash parameters" % self.d)
        self.r = [x % field.p for x in point]
        # For the normalized (LDE-equivalent) variant, 0-branches weigh
        # (1 - r_j) instead of 1.
        self._zero_weights = [
            (1 - x) % field.p if normalized else 1 for x in self.r
        ]
        self.root = 0

    def leaf_weight(self, i: int) -> int:
        p = self.field.p
        acc = 1
        for j in range(self.d):
            if (i >> j) & 1:
                acc = acc * self.r[j] % p
            else:
                zw = self._zero_weights[j]
                if zw != 1:
                    acc = acc * zw % p
        return acc

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.root = (self.root + delta * self.leaf_weight(i)) % self.field.p

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    # -- batched stream processing (see lde.streaming.SketchStack) -----------

    @property
    def stream_sketches(self):
        return (self,)

    def sketch_tables(self):
        """``leaf_weight(i)`` is a product of per-bit factors — the same
        tensor structure as the LDE's χ tables (for ``normalized=True``
        they *are* the χ tables of ``r``)."""
        return [list(pair) for pair in zip(self._zero_weights, self.r)]

    def absorb(self, contribution: int, count: int) -> None:
        self.root = (self.root + contribution) % self.field.p

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        """Fold ``(i, δ)`` updates into the root block by block; result
        identical to :meth:`process_stream`."""
        apply_stream_batched([self], updates, block=block)

    def merge(self, level: int, left: int, right: int) -> int:
        """Hash of a level-(level+1) parent from its level-`level` children."""
        p = self.field.p
        return (self._zero_weights[level] * left + self.r[level] * right) % p

    @property
    def space_words(self) -> int:
        # r (d words) + root + O(1) per level of transient hashes (<= 4d
        # during the interactive phase: <=2 canonical + <=2 supplied).
        return self.d + 1 + 4 * self.d


class SubVectorProver:
    """Honest prover: stores the vector, folds level hashes as r_j arrive.

    A level is kept as the pairs it touches while they are at most
    :data:`~repro.field.vectorized.COMPACT_SHARE` of its pairs
    (:func:`~repro.field.vectorized.compact_tables` /
    :func:`~repro.field.vectorized.refold_tables`; an absent sibling
    reads 0), then dense, and on Python ints once it is down to
    :data:`~repro.field.vectorized.SMALL_TABLE` entries (a compact level
    to as many pairs).  Each query starts again from ``freq``, which no
    level writes, or from ``start``, its read-only layout and level 0
    (:func:`~repro.field.vectorized.frozen_start`).  A mapping ``freq``
    — a ``collections.Counter`` — starts each query from its keys'
    compact layout (:func:`~repro.field.vectorized.compact_entries`): no
    table of the universe, so any u works."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        normalized: bool = False,
        backend=None,
        freq=None,
        start=None,
    ):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.normalized = normalized
        self.backend = backend if backend is not None else get_backend(field)
        self.freq = freq if freq is not None else [0] * self.size
        # A shared read-only ``freq`` may come with its read-only
        # compact_tables start, built once for every query on it.
        self._start = start
        # The backend and level layout of the proof in progress
        # (compact_tables, refold_tables).
        self._be = self.backend
        self._layout = None
        self._level = None
        self._level_index = 0
        self._plan: Optional[List[List[int]]] = None
        self._query: Optional[Tuple[int, int]] = None

    def process(self, i: int, delta: int) -> None:
        add_update(self.freq, self.u, i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def present(self, keys: range):
        """``(key, frequency mod p)`` of each present key, lazily, in the
        order of ``keys`` (ascending or descending).  A mapping ``freq``
        is walked by its keys inside ``keys``; a table is read block-wise
        through the backend: Python ints even when ``freq`` is an array
        (NumPy scalars overflow in the verifier's arithmetic)."""
        p = self.field.p
        if isinstance(self.freq, Mapping):
            low, high = sorted((keys[0], keys[-1])) if keys else (1, 0)
            yield from sorted(
                ((key, value % p) for key, value in self.freq.items()
                 if low <= key <= high and value % p), reverse=keys.step < 0)
            return
        for start in range(0, len(keys), _SCAN_BLOCK):
            block = keys[start : start + _SCAN_BLOCK]
            low = min(block[0], block[-1])
            values = self.backend.to_list(self.freq[low : low + len(block)])
            if block.step < 0:
                values.reverse()
            for key, value in zip(block, values):
                residue = value % p
                if residue:
                    yield key, residue

    # -- protocol ----------------------------------------------------------

    def receive_query(self, lo: int, hi: int) -> None:
        check_range(lo, hi, self.size)
        self._query = (lo, hi)
        self._plan = sibling_plan(lo, hi, self.d)
        if self._start is not None:
            start = self._start
        elif isinstance(self.freq, Mapping):
            start = compact_entries(self.backend, self.field, self.freq,
                                    size=self.size)
        else:
            start = compact_tables(self.backend, self.field, canonical_table(
                self.backend, self.field, self.freq))
        self._layout, self._be, self._level = start
        self._level_index = 0

    def answer_entries(self) -> List[Tuple[int, int]]:
        """Sorted nonzero (key, frequency mod p) pairs in the range."""
        if self._query is None:
            raise RuntimeError("receive_query() must be called first")
        lo, hi = self._query
        return list(self.present(range(lo, hi + 1)))

    def level0_siblings(self) -> List[Tuple[int, int]]:
        """(leaf index, value) pairs for the level-0 plan entries."""
        if self._plan is None or self._level is None:
            raise RuntimeError("receive_query() must be called first")
        return self._siblings(0)

    def _siblings(self, j: int) -> List[Tuple[int, int]]:
        """(node index, hash) of level ``j``'s plan entries."""
        plan = self._plan[j]
        read = entry_reader(self._level, self._layout, plan)
        return [(idx, read(idx)) for idx in plan]

    def receive_challenge(self, r_j: int) -> List[Tuple[int, int]]:
        """Fold one level with ``r_j``; return the next level's siblings."""
        if self._plan is None or self._level is None:
            raise RuntimeError("receive_query() must be called first")
        self._layout, self._be, self._level = refold_tables(
            self._be, self.field, self._layout,
            fold_pairs(self._be, self.field, self._level, r_j,
                       zero_weight=None if self.normalized else 1))
        self._level_index += 1
        j = self._level_index
        return self._siblings(j) if j < self.d else []


def run_subvector(
    prover: SubVectorProver,
    verifier: TreeHashVerifier,
    lo: int,
    hi: int,
    channel: Optional[Channel] = None,
    max_entries: Optional[int] = None,
) -> VerificationResult:
    """Run the (log u)-round SUB-VECTOR protocol for range ``[lo, hi]``.

    On acceptance the value is a :class:`SubVectorAnswer`.  Communication is
    O(log u + k) words: the k reported entries plus O(1) sibling hashes per
    level plus the d-1 revealed parameters.

    ``max_entries`` implements the Appendix B.2 remark: when the answer
    size was pre-verified (a RANGE-COUNT query, see
    :func:`repro.core.reporting.counted_range_query`), a prover shipping
    more entries is cut off immediately, guaranteeing the O(log u + k)
    bound against *any* prover.
    """
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    d = verifier.d
    if prover.d != d or prover.normalized != verifier.normalized:
        return rejected(ch.transcript, "prover/verifier parameter mismatch")
    try:
        check_range(lo, hi, verifier.size)
    except ValueError as exc:
        return rejected(ch.transcript, str(exc))

    plan = sibling_plan(lo, hi, d)
    ch.verifier_says(0, "query", [lo, hi])
    prover.receive_query(lo, hi)

    # Round 0: claimed sub-vector entries + level-0 siblings.
    raw_entries = ch.prover_says(
        0,
        "entries",
        [word for pair in prover.answer_entries() for word in pair],
    )
    raw_sib0 = ch.prover_says(
        0,
        "siblings0",
        [word for pair in prover.level0_siblings() for word in pair],
    )

    def parse_pairs(raw: Sequence[int]) -> Optional[List[Tuple[int, int]]]:
        if len(raw) % 2 != 0:
            return None
        return [(raw[t], raw[t + 1] % p) for t in range(0, len(raw), 2)]

    entries = parse_pairs(raw_entries)
    if entries is None:
        return rejected(ch.transcript, "malformed entries message",
                        verifier.space_words)
    if max_entries is not None and len(entries) > max_entries:
        return rejected(
            ch.transcript,
            "prover sent %d entries, more than the verified bound %d"
            % (len(entries), max_entries),
            verifier.space_words,
        )
    seen_keys = set()
    for key, _value in entries:
        if not lo <= key <= hi or key in seen_keys:
            return rejected(
                ch.transcript,
                "entry key %r out of range or duplicated" % (key,),
                verifier.space_words,
            )
        seen_keys.add(key)

    supplied: List[Dict[int, int]] = [dict() for _ in range(d)]
    sib0 = parse_pairs(raw_sib0)
    if sib0 is None or [idx for idx, _ in sib0] != plan[0]:
        return rejected(
            ch.transcript,
            "level-0 siblings do not match the query plan",
            verifier.space_words,
        )
    supplied[0] = dict(sib0)

    # Rounds 1..d-1: reveal r_j, collect level-j siblings.
    for j in range(1, d):
        ch.verifier_says(j, "r%d" % j, [verifier.r[j - 1]])
        response = prover.receive_challenge(verifier.r[j - 1])
        raw = ch.prover_says(
            j, "siblings%d" % j, [word for pair in response for word in pair]
        )
        pairs = parse_pairs(raw)
        if pairs is None or [idx for idx, _ in pairs] != plan[j]:
            return rejected(
                ch.transcript,
                "level-%d siblings do not match the query plan" % j,
                verifier.space_words,
            )
        supplied[j] = dict(pairs)

    # Aggregate claimed leaves into canonical-node hashes, then merge up.
    node_hash: Dict[Tuple[int, int], int] = {}
    for level, index in dyadic_cover(lo, hi):
        node_hash[(level, index)] = 0
    cover = dyadic_cover(lo, hi)

    def covering_node(key: int) -> Tuple[int, int]:
        for level, index in cover:
            if (key >> level) == index:
                return (level, index)
        raise AssertionError("cover does not contain key %d" % key)

    for key, value in entries:
        level, index = covering_node(key)
        offset = key - (index << level)
        weight = 1
        for j in range(level):
            if (offset >> j) & 1:
                weight = weight * verifier.r[j] % p
            elif verifier.normalized:
                weight = weight * (1 - verifier.r[j]) % p
        node = (level, index)
        node_hash[node] = (node_hash[node] + value * weight) % p

    current: Dict[int, int] = {}
    for (level, index), value in list(node_hash.items()):
        if level == 0:
            current[index] = value
    pending: Dict[int, Dict[int, int]] = {}
    for (level, index), value in node_hash.items():
        if level > 0:
            pending.setdefault(level, {})[index] = value

    for j in range(d):
        for idx, value in supplied[j].items():
            if idx in current:
                return rejected(
                    ch.transcript,
                    "prover supplied a node the verifier already holds",
                    verifier.space_words,
                )
            current[idx] = value % p
        parents: Dict[int, int] = {}
        for idx in sorted(current):
            if idx % 2 == 1:
                continue  # handled with its left sibling
            left = current.get(idx)
            right = current.get(idx + 1)
            if left is None or right is None:
                return rejected(
                    ch.transcript,
                    "level %d: missing sibling for node %d" % (j, idx),
                    verifier.space_words,
                )
            parents[idx >> 1] = verifier.merge(j, left, right)
        # Odd indices without a left partner are structural violations.
        odd_orphans = [
            idx for idx in current if idx % 2 == 1 and (idx - 1) not in current
        ]
        if odd_orphans:
            return rejected(
                ch.transcript,
                "level %d: unpaired nodes %r" % (j, odd_orphans),
                verifier.space_words,
            )
        current = parents
        for idx, value in pending.get(j + 1, {}).items():
            current[idx] = (current.get(idx, 0) + value) % p

    if list(current.keys()) != [0]:
        return rejected(
            ch.transcript, "merge did not converge to the root",
            verifier.space_words,
        )
    if current[0] != verifier.root:
        return rejected(
            ch.transcript,
            "root mismatch: reconstructed t' != t",
            verifier.space_words,
        )
    return accepted(
        ch.transcript,
        SubVectorAnswer(lo=lo, hi=hi, entries=tuple(sorted(entries))),
        verifier.space_words,
    )


def subvector_protocol(
    stream,
    lo: int,
    hi: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
    normalized: bool = False,
) -> VerificationResult:
    """End-to-end SUB-VECTOR over a :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = TreeHashVerifier(field, stream.u, rng=rng, normalized=normalized)
    prover = SubVectorProver(field, stream.u, normalized=normalized)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_subvector(prover, verifier, lo, hi, channel)
