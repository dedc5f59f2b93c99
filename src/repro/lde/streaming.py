"""Streaming evaluation of low-degree extensions (Theorem 1).

The verifier fixes a secret point ``r ∈ Z_p^d`` before the stream starts,
and maintains ``f_a(r) = Σ_v a_v χ_v(r)`` under updates ``(i, δ)`` via

    f_a(r) += δ · χ_{v(i)}(r)                                   (equation 4)

using O(d) words of state.  With per-dimension lookup tables
``χ_k(r_j)`` the per-update time is O(d) (the paper's O(ℓd) bound covers
recomputing the table on the fly).

Batched ingest is written here once for every streamed verifier state of
the library: :func:`prepare_block` validates, splits and pre-aggregates a
block of updates, and :class:`SketchStack` folds it into any number of
verifier copies as one (copies × block) kernel.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator, List, Optional, Sequence

from repro.field.modular import PrimeField
from repro.field.vectorized import get_backend
from repro.lde.chi import chi_table, digits

#: Updates per block on every ingest path: one client UPDATES frame, one
#: server replay block (``service.server.REPLAY_BLOCK``) and one
#: in-process feed.  Each block pays one round trip, one range check, one
#: sort for pre-aggregation and one stacked feed, so a larger block
#: spreads those over more updates and sums more repeated keys; it costs
#: a few transient MiB (16 wire bytes, two int64 columns and one digit
#: array per group for each update) and a longer wait before the first
#: copy moves.  Swept on the benchmark's traffic, client and node pinned
#: to one CPU of a 2-vCPU Xeon VM (Python 3.11, NumPy 2.4), best of 11
#: [median] in ms, sizes interleaved:
#:
#:   block  writer: 25 000 into   joiner: 4 copies,   in process:     1 000
#:          10 copies, u = 2^17   150 000 replayed    50 000, 2^20    updates
#:   2^12   14.35 [19.07]         26.40 [37.27]       38.66 [43.01]   1.79
#:   2^13   12.78 [14.51]         20.02 [28.46]       35.33 [44.18]   1.83
#:   2^14    9.71 [11.80]         17.64 [23.10]       34.58 [41.16]   1.84
#:   2^15    8.32 [10.11]         16.41 [19.73]       32.66 [43.46]   1.75
#:   2^16    8.08 [10.51]         16.78 [21.21]       34.38 [42.04]   1.69
#:   2^17    8.37 [10.02]         21.63 [25.18]       35.30 [39.76]   1.66
#:
#: 2^15 is the smallest size within noise of the best on every shape
#: (an earlier sweep of 7 put the writer at 13.47 / 10.82 / 9.11 / 8.15 /
#: 7.85 / 7.60); 2^14 leaves the writer 20 % behind, and 2^17 slows the
#: joiner.  A 1 000-update chunk is one block at every size.
DEFAULT_BLOCK = 1 << 15

#: Most entries one fused lookup table may hold (16 KiB, L1-resident).
#: It caps a group at ⌊log_ℓ FUSE_LIMIT⌋ dimensions (11 binary ones),
#: which fixes how many groups — gathers per update — a d-dimensional
#: grid needs; :func:`fuse_widths` then balances their widths, so most
#: tables are far smaller (64 entries each at d = 12).
FUSE_LIMIT = 2048

#: Elements of one (rows × updates) tile of the stacked kernel, which
#: works in five reused buffers of this size (the backend's
#: ``tile_scratch``), so a feed's working memory is 1.25 MiB however many
#: copies are stacked.  Measured on 120 copies × 1 000-update blocks of
#: a 60 %-repeat stream, best of 15 on one pinned Xeon CPU: 1.77 / 1.25 /
#: 1.02 / 0.94 / 1.04 ms per block at 2^12 .. 2^16 for d = 12, and
#: 1.88 / 1.39 / 1.20 / 1.11 / 1.20 ms for d = 17 — below 2^14 the ~60
#: NumPy calls per tile show, above 2^15 the buffers leave the 2 MiB L2.
#: Re-checked at the 2^15-update block (prepare + feed, ms per block,
#: best of 15 and of 25, 2^12 .. 2^16): 10 copies × 25 000 at d = 17
#: 6.11 / 4.96 / 4.67 / 3.76 / 4.86 and 4.89 / 5.49 / 5.10 / 5.50 / 5.43;
#: 120 × 1 000 at d = 12 2.05 / 1.51 / 1.28 / 1.23 / 1.19 and 2.23 /
#: 1.69 / 1.39 / 1.41 / 1.35; 9 × 32 768 at d = 20 8.33 / 5.89 / 5.35 /
#: 6.21 / 6.72 and 9.62 / 8.92 / 7.97 / 7.40 / 7.38.  No size beats 2^15
#: on both runs by more than their disagreement, so it stays.
TILE_ELEMENTS = 1 << 15

#: Fewest copies a block must feed before its duplicate keys are summed
#: first.  Aggregating costs a sort and a segment sum per block and
#: saves a gather, a multiply and a mat-vec column per copy for every
#: repeat it removes, and a 2^15-update block of the Zipf workloads
#: repeats 70–91 % of its keys (3 044 distinct at u = 2^12, 8 043 at
#: 2^17, 9 922 at 2^20).  Per update, raw / aggregated, at 1, 2, 3 and 4
#: copies, the two timed alternately (best of 41, one pinned CPU): 153/157,
#: 188/159, 216/151, 230/159 ns at d = 12; 159/163, 184/165, 215/171,
#: 245/176 ns at d = 17; 156/168, 185/173, 217/180, 231/173 ns at d = 20 —
#: it pays from 2 copies and can only lose on one.  (In 4 096-update
#: blocks, 60 % repeats, it paid only from 3–4 copies: 138/145 and
#: 138/143 ns at 2.)  The all-distinct Section 5 stream (u = n = 2^20,
#: one update per key with a count uniform in [0, 1000]: 1.05M updates,
#: one row) took 144.5 ms before this kernel, 141.8 ms through it
#: unaggregated and 168.6 ms aggregated.
AGGREGATE_MIN_COPIES = 2


def fuse_widths(ell: int, d: int) -> List[int]:
    """Dimensions per fused table group, lowest digits first.

    The fewest groups that ``ℓ^w <= FUSE_LIMIT`` allows — each costs an
    update one gather and one multiply — with widths that differ by at
    most one, so a copy holds ``Σ_g ℓ^{w_g} <= G·ℓ^⌈d/G⌉`` entries: at
    ℓ = 2, two tables of 64 for d = 12 and of 1 024 for d = 20.
    """
    most = 1
    while ell ** (most + 1) <= FUSE_LIMIT:
        most += 1
    groups = -(-d // most)
    narrow, wide = divmod(d, groups)
    return [narrow + 1] * wide + [narrow] * (groups - wide)


class UpdateBlock:
    """One block of ``(key, δ)`` updates, validated and split once.

    ``count`` is how many ``(key, δ)`` entries arrived — updates, or a
    replay's net counts — what ``updates_processed`` counts.  Under a
    vectorized backend ``keys`` / ``deltas`` are aligned integer arrays
    with ``Σ_t deltas[t]·w(keys[t]) = Σ_(i,δ) δ·w(i) (mod
    p)`` for every weight function ``w`` — duplicate keys summed and zero
    nets dropped when the block was aggregated, the raw columns otherwise
    — ``total`` is the exact integer ``Σ δ``, and ``columns`` the
    un-aggregated int64 ``(keys, deltas)`` split the wire encodes (None
    when a delta does not fit int64).  ``pairs`` is the block as a list
    of tuples, for the consumers that walk it (the scalar backend, a
    heavy-hitters verifier without arrays): a block that arrived as
    columns builds it only when one of them asks.
    """

    __slots__ = ("_pairs", "count", "keys", "deltas", "total", "columns")

    def __init__(self, pairs, keys=None, deltas=None, total=None,
                 columns=None):
        self._pairs = pairs
        self.count = len(columns[0] if pairs is None else pairs)
        self.keys = keys
        self.deltas = deltas
        self.total = total
        self.columns = columns

    @property
    def pairs(self):
        if self._pairs is None:
            keys, deltas = self.columns
            self._pairs = list(zip(keys.tolist(), deltas.tolist()))
        return self._pairs

    @property
    def folded(self) -> int:
        """``(key, δ)`` columns a consumer folds: the distinct keys with
        a non-zero net when the block was aggregated, else every update."""
        return self.count if self.keys is None else len(self.keys)


def _reject_bad_key(u: int, chunk) -> None:
    for i, _delta in chunk:
        if not 0 <= i < u:
            raise ValueError("key %d outside universe [0, %d)" % (i, u))


def prepare_block(backend, u: int, chunk, copies: int = 1) -> UpdateBlock:
    """Validate and split a non-empty list of updates for every consumer.

    Shared by every batched ingester (LDE, tree-hash and heavy-hitters
    verifiers, one at a time or stacked).  A key outside ``[0, u)``
    raises ValueError before any state has moved.  When at least
    :data:`AGGREGATE_MIN_COPIES` ``copies`` will fold the block,
    duplicate keys are pre-aggregated by exact int64 segment sums —
    skipped, never approximated, when ``max|δ| · n`` could leave int64
    or a delta already did.
    """
    if not getattr(backend, "vectorized", False) or u > (1 << 62):
        _reject_bad_key(u, chunk)
        return UpdateBlock(chunk)
    try:
        keys, deltas = backend.pair_columns(chunk)
    except (OverflowError, TypeError):
        # Some value does not even fit int64.  If the keys are in range
        # it was a delta: redo the split at Python level with exact
        # big-int reduction.
        _reject_bad_key(u, chunk)
        return UpdateBlock(
            chunk,
            backend.index_array([i for i, _ in chunk]),
            backend.asarray([delta for _, delta in chunk]),
            sum(delta for _, delta in chunk),
        )
    return _int64_block(backend, u, chunk, keys, deltas, copies)


def prepare_columns(backend, u: int, keys, deltas,
                    copies: int = 1) -> UpdateBlock:
    """:func:`prepare_block` for a non-empty block that is already two
    exact integer columns of the backend (a decoded replay frame): the
    same checks and the same block, with no pair built on the way."""
    if (not getattr(backend, "vectorized", False) or u > (1 << 62)
            or keys.dtype == object):  # some value outside int64
        return prepare_block(
            backend, u,
            list(zip(backend.to_list(keys), backend.to_list(deltas))),
            copies)
    return _int64_block(backend, u, None, keys, deltas, copies)


def _int64_block(backend, u: int, chunk, keys, deltas,
                 copies: int) -> UpdateBlock:
    """Range check and optional pre-aggregation of two int64 columns
    (``chunk``: the same block as pairs, when it arrived that way)."""
    low, high = int(keys.min()), int(keys.max())
    if low < 0 or high >= u:
        raise ValueError("key %d outside universe [0, %d)"
                         % (low if low < 0 else high, u))
    columns = (keys, deltas)
    # Below this bound no int64 sum of the block's deltas can wrap.
    exact = (max(int(deltas.max()), -int(deltas.min())) * len(keys)
             < 1 << 63)
    total = int(deltas.sum()) if exact else sum(deltas.tolist())
    if exact and copies >= AGGREGATE_MIN_COPIES:
        keys, deltas = backend.net_columns(keys, deltas)
    return UpdateBlock(chunk, keys, deltas, total, columns)


def iter_blocks(backend, u: int, updates, block: int = DEFAULT_BLOCK,
                copies: int = 1) -> Iterator[UpdateBlock]:
    """Cut any iterable of updates into prepared blocks of ``block``."""
    if block < 1:
        raise ValueError("block size must be positive, got %d" % block)
    it = iter(updates)
    while True:
        chunk = list(islice(it, block))
        if not chunk:
            return
        yield prepare_block(backend, u, chunk, copies)


class StreamSketch:
    """What :class:`SketchStack` asks of a streamed verifier state.

    A *product-form* sketch (:class:`StreamingLDE`, the tree-hash root)
    is a linear sketch ``value += Σ_t δ_t · Π_j T_j[digit_j(key_t)]`` over
    the ``(ell, d)`` grid: it exposes its ``d`` factor tables through
    ``sketch_tables()`` and takes a block's contribution through
    ``absorb(contribution, count)``.  Any other sketch (heavy hitters)
    takes the prepared block itself through ``absorb_block(block)``.
    """

    ell = 2
    #: The single-segment stack this sketch was last fed through (see
    #: SketchStack.over).  Never copied or pickled along with the
    #: sketch: a verifier snapshot must not drag every other copy's
    #: tables with it.
    _stack = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_stack", None)
        return state


class SketchStack:
    """Many verifier copies fed as one.

    Copies are added in *segments* (one pool of independent copies
    each); a segment has one *lane* of sketches per update vector it
    listens to, lane ``v`` fed by vector ``v``, and the sketches of one
    copy share their factor tables (the two LDEs of an inner-product
    verifier sit at one point).  Product-form segments occupy
    consecutive rows of per-group 2-D fused tables, built for all rows
    at once on the first block — the :func:`fuse_widths` groups of
    dimensions collapse into one lookup over their combined digit, so
    d = 20, ℓ = 2 is two gathers of 2^10 entries instead of twenty — and a
    block is folded into every live row by one gather and one multiply
    per group over a (rows × block) tile and one mat-vec against the
    deltas.  Entries are exact mod-p products, so every value equals the
    per-update loop's.  Copies are consumed from the tail of their
    segment: ``live`` says how many leading ones are still read.

    The scalar backend (and universes beyond int64) walk the block per
    update over the same factor tables.
    """

    def __init__(self, backend, ell: int, d: int):
        self.backend = backend
        self.ell = ell
        self.d = d
        self._segments: List[tuple] = []  # (first row or None, lanes)
        self._tables: List = []  # factor tables of every product row
        self._fused = None

    @classmethod
    def over(cls, sketches) -> "SketchStack":
        """The one-segment stack ``sketches`` were last fed through —
        they may have lost copies from the tail since — or a new one."""
        first = sketches[0]
        stack = first._stack
        if stack is not None and len(stack._segments) == 1:
            owners = stack._segments[0][1][0]
            if len(sketches) <= len(owners) and all(
                a is b for a, b in zip(sketches, owners)
            ):
                return stack
        stack = cls(first.backend, first.ell, first.d)
        stack.add(list(sketches))
        for sketch in sketches:
            sketch._stack = stack
        return stack

    def add(self, *lanes) -> None:
        """Append a segment: ``lanes[v][n]`` is copy n's sketch of vector v."""
        first = None
        if hasattr(lanes[0][0], "sketch_tables"):
            first = len(self._tables)
            for copy in zip(*lanes):
                tables = copy[0].sketch_tables()
                if any(
                    (sketch.ell, sketch.d) != (self.ell, self.d)
                    or sketch.sketch_tables() != tables
                    for sketch in copy
                ):
                    raise ValueError(
                        "stacked sketches must share one (ell, d) grid, "
                        "and the lanes of a copy one point"
                    )
                self._tables.append(tables)
            self._fused = None
        self._segments.append((first, lanes))

    def add_copies(self, verifiers) -> None:
        """Append a segment of verifier copies: lane v is what their
        ``stream_sketches`` name for update vector v."""
        self.add(*map(list, zip(*(v.stream_sketches for v in verifiers))))

    def _listeners(self, vector: int, live):
        """``(first row, sketches)`` of every segment ``vector`` feeds."""
        for index, (first, lanes) in enumerate(self._segments):
            if vector < len(lanes):
                owners = lanes[vector]
                yield first, (
                    owners if live is None else owners[: live[index]]
                )

    def copies(self, vector: int = 0, live=None) -> int:
        """How many copies a block of ``vector`` moves."""
        return sum(len(owners) for _, owners in self._listeners(vector, live))

    def process_stream(self, updates, u: int, block: int = DEFAULT_BLOCK,
                       vector: int = 0, live=None) -> None:
        for prepared in iter_blocks(self.backend, u, updates, block,
                                    self.copies(vector, live)):
            self.feed(prepared, vector, live)

    def feed(self, block: UpdateBlock, vector: int = 0, live=None) -> None:
        """Fold one prepared block into lane ``vector`` of the leading
        ``live[s]`` copies of every segment s (all copies when omitted)."""
        count = block.count
        digit_arrays = None
        for first, owners in self._listeners(vector, live):
            if not owners:
                continue
            if first is None:
                for sketch in owners:
                    sketch.absorb_block(block)
            elif block.keys is None:
                self._walk(block.pairs, first, owners)
            else:
                if digit_arrays is None:
                    digit_arrays = self._digitise(block.keys)
                sums = self._fold(digit_arrays, block.deltas, first,
                                  first + len(owners))
                for sketch, contribution in zip(owners, sums):
                    sketch.absorb(contribution, count)

    def _walk(self, pairs, first: int, owners) -> None:
        """The per-update reference loop, digits shared across copies."""
        p = self.backend.p
        rows = list(zip(owners, self._tables[first:]))
        for i, delta in pairs:
            v = digits(i, self.ell, self.d)
            for sketch, tables in rows:
                weight = 1
                for j, digit in enumerate(v):
                    weight = weight * tables[j][digit] % p
                sketch.absorb(delta * weight, 1)

    def _fuse(self):
        """Per-group fused tables ``[(size, rows × size array), ...]``,
        built for all rows at once (:func:`_row_products`)."""
        if self._fused is None:
            ell, d = self.ell, self.d
            factors = self.backend.asarray([
                entry for tables in self._tables for table in tables
                for entry in table
            ]).reshape(len(self._tables), d, ell)
            self._fused = []
            j = 0
            for width in fuse_widths(ell, d):
                self._fused.append(
                    (ell ** width,
                     _row_products(self.backend, factors, j, width)))
                j += width
        return self._fused

    def _digitise(self, keys) -> List:
        """Combined base-ℓ^span digits of a key block, one per group."""
        ell = self.ell
        out = []
        if ell & (ell - 1) == 0:
            shift = 0
            for size, _table in self._fuse():
                out.append((keys >> shift) & (size - 1))
                shift += size.bit_length() - 1
        else:
            for size, _table in self._fuse():
                out.append(keys % size)
                keys = keys // size
        return out

    def _fold(self, digit_arrays, deltas, lo: int, hi: int) -> List[int]:
        """``Σ_t δ_t · Π_g T_g[n, digit_g(t)]`` for rows ``lo <= n < hi``,
        a (rows × updates) tile at a time in five reused buffers:
        weights, gathered factors and three of limb work."""
        be = self.backend
        fused = self._fuse()
        scratch = be.tile_scratch(TILE_ELEMENTS)
        n = deltas.shape[0]
        sums = [0] * (hi - lo)
        if not n:
            return sums  # every pair of the block cancelled
        width = min(n, TILE_ELEMENTS)
        step = max(1, TILE_ELEMENTS // width)
        for c in range(0, n, width):
            cols = min(width, n - c)
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                weights, gathered, *work = (
                    buf[: (b - a) * cols].reshape(b - a, cols)
                    for buf in scratch
                )
                for g, ((_size, table), digit) in enumerate(
                    zip(fused, digit_arrays)
                ):
                    table[a:b].take(
                        digit[c : c + cols], axis=1, mode="clip",
                        out=gathered if g else weights,
                    )
                    if g:
                        be.mul_into(weights, gathered, work)
                for k, part in enumerate(
                    be.row_int_dots(weights, deltas[c : c + cols], work),
                    a - lo,
                ):
                    sums[k] += part
        return sums


def _row_products(be, factors, j: int, span: int):
    """Row-wise table of dimensions ``j .. j + span - 1`` of ``factors``
    (rows × d × ℓ factor tables).

    One doubling recurrence for all rows: the table of a run of
    dimensions is the row-wise outer product of the tables of its two
    halves, ``low[n, i]·high[n, k]`` at index ``i + len(low)·k``, so the
    in-group digit order is the key's own.  Multiplied a tile of rows at
    a time in five reused buffers.
    """
    if span == 1:
        return factors[:, j].copy()
    low = _row_products(be, factors, j, span // 2)
    high = _row_products(be, factors, j + span // 2, span - span // 2)
    rows = factors.shape[0]
    shape = (high.shape[1], low.shape[1])
    size = shape[0] * shape[1]
    scratch = be.tile_scratch(TILE_ELEMENTS)
    out = be.zeros(rows * size).reshape(rows, size)
    step = max(1, TILE_ELEMENTS // size)
    for a in range(0, rows, step):
        b = min(a + step, rows)
        left, right, *work = (
            buf[: (b - a) * size].reshape(b - a, *shape) for buf in scratch
        )
        left[...] = low[a:b, None, :]
        right[...] = high[a:b, :, None]
        be.mul_into(left, right, work)
        out[a:b] = left.reshape(b - a, size)
    return out


def apply_stream_batched(evaluators, updates, block: int = DEFAULT_BLOCK,
                         strict_u: Optional[int] = None) -> None:
    """One shared stream walk over any number of product-form sketches.

    All ``evaluators`` (:class:`StreamingLDE` instances, tree-hash
    verifiers) must sit on one ``(ell, d)`` grid.  They are fed through
    the :class:`SketchStack` they share, so repeated calls on the same
    list — or on a prefix of it, copies being consumed from the tail —
    reuse its fused tables.  ``strict_u`` optionally tightens the key
    range check below the padded universe (protocol verifiers validate
    against their unpadded ``u``).
    """
    if block < 1:
        raise ValueError("block size must be positive, got %d" % block)
    if not evaluators:
        return
    SketchStack.over(evaluators).process_stream(
        updates, evaluators[0].u if strict_u is None else strict_u, block,
        live=[len(evaluators)],
    )


def dimension_for(u: int, ell: int) -> int:
    """Smallest d with ``ℓ^d >= u`` (the paper pads u to a power of ℓ)."""
    if u < 1:
        raise ValueError("universe size must be positive, got %r" % (u,))
    if ell < 2:
        raise ValueError("grid base ℓ must be at least 2, got %r" % (ell,))
    d = 0
    size = 1
    while size < u:
        size *= ell
        d += 1
    return max(d, 1)


class StreamingLDE(StreamSketch):
    """Incrementally evaluates the LDE of a stream at a fixed point.

    Parameters
    ----------
    field:
        The prime field ``Z_p``.
    u:
        Universe size; keys are in ``[0, u)``.  Internally padded to
        ``ℓ^d``.
    ell:
        Grid base ℓ (2 for all the practical protocols).
    point:
        The evaluation point ``r ∈ Z_p^d``.  Drawn uniformly from ``rng``
        when omitted.
    rng:
        Source of randomness when ``point`` is omitted.
    backend:
        Compute backend (see :func:`repro.field.vectorized.get_backend`);
        defaults to the REPRO_BACKEND / auto selection.  The per-update
        path is identical either way; a vectorized backend turns
        :meth:`process_stream_batched` into an array kernel.
    """

    def __init__(
        self,
        field: PrimeField,
        u: int,
        ell: int = 2,
        point: Optional[Sequence[int]] = None,
        rng: Optional[random.Random] = None,
        backend=None,
    ):
        self.field = field
        self.u = u
        self.ell = ell
        self.d = dimension_for(u, ell)
        self.backend = backend if backend is not None else get_backend(field)
        if point is None:
            if rng is None:
                raise ValueError("provide either an evaluation point or an rng")
            point = field.rand_vector(rng, self.d)
        if len(point) != self.d:
            raise ValueError(
                "point has %d coordinates, expected d=%d" % (len(point), self.d)
            )
        self.point = [x % field.p for x in point]
        # tables[j][k] = χ_k(r_j): all the verifier needs per update is d
        # table lookups and d multiplications.
        self.tables = [chi_table(field, ell, x) for x in self.point]
        self.value = 0
        #: ``(key, δ)`` entries folded so far: every update of a stream
        #: watched from its start, but one entry per touched key for a
        #: late joiner fed net counts
        #: (:meth:`~repro.service.client.ServiceClient.replay_missed`).
        #: ``value`` depends only on the net vector; this count does not.
        self.updates_processed = 0

    def weight(self, i: int) -> int:
        """χ_{v(i)}(r) for key ``i``."""
        p = self.field.p
        acc = 1
        for j, digit in enumerate(digits(i, self.ell, self.d)):
            acc = acc * self.tables[j][digit] % p
        return acc

    def update(self, i: int, delta: int) -> None:
        """Process stream update ``a_i += δ`` (δ may be negative)."""
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.value = (self.value + delta * self.weight(i)) % self.field.p
        self.updates_processed += 1

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.update(i, delta)

    # -- batched stream processing (see SketchStack) --------------------------

    def sketch_tables(self):
        return self.tables

    def absorb(self, contribution: int, count: int) -> None:
        self.value = (self.value + contribution) % self.field.p
        self.updates_processed += count

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        """Process ``(i, δ)`` updates in blocks of size ``block``.

        Produces exactly the same final ``value`` and update count as
        :meth:`process_stream` (all arithmetic is exact mod p): a
        one-row :class:`SketchStack`.
        """
        apply_stream_batched([self], updates, block=block)

    @property
    def space_words(self) -> int:
        """Words of *persistent* verifier state: r, the running value.

        The χ lookup tables (d·ℓ words) are a time optimisation; the
        strict Theorem 1 accounting (d+1 words) excludes them.
        """
        return self.d + 1

    # -- reference implementations (for tests / the honest prover) ----------

    @staticmethod
    def direct_evaluate(
        field: PrimeField,
        a: Sequence[int],
        ell: int,
        point: Sequence[int],
    ) -> int:
        """Reference evaluation of ``f_a`` at ``point``: Σ_i a_i·χ_{v(i)}(r)
        entry by entry, O(u·d)."""
        d = len(point)
        tables = [chi_table(field, ell, x) for x in point]
        p = field.p
        acc = 0
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            w = 1
            for j, digit in enumerate(digits(i, ell, d)):
                w = w * tables[j][digit] % p
            acc = (acc + ai * w) % p
        return acc


class MultipointStreamingLDE:
    """Tracks the LDE value at several points simultaneously.

    Used by the streaming GKR verifier (two input-layer points) and by
    independent protocol repetitions (Section 7, "Multiple Queries").
    """

    def __init__(
        self,
        field: PrimeField,
        u: int,
        points: Sequence[Sequence[int]],
        ell: int = 2,
        backend=None,
    ):
        self.backend = backend if backend is not None else get_backend(field)
        self.evaluators = [
            StreamingLDE(field, u, ell=ell, point=pt, backend=self.backend)
            for pt in points
        ]

    def update(self, i: int, delta: int) -> None:
        for ev in self.evaluators:
            ev.update(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.update(i, delta)

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        """Batched variant of :meth:`process_stream`: every block is
        split once and folded into all evaluation points together."""
        apply_stream_batched(self.evaluators, updates, block=block)

    @property
    def values(self) -> List[int]:
        return [ev.value for ev in self.evaluators]

    @property
    def space_words(self) -> int:
        return sum(ev.space_words for ev in self.evaluators)
