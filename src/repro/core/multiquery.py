"""Multiple queries — Section 7, "Multiple Queries".

Re-running a protocol with the *same* randomness after the prover has seen
it is unsafe.  The paper offers two remedies, both implemented here:

* :func:`run_batched_sumcheck` — run many queries *in parallel,
  round-by-round, with shared randomness* (the 'direct sum' observation):
  the prover commits all round-j polynomials before r_j is revealed, so
  each query retains the single-query guarantee.  The
  :class:`BatchedSumcheckEngine` runs *heterogeneous* batches — F2, Fk,
  INNER-PRODUCT and RANGE-SUM queries over one dataset — as one fused
  (queries × table) pass per round; :func:`run_batch_range_sum` builds
  an all-RANGE-SUM batch from ``(lo, hi)`` pairs.
* :class:`IndependentCopies` — maintain c independent protocol instances
  over the stream (c·log u words); each verified query consumes one copy.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.comm.channel import Channel
from repro.core.base import (
    VerificationResult,
    accepted,
    add_update,
    check_range,
    pow2_dimension,
    rejected,
)
from repro.core.sumcheck import InnerProductVerifier
from repro.field.modular import PrimeField
from repro.field.polynomial import interpolation_weights
from repro.field.vectorized import (
    canonical_table,
    compact_entries,
    compact_tables,
    entry_reader,
    fold_pairs,
    get_backend,
    inner_product_round_sums,
    moment_round_sums,
    pair_runs,
    refold_tables,
)
from repro.lde.canonical import chi_at, dyadic_cover, range_indicator_eval
from repro.lde.streaming import DEFAULT_BLOCK, SketchStack

def range_fold_mode() -> str:
    # bench/run.py (frozen) imports this name to print its header; the
    # dyadic fold is the only representation left.
    return "dyadic"


# -- batch query descriptors ---------------------------------------------------

#: Largest moment order the service and the batch constructors accept.
#: A proof is (k + 1)·d words and the prover's weights (k + 1)² integers
#: of k·log k bits, so the order is a resource an open must bound before
#: it allocates; 64 is (k + 1)·d <= 1300 words at d = 20, and the
#: soundness error d·k/p stays below 2^-50.
MAX_MOMENT_ORDER = 64


def check_moment_order(k: int) -> int:
    """``k`` if a request may name it as a moment order, else ValueError."""
    if not 1 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(
            "moment order k must be in 1..%d, got %d" % (MAX_MOMENT_ORDER, k)
        )
    return k


#: Engine-level kind codes for heterogeneous batches, deliberately
#: distinct from the service-layer query kinds in
#: :mod:`repro.service.router`, which cover non-sum-check protocols too.
BATCH_KIND_F2 = 1
BATCH_KIND_FK = 2
BATCH_KIND_INNER_PRODUCT = 3
BATCH_KIND_RANGE_SUM = 4

_BATCH_KIND_NAMES = {
    BATCH_KIND_F2: "f2",
    BATCH_KIND_FK: "fk",
    BATCH_KIND_INNER_PRODUCT: "inner-product",
    BATCH_KIND_RANGE_SUM: "range-sum",
}


@dataclass(frozen=True)
class BatchQuery:
    """One member of a heterogeneous sum-check batch.

    The four batchable protocols share the lockstep round structure
    (commit every query's round polynomial, then reveal one shared
    challenge); a :class:`BatchQuery` names which final check — and, for
    RANGE-SUM, which indicator row — a batch member carries.
    """

    kind: int
    params: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == BATCH_KIND_FK:
            if len(self.params) != 1 or self.params[0] < 1:
                raise ValueError("fk batch query needs one parameter k >= 1")
        elif self.kind == BATCH_KIND_RANGE_SUM:
            if len(self.params) != 2 or not 0 <= self.params[0] <= self.params[1]:
                raise ValueError(
                    "range-sum batch query needs 0 <= lo <= hi, got %r"
                    % (self.params,)
                )
        elif self.kind in (BATCH_KIND_F2, BATCH_KIND_INNER_PRODUCT):
            if self.params:
                raise ValueError(
                    "%s batch query takes no parameters"
                    % _BATCH_KIND_NAMES[self.kind]
                )
        else:
            raise ValueError("unknown batch query kind %r" % (self.kind,))

    @property
    def name(self) -> str:
        return _BATCH_KIND_NAMES[self.kind]

    @property
    def degree(self) -> int:
        """Per-variable degree of this query's round polynomial."""
        return self.params[0] if self.kind == BATCH_KIND_FK else 2


def batch_f2() -> BatchQuery:
    return BatchQuery(BATCH_KIND_F2)


def batch_fk(k: int) -> BatchQuery:
    return BatchQuery(BATCH_KIND_FK, (check_moment_order(k),))


def batch_inner_product() -> BatchQuery:
    return BatchQuery(BATCH_KIND_INNER_PRODUCT)


def batch_range_sum(lo: int, hi: int) -> BatchQuery:
    return BatchQuery(BATCH_KIND_RANGE_SUM, (lo, hi))


class _DyadicIndicator:
    """One RANGE-SUM member's indicator, as O(log u) canonical nodes.

    The verifier already evaluates the range indicator's LDE in
    O(log² u) from its dyadic cover (Section 3.2); this is the *prover*
    side of the same structure.  The indicator MLE decomposes as
    ``B(x) = Σ_N Π_{k≥L} χ_{bit_{k-L}(m)}(x_k)`` over the cover's nodes
    ``N = (L, m)`` — the free low dimensions sum out because
    ``χ_0 + χ_1 = 1`` — so the dense Q×u stack never needs to exist:

    * While round ``j < L`` the node is *wide*: its contribution to the
      round polynomial is independent of past challenges — the plain
      even/odd segment sums of the folded a-table over the node's
      surviving block.  The cover runs left to right with levels that
      rise and then fall, so the nodes still wide at round ``j`` are
      adjacent and their blocks one contiguous run of pairs
      (:meth:`wide_run`): one segment sum per member per round.
    * From round ``j = L`` on the node is a *point*: all its remaining
      dimensions are pinned by ``m``, so it selects a single a-table
      pair, weighted by ``coeff = Π_{k=L..j-1} χ_{bit_{k-L}(m)}(r_k)`` —
      maintained incrementally, one χ factor per challenge
      (:func:`~repro.lde.canonical.chi_at`).

    Per query per round this is O(log u) work instead of O(u), with the
    exact same values mod p as folding the dense indicator table — the
    test suite's explicit-b oracle pins the transcripts byte-identical.
    """

    __slots__ = ("nodes",)

    def __init__(self, lo: int, hi: int):
        # Mutable per-node state: [level, index, coeff].
        self.nodes = [
            [level, index, 1] for level, index in dyadic_cover(lo, hi)
        ]

    def wide_run(self, j: int) -> Optional[Tuple[int, int]]:
        """Pair indices ``[start, end)`` of round ``j``'s table under the
        wide nodes, or None once every node is a point.  A node ``(L, m)``
        spans pairs ``[m·2^(L-j-1), (m+1)·2^(L-j-1))``, and each wide
        node's block starts where the previous one's ends."""
        wide = [node for node in self.nodes if node[0] > j]
        if not wide:
            return None
        (l_first, m_first, _), (l_last, m_last, _) = wide[0], wide[-1]
        return m_first << (l_first - j - 1), (m_last + 1) << (l_last - j - 1)

    def point_entries(self, j: int):
        """Round ``j``'s a-table entries under the point nodes: the even
        and odd entry of each one's pair (a point node's dimensions
        j..d-1 are pinned by m's bits)."""
        for level, index, _ in self.nodes:
            if level <= j:
                shifted = index >> (j - level)
                yield shifted & ~1
                yield shifted | 1

    def round_message(self, p: int, j: int, read,
                      wide_sums: Optional[Tuple[int, int]]) -> List[int]:
        """``[g(0), g(1), g(2)]`` of this member's round-``j`` polynomial,
        given ``read(i)``, the value of a-table entry i (one of its
        :meth:`point_entries`), and the even/odd sums over its
        :meth:`wide_run` (None when there is none)."""
        g0 = g1 = g2 = 0
        for level, index, coeff in self.nodes:
            if level <= j:
                # χ_bit(0/1) selects one half of the node's pair, χ_bit(2)
                # is 2 (bit set) or -1 (bit clear) against the pair's
                # degree-1 extension 2·a_odd - a_even.
                shifted = index >> (j - level)
                a_even = read(shifted & ~1)
                a_odd = read(shifted | 1)
                if shifted & 1:
                    g1 += coeff * a_odd
                    g2 += coeff * (4 * a_odd - 2 * a_even)
                else:
                    g0 += coeff * a_even
                    g2 += coeff * (a_even - 2 * a_odd)
        if wide_sums is not None:
            # The wide run: the indicator is 1 at z = 0, 1 and 2 alike.
            s0, s1 = wide_sums
            g0 += s0
            g1 += s1
            g2 += 2 * s1 - s0
        return [g0 % p, g1 % p, g2 % p]

    def fold(self, field, j: int, r: int) -> None:
        """Absorb round ``j``'s challenge: one χ factor per point node."""
        p = field.p
        chis = (chi_at(field, 0, r), chi_at(field, 1, r))
        for node in self.nodes:
            level = node[0]
            if level <= j:
                bit = (node[1] >> (j - level)) & 1
                node[2] = node[2] * chis[bit] % p


class BatchedSumcheckEngine:
    """The prover side of heterogeneous lockstep multi-query rounds.

    Mixed batches of F2, Fk, INNER-PRODUCT and RANGE-SUM queries over
    one dataset: one
    shared a-table (plus one b-table when the batch carries INNER-PRODUCT
    members) and per-query :class:`_DyadicIndicator` state — O(log u)
    canonical nodes each — for the RANGE-SUM members.  Per round it
    commits every query's polynomial (:meth:`round_messages`) before the
    shared challenge folds every table at once
    (:meth:`receive_challenge`) — at most one fused pass per query
    family, however many queries share it.

    RANGE-SUM indicator work per round is ~Q·log u plus at most about two
    reads of the folded a-table: per query the even/odd sums over its
    wide nodes' one run of pairs — read directly, or looked up in one
    shared prefix-sum pass once the runs together cover more pairs than
    the table has entries —
    and O(log u) closed-form point terms (χ factors against single
    a-table pairs), mirroring the verifier's canonical-interval
    evaluation; no dense indicator is ever built.  The F2 and Fk members
    share one pair-moment pass
    (:func:`~repro.field.vectorized.moment_round_sums`, F2 as order 2)
    whatever their orders.

    A proof's tables take up to three forms, chosen by fixed rules in
    :mod:`repro.field.vectorized`.  While the pairs they touch (for an
    INNER-PRODUCT batch, the union of the a- and b-supports) are at most
    :data:`~repro.field.vectorized.COMPACT_SHARE` of the pairs, only
    those pairs are kept (:func:`~repro.field.vectorized.compact_tables`,
    re-paired after each fold by :func:`~repro.field.vectorized.
    refold_tables`), so n keys cost O(n) a round until the table fills
    in — the paper's O(n·log(u/n)) prover term; a RANGE-SUM member's run
    and point terms are read through the same layout.  Then the dense
    table; once it is down to :data:`~repro.field.vectorized.SMALL_TABLE`
    entries (a compact one to as many pairs) the proof finishes on
    Python ints (:func:`~repro.field.vectorized.small_tables`).  Every
    proof starts again from the shared canonical table, which none of
    this writes — or from ``start``, that table's layout and tables as
    :func:`~repro.field.vectorized.frozen_start` keeps them, so a
    service dataset finds its touched pairs once per version.  Vectors
    given as mappings — a ``collections.Counter`` as ``freq_a``
    (``freq_b`` is then an empty one unless given) — start from their
    keys' compact layout
    (:func:`~repro.field.vectorized.compact_entries`), so no table of the
    universe ever exists and any u works, 2^128 included.
    Transcripts are identical whichever backend and form — and
    identical, message for message, to the paper's provers on dense
    tables (``tests/reference_sumcheck.py``).  It is the library's only
    prover for these four kinds: the one-query drivers
    (:func:`~repro.core.f2.run_f2` and its siblings) run a batch of one.

    :func:`run_batched_sumcheck` drives one of these — built locally
    from the dataset's frequency vectors or standing in for a remote
    prover behind the service wire protocol (:mod:`repro.service`),
    which implements the same three methods.
    """

    def __init__(self, field: PrimeField, u: int, backend=None,
                 freq_a=None, freq_b=None, start=None):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        # Vectors to stream into — or adopted, not copied: the service
        # passes shared read-only tables (b only with an INNER-PRODUCT)
        # and, as ``start``, their read-only compact_tables start, which
        # it builds once per version of the data.
        self.freq_a = freq_a if freq_a is not None else [0] * self.size
        self._freq_b = freq_b
        self._start = start
        self._queries: Optional[List[BatchQuery]] = None
        # The backend and table layout of the proof in progress
        # (compact_tables, refold_tables).
        self._be = self.backend
        self._layout = None
        self._a_table = None
        self._b_table = None
        self._moment_orders: List[int] = []
        self._range_index: List[int] = []
        self._dyadic: List[_DyadicIndicator] = []
        self._round_index = 0

    @property
    def freq_b(self):
        """The second vector, made on first use if none was given: an
        empty Counter beside a mapping ``freq_a``, else zeros."""
        if self._freq_b is None:
            self._freq_b = (Counter() if isinstance(self.freq_a, Mapping)
                            else [0] * self.size)
        return self._freq_b

    @freq_b.setter
    def freq_b(self, vector) -> None:
        self._freq_b = vector

    # -- stream phase -------------------------------------------------------

    def process(self, i: int, delta: int) -> None:
        add_update(self.freq_a, self.u, i, delta)

    process_a = process

    def process_b(self, i: int, delta: int) -> None:
        add_update(self.freq_b, self.u, i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    # -- proof phase ---------------------------------------------------------

    def receive_batch(self, queries: Sequence[BatchQuery]) -> None:
        """Materialise every table the batch needs, at once."""
        queries = list(queries)
        for q in queries:
            if not isinstance(q, BatchQuery):
                raise TypeError("receive_batch expects BatchQuery members")
            if q.kind == BATCH_KIND_RANGE_SUM:
                check_range(*q.params, self.size)
        be = self.backend
        field = self.field
        self._queries = queries
        freq_b = (self.freq_b if any(
            q.kind == BATCH_KIND_INNER_PRODUCT for q in queries) else None)
        if freq_b is not None and (isinstance(freq_b, Mapping)
                                   != isinstance(self.freq_a, Mapping)):
            raise ValueError("freq_a and freq_b must both be mappings "
                             "or both be tables")
        if self._start is not None:
            # A start over vector a alone holds no b-table.
            start = self._start + (None,) * (freq_b is None)
        elif isinstance(self.freq_a, Mapping):
            start = compact_entries(be, field, self.freq_a, freq_b,
                                    size=self.size)
        else:
            start = compact_tables(
                be, field, canonical_table(be, field, self.freq_a),
                None if freq_b is None else canonical_table(be, field, freq_b))
        self._layout, self._be, self._a_table, self._b_table = start
        self._moment_orders = sorted({
            q.degree for q in queries
            if q.kind in (BATCH_KIND_F2, BATCH_KIND_FK)
        })
        self._range_index = [
            idx for idx, q in enumerate(queries)
            if q.kind == BATCH_KIND_RANGE_SUM
        ]
        self._dyadic = [
            _DyadicIndicator(*queries[idx].params)
            for idx in self._range_index
        ]
        self._round_index = 0

    def _range_round_messages(self) -> List[List[int]]:
        """The RANGE-SUM members' committed round polynomials: per query
        the even/odd sums over its wide run and O(log u) closed-form
        point terms.  Runs that together cover no more pairs than the
        a-table has entries are read directly; longer ones are each a
        lookup in one shared prefix-sum pass, so a round reads at most
        about two tables' worth.  The pass starts to pay at 1.5–3 times
        the table's pairs, measured from 2^6 to 2^19 pairs (README,
        *Small proof tables*)."""
        be = self._be
        a_table = self._a_table
        layout = self._layout
        j = self._round_index
        runs = pair_runs(layout, [state.wide_run(j) for state in self._dyadic])
        if sum(end - start for start, end in filter(None, runs)) \
                <= len(a_table):
            segment_sums = partial(be.pair_segment_sums, a_table)
        else:
            segment_sums = partial(be.prefix_segment_sums,
                                   be.pair_prefix_sums(a_table))
        read = entry_reader(
            a_table, layout,
            (i for state in self._dyadic for i in state.point_entries(j)))
        return [
            state.round_message(
                self.field.p, j, read,
                None if run is None else segment_sums(*run))
            for state, run in zip(self._dyadic, runs)
        ]

    def round_messages(self) -> List[List[int]]:
        """Every query's committed round polynomial, in batch order.

        Queries of one family share the committed computation: the F2
        and Fk members one pair-moment pass (F2 is order 2), the
        INNER-PRODUCT members one two-table pass, and the RANGE-SUM
        members at most one prefix-sum pass.
        """
        if self._queries is None:
            raise RuntimeError("receive_batch() must be called first")
        be = self._be
        field = self.field
        a_table = self._a_table
        messages: List[Optional[List[int]]] = [None] * len(self._queries)
        if self._range_index:
            for idx, message in zip(self._range_index,
                                    self._range_round_messages()):
                messages[idx] = message
        ip_message: Optional[List[int]] = None
        moment_messages = moment_round_sums(
            be, field, a_table, self._moment_orders)
        for idx, q in enumerate(self._queries):
            if q.kind in (BATCH_KIND_F2, BATCH_KIND_FK):
                messages[idx] = list(moment_messages[q.degree])
            elif q.kind == BATCH_KIND_INNER_PRODUCT:
                if ip_message is None:
                    ip_message = inner_product_round_sums(
                        be, field, a_table, self._b_table
                    )
                messages[idx] = list(ip_message)
        return messages

    def receive_challenge(self, r: int) -> None:
        """Fold the shared tables and every indicator's nodes with ``r``."""
        if self._queries is None:
            raise RuntimeError("receive_batch() must be called first")
        be = self._be
        field = self.field
        self._layout, self._be, self._a_table, self._b_table = refold_tables(
            be, field, self._layout,
            fold_pairs(be, field, self._a_table, r),
            None if self._b_table is None
            else fold_pairs(be, field, self._b_table, r),
        )
        for state in self._dyadic:
            state.fold(field, self._round_index, r)
        self._round_index += 1


class BatchedSumcheckVerifier(InnerProductVerifier):
    """Streaming verifier for heterogeneous batches: O(log u) words.

    Two running LDEs at one shared secret point — ``f_a(r)`` feeds every
    final check, ``f_b(r)`` the INNER-PRODUCT members; RANGE-SUM members
    need no streamed state beyond ``f_a(r)`` (their indicator is
    evaluated from canonical intervals at query time).  F2/Fk members
    read ``f_a(r)`` only, so one copy of this verifier can watch a
    stream once and later verify any mix.
    """

    def process(self, i: int, delta: int) -> None:
        self.process_a(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process_a(i, delta)


def run_batched_sumcheck(
    prover,
    verifier,
    queries: Sequence[BatchQuery],
    channel: Optional[Channel] = None,
) -> List[VerificationResult]:
    """Verify a heterogeneous batch of queries in lockstep (Section 7).

    Per round the prover commits one polynomial *per query* — a degree-2
    message for F2/INNER-PRODUCT/RANGE-SUM members, k+1 evaluations for
    an Fk member — before the shared challenge r_j is revealed; the
    verifier keeps one running check per query and evaluates every
    committed message at r_j as a weighted sum (one shared
    :func:`~repro.field.polynomial.interpolation_weights` vector per
    distinct message length).  Words are
    attributed per query on the channel, so
    :meth:`~repro.comm.channel.Channel.query_cost` matches what the same
    query would pay in a standalone run plus the shared challenges.  A
    batch of one *is* the standalone run, byte for byte: its messages
    carry the standalone labels, and once every member has failed the
    verifier stops talking, as :func:`~repro.core.sumcheck.
    run_sumcheck_rounds` does.  The one-query drivers
    (:func:`~repro.core.f2.run_f2` and its siblings) are this call.

    ``prover`` is a :class:`BatchedSumcheckEngine` (or the service
    layer's remote proxy with the same ``d`` and ``receive_batch`` /
    ``round_messages`` / ``receive_challenge`` interface); one over
    another dimension than the verifier's is rejected on every member
    before it sees the batch.
    ``verifier`` is a :class:`BatchedSumcheckVerifier` for batches with
    INNER-PRODUCT members; any single-LDE streaming verifier
    (:class:`~repro.core.sumcheck.SingleLDEVerifier`) works for the
    others.  Only its field, LDEs and point (``r``, ``d``, ``size``) are
    read.
    """
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    d = verifier.d
    queries = list(queries)
    for q in queries:
        if not isinstance(q, BatchQuery):
            raise TypeError("run_batched_sumcheck expects BatchQuery members")
        if q.kind == BATCH_KIND_RANGE_SUM:
            check_range(*q.params, verifier.size)
    if not queries:
        return []
    lde_a = getattr(verifier, "lde_a", None)
    if lde_a is None:
        lde_a = verifier.lde
    lde_b = getattr(verifier, "lde_b", None)
    if lde_b is None and any(
        q.kind == BATCH_KIND_INNER_PRODUCT for q in queries
    ):
        raise ValueError(
            "INNER-PRODUCT batch members need a verifier with a "
            "second-stream LDE (BatchedSumcheckVerifier)"
        )
    if prover.d != d:
        return [rejected(ch.transcript, "prover/verifier dimension mismatch")
                for _ in queries]
    prover.receive_batch(queries)

    # A batch of one is the single-query protocol, label for label; a
    # member of a larger batch tags its messages with its index.
    single = len(queries) == 1
    prefixes = [""] if single else ["q%d-" % i for i in range(len(queries))]
    range_label = "query" if single else "range"
    # Each RANGE-SUM member's range announcement is charged to that
    # query, so Channel.query_cost stays directly comparable to a
    # standalone run (F2/Fk/INNER-PRODUCT standalone runs carry no
    # query announcement).
    for idx, q in enumerate(queries):
        if q.kind == BATCH_KIND_RANGE_SUM:
            ch.verifier_says(0, prefixes[idx] + range_label, list(q.params),
                             query=idx)

    degrees = [q.degree for q in queries]
    # The direct-sum verifier's words: the shared point and LDE values,
    # plus — per query — the claimed answer, the running check and the
    # committed (degree+1)-word message.  For a single-query batch this
    # reduces exactly to the one-query verifier's space_words formula.
    space_words = (
        d
        + (2 if lde_b is not None else 1)
        + sum(degree + 3 for degree in degrees)
    )
    claimed: List[Optional[int]] = [None] * len(queries)
    previous: List[Optional[int]] = [None] * len(queries)
    failed: List[Optional[str]] = [None] * len(queries)
    live = len(queries)

    round_seconds = obs.histogram("repro_sumcheck_round_seconds")
    for j in range(d):
        round_t0 = time.perf_counter()
        r_j = verifier.r[j]
        # One Lagrange weight vector per distinct message length serves
        # every live query of that length this round.
        weights = {}
        g_label = "g%d" % (j + 1)
        # The prover commits every query's round polynomial first.
        for idx, msg in enumerate(prover.round_messages()):
            delivered = ch.prover_says(j, prefixes[idx] + g_label, msg,
                                       query=idx)
            if failed[idx] is not None:
                continue
            length = degrees[idx] + 1
            if len(delivered) != length:
                failed[idx] = (
                    "round %d: message has %d words, a degree-%d "
                    "polynomial needs %d"
                    % (j, len(delivered), length - 1, length))
                live -= 1
                continue
            evals = [v % p for v in delivered]
            round_sum = (evals[0] + evals[1]) % p
            if j == 0:
                claimed[idx] = round_sum
            elif round_sum != previous[idx]:
                failed[idx] = "round %d: sum-check invariant violated" % j
                live -= 1
                continue
            w = weights.get(length)
            if w is None:
                w = weights[length] = interpolation_weights(field, length,
                                                            r_j)
            previous[idx] = sum(e * wk for e, wk in zip(evals, w)) % p
        # Reveal r_j and fold all tables; r_d stays secret, and once
        # every member has failed nothing more is said.
        if live and j < d - 1:
            ch.verifier_says(j, "r%d" % (j + 1), [r_j])
            prover.receive_challenge(r_j)
        round_seconds.observe(time.perf_counter() - round_t0)
        if not live:
            break

    # Per-query proof telemetry, straight off the channel's own
    # accounting — the cross-check test asserts these samples equal
    # Channel.query_cost exactly.
    for idx, q in enumerate(queries):
        obs.histogram("repro_sumcheck_query_words",
                      kind=q.name).observe(ch.query_cost(idx))

    results = []
    fa_at_r = lde_a.value
    for idx, q in enumerate(queries):
        if failed[idx] is not None:
            results.append(rejected(ch.transcript, failed[idx],
                                    space_words))
            continue
        if q.kind == BATCH_KIND_F2:
            target = fa_at_r * fa_at_r % p
        elif q.kind == BATCH_KIND_FK:
            target = field.pow(fa_at_r, q.params[0])
        elif q.kind == BATCH_KIND_INNER_PRODUCT:
            target = fa_at_r * lde_b.value % p
        else:
            lo, hi = q.params
            fb_at_r = range_indicator_eval(field, d, verifier.r, lo, hi)
            target = fa_at_r * fb_at_r % p
        if previous[idx] != target:
            results.append(
                rejected(
                    ch.transcript,
                    "query %d: final check failed" % idx,
                    space_words,
                )
            )
        else:
            results.append(accepted(ch.transcript, claimed[idx],
                                    space_words))
    return results


def run_batch_range_sum(
    prover,
    verifier,
    queries: Sequence[Tuple[int, int]],
    channel: Optional[Channel] = None,
) -> List[VerificationResult]:
    """Verify many RANGE-SUM queries in lockstep with shared randomness.

    :func:`run_batched_sumcheck` over an all-RANGE-SUM batch given as
    ``(lo, hi)`` pairs: 3·|queries| words per round plus the shared
    challenges.
    """
    return run_batched_sumcheck(
        prover, verifier,
        [batch_range_sum(lo, hi) for lo, hi in queries],
        channel=channel,
    )


def amplified_protocol(
    run_once: Callable[[random.Random], VerificationResult],
    repetitions: int,
    rng: Optional[random.Random] = None,
) -> VerificationResult:
    """Error amplification by parallel repetition (Definition 1 remark).

    "As soon as we have such a prover, we can reduce probability of error
    to p by repeating the protocol O(log 1/p) times in parallel, and
    rejecting if any rejects."  ``run_once`` must execute one independent
    protocol instance with the given randomness; the combined run accepts
    iff every instance accepts *and* all instances agree on the value.
    Costs add up linearly in ``repetitions``; the soundness error is
    raised to the ``repetitions``-th power.

    (The protocols here can instead shrink the error by enlarging p — the
    paper's preferred route — but repetition is the generic tool and is
    what Definition 1's remark describes.)
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    rng = rng or random.Random()
    from repro.comm.transcript import Transcript

    merged = Transcript()
    results = []
    for _ in range(repetitions):
        result = run_once(random.Random(rng.getrandbits(64)))
        results.append(result)
        merged.messages.extend(result.transcript.messages)
    space = max(r.verifier_space_words for r in results)
    for result in results:
        if not result.accepted:
            return rejected(
                merged,
                "a repetition rejected: %s" % result.reason,
                space,
            )
    values = {repr(r.value) for r in results}
    if len(values) != 1:
        return rejected(merged, "repetitions disagree on the answer", space)
    return accepted(merged, results[0].value, space)


class IndependentCopies:
    """c independent verifier instances over one stream.

    ``verifier_factory(rng)`` builds a fresh streaming verifier;
    :meth:`take` hands out an unused copy (raising LookupError when
    exhausted).  Space grows as c · (single-copy space) — "since each copy
    requires only O(log u) space ... the cost per query is low".
    """

    def __init__(
        self,
        copies: int,
        verifier_factory: Callable[[random.Random], object],
        rng: Optional[random.Random] = None,
    ):
        if copies < 1:
            raise ValueError("need at least one copy")
        rng = rng or random.Random()
        self._fresh = [
            verifier_factory(random.Random(rng.getrandbits(64)))
            for _ in range(copies)
        ]
        self._stack = None  # built by the first process_stream_batched

    def process(self, i: int, delta: int) -> None:
        for v in self._fresh:
            v.process(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        """One pass over the stream shared by all copies.

        Verifiers that expose their streaming state as
        ``stream_sketches`` (the sum-check families, the tree hash,
        heavy hitters) are rows of one
        :class:`~repro.lde.streaming.SketchStack`: every block is
        validated, split and pre-aggregated once and folded into all
        live copies by one stacked kernel, so c copies cost barely more
        than one.  Copies that do not (e.g. the frequency-based
        verifier, whose ``process`` feeds two sketches) take the
        per-update loop; results are identical either way.
        """
        if block < 1:
            raise ValueError("block size must be positive, got %d" % block)
        if not self._fresh:
            return
        if self._stack is None:
            lanes = [getattr(v, "stream_sketches", None) for v in self._fresh]
            grids = {(s.ell, s.d) for lane in lanes if lane for s in lane}
            if None in lanes or len(grids) != 1:
                self.process_stream(updates)
                return
            (ell, d), = grids
            self._stack = SketchStack(lanes[0][0].backend, ell, d)
            self._stack.add_copies(self._fresh)
        # Verifiers validate keys against their own (unpadded) universe.
        self._stack.process_stream(
            updates, min(v.u for v in self._fresh), block,
            live=[len(self._fresh)],
        )

    def take(self):
        if not self._fresh:
            raise LookupError("all independent protocol copies were consumed")
        return self._fresh.pop()

    @property
    def remaining(self) -> int:
        return len(self._fresh)

    @property
    def space_words(self) -> int:
        return sum(getattr(v, "space_words", 0) for v in self._fresh)
