"""Heavy hitters — Section 6.1.

The SUB-VECTOR tree is augmented: each internal node gets a third child
holding its *subtree count*, and the level-(j+1) hash becomes

    v = v_L + r_{j+1} · v_R + s_{j+1} · c_v

with independent random ``s`` parameters.  The streaming verifier keeps
only the root ``t`` and the total mass ``n``.  In round l the prover lists
every level-l node whose parent is φ-heavy — (index, hash, count) triples —
which simultaneously exhibits all heavy hitters and *witnesses* that no
heavy hitter was omitted (children of heavy nodes that are themselves
light cap their entire subtree below φn).  The verifier recomputes each
heavy node's record from its children and finally compares the root with
``(t, n)``.

Proof size O(1/φ · log u): at most O(1/φ) nodes per level have a heavy
parent.  The protocol answers strict streams (non-negative frequencies),
where every subtree count lies in [0, n]: the verifier rejects any record
whose count exceeds n, so a stream whose counts went negative gets a
rejection, never a residue near p passed off as a heavy count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.channel import Channel
from repro.comm.fingerprint import SequenceFingerprint
from repro.core.base import (
    VerificationResult,
    accepted,
    pow2_dimension,
    rejected,
)
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    fold_pairs,
    get_backend,
    indices_within,
    small_tables,
)
from repro.lde.streaming import (
    DEFAULT_BLOCK,
    StreamSketch,
    UpdateBlock,
    fuse_widths,
    iter_blocks,
)


def heavy_threshold(phi: float, n: int) -> int:
    """Count threshold for φ-heaviness: ``count >= max(1, ceil(φ·n))``.

    Both parties evaluate this identically, so it is part of the protocol.
    """
    if not 0 < phi <= 1:
        raise ValueError("phi must lie in (0, 1], got %r" % (phi,))
    return max(1, math.ceil(phi * n))


@dataclass(frozen=True)
class NodeRecord:
    index: int
    hash_value: int
    count: int


class HeavyHittersProver:
    """Stores the vector; folds subtree counts and hashes level by level.

    Counts and hashes are residue tables, each level one pass over the
    pairs of the level below: a count is ``E + O`` (one add), a hash
    ``E + r_l·O`` (:func:`~repro.field.vectorized.fold_pairs` with
    ``zero_weight=1``) plus ``s_l`` times the folded count.  On a strict
    stream every subtree count lies in [0, n] and n < p, so the residues
    are the exact counts.  A proof starts from ``freq``, which no fold
    writes, and finishes on Python ints once a level is down to
    :data:`~repro.field.vectorized.SMALL_TABLE` entries
    (:func:`~repro.field.vectorized.small_tables`).
    """

    def __init__(self, field: PrimeField, u: int, phi: float, backend=None,
                 freq=None):
        self.field = field
        self.u = u
        self.phi = phi
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.freq = freq if freq is not None else [0] * self.size

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.freq[i] += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    # -- proof phase ---------------------------------------------------------

    def begin_proof(self) -> None:
        leaves = canonical_table(self.backend, self.field, self.freq)
        self._n = self.backend.sum(leaves)
        self._tau = heavy_threshold(self.phi, self._n)
        self._be, self._counts, self._hashes = small_tables(
            self.backend, self.field, leaves, leaves)

    def round_message(self) -> List[NodeRecord]:
        """Level-l records for all nodes whose parent is heavy: counted
        in [τ, n], parents ascending, left child then right."""
        be = self._be
        self._parents = be.add(self._counts[0::2], self._counts[1::2])
        children = [
            child
            for parent in indices_within(self._parents, self._tau, self._n)
            for child in (2 * parent, 2 * parent + 1)
        ]
        ids = be.index_array(children)
        return list(map(NodeRecord, children,
                        be.to_list(be.take(self._hashes, ids)),
                        be.to_list(be.take(self._counts, ids))))

    def receive_randomness(self, r_l: int, s_l: int) -> None:
        """Fold the hashes one level up with the revealed (r_l, s_l)."""
        be = self._be
        hashes = be.add(
            fold_pairs(be, self.field, self._hashes, r_l, zero_weight=1),
            be.mul(s_l, self._parents),
        )
        self._be, self._counts, self._hashes = small_tables(
            be, self.field, self._parents, hashes)


class HeavyHittersVerifier(StreamSketch):
    """Streaming state: r, s, the count-augmented root hash, and n."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        phi: float,
        rng: Optional[random.Random] = None,
        r: Optional[Sequence[int]] = None,
        s: Optional[Sequence[int]] = None,
        backend=None,
    ):
        self.field = field
        self.u = u
        self.phi = phi
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        if rng is None:
            rng = random.Random()
        self.r = list(r) if r is not None else field.rand_vector(rng, self.d)
        self.s = list(s) if s is not None else field.rand_vector(rng, self.d)
        if len(self.r) != self.d or len(self.s) != self.d:
            raise ValueError("need %d r and s parameters" % self.d)
        self.root = 0
        self.n = 0
        self._fused = None  # lazy fused weight tables (batched path)

    def _weight(self, i: int) -> int:
        """Root-hash weight of one unit at leaf i (leaf path + all the
        count children of its ancestors)."""
        p = self.field.p
        # suffix[m] = prod_{j=m..d-1} r_j^{bit_j(i)}, computed descending.
        w = 0
        suffix = 1
        for j in range(self.d - 1, -1, -1):
            # ancestor at level j+1 contributes s_j * suffix(j+1)
            w = (w + self.s[j] * suffix) % p
            if (i >> j) & 1:
                suffix = suffix * self.r[j] % p
        return (w + suffix) % p

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self.root = (self.root + delta * self._weight(i)) % self.field.p
        self.n += delta

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    # -- batched (vectorized) stream processing -----------------------------

    def _fused_weight_tables(self):
        """Fused (product, count-term) lookup tables per group of bits.

        The root-hash weight of one unit at leaf i is a sum of suffix
        products of ``r`` plus the leaf path itself — the count-augmented
        analogue of an eq/χ tensor.  Per group of bits the tables are
        built with the same doubling ``outer_flat`` recurrence as
        :func:`repro.gkr.mle.eq_table`:

            P[digit] = Π_{bits set} r_j          (the suffix product)
            A[digit] = Σ_j s_j · Π_{m>j set} r_m  (the s terms, in-group)

        and a block's weights combine groups top-down as
        ``acc += A_k · tail; tail *= P_k`` with ``tail`` the product of
        all higher groups.  The groups are the stacked LDE's
        (:func:`~repro.lde.streaming.fuse_widths`): as few as
        ``FUSE_LIMIT`` allows, of balanced widths, so every table stays
        cache-resident and small.
        """
        if self._fused is None:
            be = self.backend
            groups = []  # (span, P table, A table), bottom bits first
            j = 0
            for span in fuse_widths(2, self.d):
                prod = be.asarray([1])
                acc = be.asarray([0])
                # Descending bit order puts bit t at in-group position
                # t - j (outer_flat prepends the new bit as the LSB).
                for t in range(j + span - 1, j - 1, -1):
                    acc = be.outer_flat(
                        be.asarray([1, 1]),
                        be.add(acc, be.mul(self.s[t], prod)),
                    )
                    prod = be.outer_flat(be.asarray([1, self.r[t]]), prod)
                groups.append((span, prod, acc))
                j += span
            self._fused = groups
        return self._fused

    @property
    def stream_sketches(self):
        return (self,)

    def absorb_block(self, block: UpdateBlock) -> None:
        """Fold one prepared block into (root, n).

        Identical results to the per-update loop; the per-leaf weights
        of the block's distinct keys are a few fused table gathers
        instead of an O(d) Python loop per update.
        """
        if block.keys is None:  # scalar backend: the reference loop
            self.process_stream(block.pairs)
            return
        be = self.backend
        keys = block.keys
        acc = None
        tail = None
        shift = self.d
        for span, prod, s_terms in reversed(self._fused_weight_tables()):
            shift -= span
            digit = (keys >> shift) & ((1 << span) - 1)
            a_g = be.take(s_terms, digit)
            p_g = be.take(prod, digit)
            if tail is None:
                acc = a_g
                tail = p_g
            else:
                acc = be.add(acc, be.mul(a_g, tail))
                tail = be.mul(tail, p_g)
        contribution = be.dot(be.add(acc, tail), be.asarray(block.deltas))
        self.root = (self.root + contribution) % self.field.p
        # n is the exact integer mass, not a residue.
        self.n += block.total

    def process_stream_batched(self, updates, block: int = DEFAULT_BLOCK) -> None:
        """Fold ``(i, δ)`` updates into (root, n) block by block."""
        for prepared in iter_blocks(self.backend, self.u, updates, block):
            self.absorb_block(prepared)

    @property
    def space_words(self) -> int:
        # r, s (2d) + root + n + O(1/phi) transient expected records.
        transient = 3 * math.ceil(1.0 / self.phi) if self.phi > 0 else 0
        return 2 * self.d + 2 + transient


def _parse_records(raw: Sequence[int], p: int) -> Optional[List[NodeRecord]]:
    if len(raw) % 3 != 0:
        return None
    out = []
    for t in range(0, len(raw), 3):
        out.append(NodeRecord(raw[t], raw[t + 1] % p, raw[t + 2] % p))
    return out


def run_heavy_hitters(
    prover: HeavyHittersProver,
    verifier: HeavyHittersVerifier,
    channel: Optional[Channel] = None,
    low_space: bool = False,
) -> VerificationResult:
    """Run the d-round heavy-hitters protocol over a strict stream.

    On acceptance the value is ``{key: frequency}`` for every φ-heavy key.
    A record counting more than the stream's mass n is rejected: no
    subtree of a strict stream holds more.

    With ``low_space=True`` the verifier runs the improved
    (log u, 1/φ·log u) variant from the end of Section 6.1: instead of
    carrying the O(1/φ) recomputed parent records between rounds, it keeps
    a single polynomial fingerprint of them and compares it against the
    fingerprint of the heavy records the prover lists at the next level
    (each heavy node's record is "replayed" there by construction, since a
    heavy node's parent is heavy too).
    """
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    d = verifier.d
    if prover.d != d:
        return rejected(ch.transcript, "prover/verifier dimension mismatch")

    prover.begin_proof()
    tau = heavy_threshold(verifier.phi, verifier.n)
    heavy_answer: Dict[int, int] = {}
    expected: Dict[int, Tuple[int, int]] = {}  # index -> (hash, count)
    fp_rng = random.Random()  # key stays verifier-private
    fingerprint_key = field.rand(fp_rng)
    expected_fingerprint: Optional[int] = None
    expected_count = 0

    for l in range(d):
        raw = ch.prover_says(
            l,
            "level%d" % l,
            [w for rec in prover.round_message() for w in (rec.index,
                                                           rec.hash_value,
                                                           rec.count)],
        )
        records = _parse_records(raw, p)
        if records is None:
            return rejected(ch.transcript, "malformed level-%d message" % l,
                            verifier.space_words)
        indices = [rec.index for rec in records]
        if indices != sorted(set(indices)) or any(
            not 0 <= idx < (1 << (d - l)) for idx in indices
        ):
            return rejected(
                ch.transcript,
                "level %d: indices not sorted/unique/in-range" % l,
                verifier.space_words,
            )
        over = [rec.index for rec in records if rec.count > verifier.n]
        if over:
            return rejected(
                ch.transcript,
                "level %d: node %d counts more than the stream's mass n"
                % (l, over[0]),
                verifier.space_words,
            )
        by_index = {rec.index: rec for rec in records}

        if low_space:
            # Fingerprint comparison replaces the stored parent records:
            # the heavy records listed at this level must replay, verbatim
            # and in order, the parents the verifier derived last round.
            if l > 0:
                fp = SequenceFingerprint(field, z=fingerprint_key)
                heavy_here = 0
                for rec in records:  # records arrive index-sorted
                    if rec.count >= tau:
                        heavy_here += 1
                        fp.absorb(rec.index)
                        fp.absorb(rec.hash_value)
                        fp.absorb(rec.count)
                if (fp.value != expected_fingerprint
                        or heavy_here != expected_count):
                    return rejected(
                        ch.transcript,
                        "level %d: heavy records do not replay the derived "
                        "parents (fingerprint mismatch)" % l,
                        verifier.space_words,
                    )
        else:
            # Cross-check nodes the verifier already derived from children.
            for idx, (h, c) in expected.items():
                rec = by_index.get(idx)
                if rec is None:
                    return rejected(
                        ch.transcript,
                        "level %d: heavy node %d missing from the proof"
                        % (l, idx),
                        verifier.space_words,
                    )
                if rec.hash_value != h or rec.count != c:
                    return rejected(
                        ch.transcript,
                        "level %d: node %d disagrees with its children"
                        % (l, idx),
                        verifier.space_words,
                    )

            # A node claimed heavy must have been derived from its own
            # children (else the prover could hide heavy hitters below it).
            if l > 0:
                for idx, rec in by_index.items():
                    if rec.count >= tau and idx not in expected:
                        return rejected(
                            ch.transcript,
                            "level %d: heavy node %d was never expanded"
                            % (l, idx),
                            verifier.space_words,
                        )

        # Every listed node must have its sibling listed (children of heavy
        # parents come in pairs), and every pair-parent must be heavy.
        new_expected: Dict[int, Tuple[int, int]] = {}
        for idx, rec in by_index.items():
            if (idx ^ 1) not in by_index:
                return rejected(
                    ch.transcript,
                    "level %d: node %d listed without its sibling" % (l, idx),
                    verifier.space_words,
                )
            if idx % 2 == 1:
                continue
            left = rec
            right = by_index[idx + 1]
            parent_count = (left.count + right.count) % p
            parent_hash = (
                left.hash_value
                + verifier.r[l] * right.hash_value
                + verifier.s[l] * parent_count
            ) % p
            if parent_count < tau:
                return rejected(
                    ch.transcript,
                    "level %d: children of light node %d were listed"
                    % (l, idx >> 1),
                    verifier.space_words,
                )
            new_expected[idx >> 1] = (parent_hash, parent_count)

        if l == 0:
            heavy_answer = {
                rec.index: rec.count for rec in records if rec.count >= tau
            }
        if low_space and l < d - 1:
            # Persist one fingerprint word instead of the record set.
            fp = SequenceFingerprint(field, z=fingerprint_key)
            for idx in sorted(new_expected):
                h, c = new_expected[idx]
                fp.absorb(idx)
                fp.absorb(h)
                fp.absorb(c)
            expected_fingerprint = fp.value
            expected_count = len(new_expected)
            expected = {}
        else:
            expected = new_expected
        if l < d - 1:
            ch.verifier_says(l, "rs%d" % l, [verifier.r[l], verifier.s[l]])
            prover.receive_randomness(verifier.r[l], verifier.s[l])

    root = expected.get(0)
    if root is None:
        if tau > verifier.n:
            # No key can be φ-heavy when the threshold exceeds the total
            # mass; the empty answer is unconditionally correct.
            return accepted(ch.transcript, {}, verifier.space_words)
        return rejected(ch.transcript, "proof never reached the root",
                        verifier.space_words)
    root_hash, root_count = root
    if root_count != verifier.n % p:
        return rejected(ch.transcript, "root count does not match n",
                        verifier.space_words)
    if root_hash != verifier.root:
        return rejected(ch.transcript, "root hash mismatch: t' != t",
                        verifier.space_words)
    return accepted(ch.transcript, heavy_answer, verifier.space_words)


def heavy_hitters_protocol(
    stream,
    phi: float,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end φ-heavy-hitters over a strict :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = HeavyHittersVerifier(field, stream.u, phi, rng=rng)
    prover = HeavyHittersProver(field, stream.u, phi)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_heavy_hitters(prover, verifier, channel)
