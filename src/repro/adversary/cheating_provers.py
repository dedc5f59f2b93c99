"""Dishonest provers for the soundness experiments of Section 5.

The paper: "We also tried modifying the prover's messages, by changing
some pieces of the proof, or computing the proof for a slightly modified
stream.  In all cases, the protocols caught the error."  Each class here
is one such strategy; the tests assert that every one of them
is rejected (up to the negligible O(log u / p) soundness error).

The last two classes are service-side ``prover_wrapper`` hooks rather
than provers: they watch one conversation's challenges and cheat in the
next one over the same dataset, which only a client that re-presents a
spent secret point would accept.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.heavy_hitters import HeavyHittersProver, NodeRecord
from repro.core.multiquery import BatchedSumcheckEngine
from repro.core.subvector import SubVectorProver
from repro.field.modular import PrimeField


class ModifiedStreamF2Prover(BatchedSumcheckEngine):
    """Computes a perfectly-formed proof — for a *different* stream.

    Models a cloud that lost or corrupted one update: a single frequency
    is perturbed before the proof is generated, so the claimed F2 is wrong
    but every sum-check message is internally consistent.
    """

    def __init__(self, field: PrimeField, u: int, corrupt_key: int = 0,
                 offset: int = 1):
        super().__init__(field, u)
        self.corrupt_key = corrupt_key
        self.offset = offset

    def receive_batch(self, queries) -> None:
        honest, self.freq_a = self.freq_a, list(self.freq_a)
        self.freq_a[self.corrupt_key] += self.offset
        super().receive_batch(queries)
        self.freq_a = honest


class OmittingSubVectorProver(SubVectorProver):
    """Hides one present key from the reported sub-vector (an incomplete
    range scan) — root reconstruction then misses its hash contribution."""

    def __init__(self, field: PrimeField, u: int, omit_key: int):
        super().__init__(field, u)
        self.omit_key = omit_key

    def answer_entries(self) -> List[Tuple[int, int]]:
        return [
            (k, v) for k, v in super().answer_entries() if k != self.omit_key
        ]


class AlteringSubVectorProver(SubVectorProver):
    """Reports a wrong value for one key (a corrupted read)."""

    def __init__(self, field: PrimeField, u: int, alter_key: int,
                 offset: int = 1):
        super().__init__(field, u)
        self.alter_key = alter_key
        self.offset = offset

    def answer_entries(self) -> List[Tuple[int, int]]:
        p = self.field.p
        out = []
        for k, v in super().answer_entries():
            if k == self.alter_key:
                v = (v + self.offset) % p
            out.append((k, v))
        return out


class InjectingSubVectorProver(SubVectorProver):
    """Invents an extra (absent) key inside the range (a phantom record)."""

    def __init__(self, field: PrimeField, u: int, inject_key: int,
                 value: int = 1):
        super().__init__(field, u)
        self.inject_key = inject_key
        self.value = value

    def answer_entries(self) -> List[Tuple[int, int]]:
        entries = dict(super().answer_entries())
        if self.inject_key in entries:
            raise ValueError("inject_key must be absent from the range")
        entries[self.inject_key] = self.value % self.field.p
        return sorted(entries.items())


class ConcealingHeavyHittersProver(HeavyHittersProver):
    """Understates one leaf's count (and its ancestors') to hide a heavy
    hitter.  The hash values stay truthful, so the verifier's recomputed
    parent hashes — which mix the *claimed* counts with s_j — diverge from
    the streamed root."""

    def __init__(self, field: PrimeField, u: int, phi: float,
                 conceal_key: int):
        super().__init__(field, u, phi)
        self.conceal_key = conceal_key

    def begin_proof(self) -> None:
        super().begin_proof()
        # Zero the concealed leaf's count, in a copy of the leaf counts:
        # every ancestor's count folds from it.
        counts = self._be.to_list(self._counts)
        counts[self.conceal_key] = 0
        self._counts = self._be.asarray(counts)


class InflatingHeavyHittersProver(HeavyHittersProver):
    """Claims an absent/light key is heavy by inflating its count."""

    def __init__(self, field: PrimeField, u: int, phi: float,
                 inflate_key: int, amount: int):
        super().__init__(field, u, phi)
        self.inflate_key = inflate_key
        self.amount = amount

    def begin_proof(self) -> None:
        super().begin_proof()
        counts = self._be.to_list(self._counts)
        counts[self.inflate_key] += self.amount
        self._counts = self._be.asarray(counts)


class OmittingHeavyHittersProver(HeavyHittersProver):
    """Drops both children of one heavy node — the first listed — at
    level ``omit_level`` and is honest everywhere else.  One level up it
    lists that node, heavy and with its true record, though the verifier
    never derived it from children: the records under it, where a heavy
    hitter could hide, were never shown."""

    def __init__(self, field: PrimeField, u: int, phi: float,
                 omit_level: int, **kwargs):
        super().__init__(field, u, phi, **kwargs)
        self.omit_level = omit_level

    def begin_proof(self) -> None:
        super().begin_proof()
        self._level = 0

    def round_message(self) -> List[NodeRecord]:
        records = super().round_message()
        if self._level == self.omit_level and records:
            parent = records[0].index >> 1
            records = [rec for rec in records if rec.index >> 1 != parent]
        self._level += 1
        return records


class OutOfRangeHeavyHittersProver(HeavyHittersProver):
    """Lists, from ``level`` up, a phantom pair just past each level's
    index range ``[0, 2^(d - l))``, and is honest everywhere else.

    Where the pair first appears neither child is heavy (counts τ − 1 and
    1, so τ ≥ 2), but their sum is; at every later level the pair is that
    phantom parent's derived record beside an empty sibling.  Every
    sibling, heaviness, count and replay check holds, and the phantoms
    never reach the root or the answer: only the index bound refuses
    them."""

    def __init__(self, field: PrimeField, u: int, phi: float, level: int,
                 **kwargs):
        super().__init__(field, u, phi, **kwargs)
        self.level = level

    def begin_proof(self) -> None:
        super().begin_proof()
        self._level = 0
        # (hash, count) of the left and the right phantom child.
        self._phantom = ((0, self._tau - 1), (0, 1))

    def round_message(self) -> List[NodeRecord]:
        records = super().round_message()
        if self._level >= self.level:
            index = 1 << (self.d - self._level)
            records += [NodeRecord(index + side, *record)
                        for side, record in enumerate(self._phantom)]
        self._level += 1
        return records

    def receive_randomness(self, r_l: int, s_l: int) -> None:
        if self._level > self.level:  # a pair was listed at this level
            p = self.field.p
            (left, c_left), (right, c_right) = self._phantom
            count = (c_left + c_right) % p
            self._phantom = (((left + r_l * right + s_l * count) % p, count),
                             (0, 0))
        super().receive_randomness(r_l, s_l)


class PerQueryCheatingBatchEngine(BatchedSumcheckEngine):
    """Cheats on exactly *one* query of a heterogeneous batch.

    The direct-sum observation (Section 7) says each batch member keeps
    its single-query guarantee; this prover probes exactly that: every
    other query is served honestly, the victim's messages lie.  Two
    strategies:

    * ``style="claim"`` — shift the victim's round-0 ``g(0)`` (an
      inflated claimed answer, then honest play): caught by the round-1
      sum-check invariant.
    * ``style="adaptive"`` — the strongest lie available without knowing
      r: smear the offset as a constant drift δ/2^j over *all* of the
      victim's round-j evaluations, so every cross-round invariant holds
      exactly (adding a constant to an evaluation table shifts its
      interpolant by the same constant) and only the verifier's private
      final check can — and does — catch it.

    Tests assert the victim alone is rejected while honest queries in
    the same batch still verify, including behind the real service wire.
    """

    def __init__(self, field: PrimeField, u: int, cheat_query: int = 0,
                 offset: int = 1, style: str = "adaptive", backend=None):
        super().__init__(field, u, backend=backend)
        if style not in ("adaptive", "claim"):
            raise ValueError("unknown cheating style %r" % (style,))
        self.cheat_query = cheat_query
        self.offset = offset % field.p
        self.style = style
        self._half = field.inv(2)
        self._drift = 0
        self._round = 0

    def receive_batch(self, queries) -> None:
        queries = list(queries)
        if not 0 <= self.cheat_query < len(queries):
            raise ValueError(
                "cheat_query %d outside the batch of %d"
                % (self.cheat_query, len(queries))
            )
        super().receive_batch(queries)
        self._drift = self.offset * self._half % self.field.p
        self._round = 0

    def round_messages(self):
        messages = super().round_messages()
        p = self.field.p
        victim = self.cheat_query
        if self.style == "claim":
            if self._round == 0:
                messages[victim] = list(messages[victim])
                messages[victim][0] = (messages[victim][0] + self.offset) % p
        else:
            messages[victim] = [
                (v + self._drift) % p for v in messages[victim]
            ]
            self._drift = self._drift * self._half % p
        self._round += 1
        return messages


class OffsetClaimF2Prover(PerQueryCheatingBatchEngine):
    """Shifts the first message to inflate the claimed F2, then plays
    honestly — caught by the round-2 consistency check."""

    def __init__(self, field: PrimeField, u: int, offset: int = 1):
        super().__init__(field, u, offset=offset, style="claim")


class AdaptiveF2Cheater(PerQueryCheatingBatchEngine):
    """The strongest lying strategy available without knowing r.

    Inflates the claim by δ and then *keeps every consistency check
    satisfied* by smearing the lie: sending g'_j = g_j + δ_j with constant
    δ_j = δ / 2^j (so g'_j(0) + g'_j(1) = g'_{j-1}(r_{j-1}) holds exactly).
    Only the final check against f_a(r)² — private to the verifier — can
    catch it, and it does: g'_d(r_d) differs from the honest value by
    δ / 2^d ≠ 0.
    """

    def __init__(self, field: PrimeField, u: int, offset: int = 1):
        super().__init__(field, u, offset=offset, style="adaptive")


class _Delegate:
    """A materialised prover whose steps pass straight through, but for
    the ones a subclass overrides."""

    def __init__(self, prover):
        self._prover = prover

    def __getattr__(self, name):
        return getattr(self._prover, name)


class _Recorder(_Delegate):
    """An honest prover that logs each challenge it receives (heavy
    hitters' as its (r, s) pair)."""

    def __init__(self, prover, seen: List[int]):
        super().__init__(prover)
        self._seen = seen

    def receive_challenge(self, r: int):
        self._seen.append(r)
        return self._prover.receive_challenge(r)

    def receive_randomness(self, r: int, s: int):
        self._seen.extend((r, s))
        return self._prover.receive_randomness(r, s)


class RetryAdaptiveCheater:
    """A ``prover_wrapper`` that learns r_1 in one conversation and uses
    it in the next.

    Every prover the service materialises for a matching unit logs the
    challenges it receives, per dataset id (so one instance can sit on
    every node of a cluster).  Once some conversation over a dataset has
    revealed r_1, every later materialisation over it is
    :meth:`exploit`'s cheat, whose lie is invisible exactly at that r_1.
    A client that retries with a fresh verifier copy catches it except
    with probability O(1/p); one that restores its spent copy accepts it
    with probability 1.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        #: dataset id -> challenges its first learning prover received.
        self.challenges: Dict[int, List[int]] = {}
        self.cheats = 0

    def targets(self, unit) -> bool:
        raise NotImplementedError

    def exploit(self, unit, prover, r_1: int):
        raise NotImplementedError

    def __call__(self, unit, prover, dataset):
        if not self.targets(unit):
            return None
        seen = self.challenges.setdefault(dataset.dataset_id, [])
        if not seen:
            return _Recorder(prover, seen)
        cheat = self.exploit(unit, prover, seen[0])
        self.cheats += cheat is not None
        return cheat


class _ShiftedFirstRound(_Delegate):
    """The engine, honest but for member 0's first round polynomial,
    which gains h(X) = (X − r_1)/(1 − 2r_1): h(0) + h(1) = 1 inflates
    the claim by one, and h(r_1) = 0 leaves every later round honest."""

    def __init__(self, prover, field: PrimeField, r_1: int):
        super().__init__(prover)
        self._p = field.p
        self._r_1 = r_1
        self._scale = field.inv(1 - 2 * r_1)
        self._first = True

    def round_messages(self):
        messages = [list(m) for m in self._prover.round_messages()]
        if self._first:
            self._first = False
            p = self._p
            messages[0] = [
                (v + (x - self._r_1) * self._scale) % p
                for x, v in enumerate(messages[0])
            ]
        return messages


class RetryAdaptiveF2Cheater(RetryAdaptiveCheater):
    """Inflates an engine batch's first member (F2 in the tests) by one,
    using the r_1 an earlier conversation revealed."""

    def targets(self, unit) -> bool:
        return unit.batched

    def exploit(self, unit, prover, r_1: int):
        if (1 - 2 * r_1) % self.field.p == 0:
            return None
        return _ShiftedFirstRound(prover, self.field, r_1)


class _ShiftedLookup(_Delegate):
    """A point lookup of ``key`` answered with a_key + 1, the level-0
    sibling lowered so that their parent's hash a_L + r_1·a_R is the
    honest one."""

    def __init__(self, prover, field: PrimeField, key: int, r_1: int):
        super().__init__(prover)
        self._field = field
        self._key = key
        # The key is the right child (weight r_1) when odd, else the left.
        self._sibling_shift = r_1 if key & 1 else field.inv(r_1)

    def answer_entries(self):
        p = self._field.p
        entries = dict(self._prover.answer_entries())
        entries[self._key] = (entries.get(self._key, 0) + 1) % p
        return sorted(entries.items())

    def level0_siblings(self):
        p = self._field.p
        return [
            (idx, (v - self._sibling_shift) % p if idx == self._key ^ 1
             else v)
            for idx, v in self._prover.level0_siblings()
        ]


class RetryAdaptiveLookupCheater(RetryAdaptiveCheater):
    """Reports a point lookup's value one too high, using the r_1 an
    earlier conversation revealed."""

    def targets(self, unit) -> bool:
        return unit.descriptors[0].name == "point-lookup"

    def exploit(self, unit, prover, r_1: int):
        if r_1 == 0:
            return None
        return _ShiftedLookup(prover, self.field,
                              unit.descriptors[0].params[0], r_1)


def corrupted_copy(stream, key: int, offset: int = 1):
    """A copy of ``stream`` with one extra update — the "slightly modified
    stream" experiment: the honest machinery run on the wrong data."""
    from repro.streams.model import Stream

    out = Stream(stream.u, stream.updates())
    out.append(key, offset)
    return out
