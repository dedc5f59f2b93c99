"""Reporting queries on top of SUB-VECTOR (Section 4.2, Corollary 1).

* RANGE QUERY — the sub-vector itself (unit updates per item).
* INDEX — a range query with ``qL = qR = q``.
* DICTIONARY — values stored shifted by +1 so a retrieved 0 means
  "not found" (pair with :class:`repro.streams.KVStreamEncoder`).
* PREDECESSOR / SUCCESSOR — the prover claims a key q'; the verifier runs
  SUB-VECTOR on ``[q', q]`` (resp. ``[q, q']``) and checks that q' is the
  only present key, which costs O(log u) words since the claimed
  sub-vector has a single nonzero entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, accepted, rejected
from repro.core.subvector import (
    SubVectorAnswer,
    SubVectorProver,
    TreeHashVerifier,
    run_subvector,
)
from repro.field.modular import PrimeField

#: Claim encoding for maybe-absent keys: (found flag, key).
_NOT_FOUND = (0, 0)


def read_claim(words: Sequence[int]) -> Optional[Tuple[bool, int]]:
    """A ``(flag, key)`` claim as ``(found, key)``; None unless it is
    canonical — two words, flag 0 or 1, key 0 beside flag 0 — so that one
    answer has exactly one accepted claim."""
    words = tuple(words)
    if len(words) == 2 and (words[0] == 1 or words == _NOT_FOUND):
        return words[0] == 1, words[1]
    return None


@dataclass(frozen=True)
class DictionaryAnswer:
    """Verified DICTIONARY result."""

    key: int
    found: bool
    value: Optional[int]


class ReportingProver(SubVectorProver):
    """SUB-VECTOR prover extended with the query-time claims the reporting
    protocols require (predecessor/successor positions)."""

    def claim_predecessor(self, q: int) -> Tuple[int, int]:
        for key, _ in self.present(range(min(q, self.size - 1), -1, -1)):
            return (1, key)
        return _NOT_FOUND

    def claim_successor(self, q: int) -> Tuple[int, int]:
        for key, _ in self.present(range(max(q, 0), self.size)):
            return (1, key)
        return _NOT_FOUND


def range_query(
    prover: SubVectorProver,
    verifier: TreeHashVerifier,
    lo: int,
    hi: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """RANGE QUERY: all present keys (with multiplicities) in ``[lo, hi]``."""
    return run_subvector(prover, verifier, lo, hi, channel)


def index_query(
    prover: SubVectorProver,
    verifier: TreeHashVerifier,
    q: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """INDEX: the verified value ``a_q`` (0 when the key is absent)."""
    result = run_subvector(prover, verifier, q, q, channel)
    if not result.accepted:
        return result
    answer: SubVectorAnswer = result.value
    value = answer.as_dict().get(q, 0)
    return VerificationResult(
        accepted=True,
        value=value,
        transcript=result.transcript,
        verifier_space_words=result.verifier_space_words,
    )


def dictionary_get(
    prover: SubVectorProver,
    verifier: TreeHashVerifier,
    key: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """DICTIONARY get with the +1 value encoding of Section 4.2."""
    result = index_query(prover, verifier, key, channel)
    if not result.accepted:
        return result
    freq = result.value
    if freq == 0:
        answer = DictionaryAnswer(key=key, found=False, value=None)
    else:
        answer = DictionaryAnswer(key=key, found=True, value=freq - 1)
    return VerificationResult(
        accepted=True,
        value=answer,
        transcript=result.transcript,
        verifier_space_words=result.verifier_space_words,
    )


def _neighbour_query(
    prover: ReportingProver,
    verifier: TreeHashVerifier,
    q: int,
    channel: Optional[Channel],
    below: bool,
) -> VerificationResult:
    """The present key nearest ``q`` on one side: at most q when
    ``below``, at least q otherwise.

    The prover claims q'; SUB-VECTOR over the keys between q' and q then
    proves both that q' is present and that no other key between them
    is.  A "none" claim is checked with SUB-VECTOR over every key on that
    side of q, expecting an empty answer; when no key of the universe
    lies on that side, the claim is accepted without one.
    """
    ch = channel or Channel()
    label = "predecessor" if below else "successor"
    claim_of = prover.claim_predecessor if below else prover.claim_successor
    size = verifier.size
    lo, hi = (0, min(q, size - 1)) if below else (max(q, 0), size - 1)
    claim = read_claim(ch.prover_says(0, "claim", claim_of(q)))
    if claim is None:
        return rejected(ch.transcript, "malformed %s claim" % label)
    found, claimed = claim
    if not found:
        if lo > hi:
            return accepted(ch.transcript, None, verifier.space_words)
        result = run_subvector(prover, verifier, lo, hi, ch)
        if not result.accepted:
            return result
        if result.value.entries:
            return rejected(
                ch.transcript,
                "prover claimed no %s but keys are present" % label,
                result.verifier_space_words,
            )
        return accepted(ch.transcript, None, result.verifier_space_words)
    if not lo <= claimed <= hi:
        return rejected(ch.transcript, "claimed %s out of range" % label)
    if below:
        lo = claimed
    else:
        hi = claimed
    result = run_subvector(prover, verifier, lo, hi, ch)
    if not result.accepted:
        return result
    entries = result.value.entries
    if len(entries) != 1 or entries[0][0] != claimed:
        return rejected(
            ch.transcript,
            "claimed %s %d is not the %s %d"
            % (label, claimed, "largest present key <=" if below
               else "smallest present key >=", q),
            result.verifier_space_words,
        )
    return accepted(ch.transcript, claimed, result.verifier_space_words)


def predecessor_query(
    prover: ReportingProver,
    verifier: TreeHashVerifier,
    q: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """PREDECESSOR: largest present key ``<= q``, or None."""
    return _neighbour_query(prover, verifier, q, channel, below=True)


def successor_query(
    prover: ReportingProver,
    verifier: TreeHashVerifier,
    q: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """SUCCESSOR: smallest present key ``>= q``, or None."""
    return _neighbour_query(prover, verifier, q, channel, below=False)


def counted_range_query(
    prover: SubVectorProver,
    tree_verifier: TreeHashVerifier,
    count_prover,
    count_verifier,
    lo: int,
    hi: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """RANGE QUERY with a pre-verified answer bound (Appendix B.2 remark).

    First verifies the range count S = Σ_{lo..hi} a_i with the RANGE-SUM
    protocol (``count_prover`` a batched engine, ``count_verifier`` a
    :class:`~repro.core.range_sum.RangeSumVerifier`, fed the same
    stream), then runs
    SUB-VECTOR refusing more than S entries — since every reported entry
    has frequency >= 1, the number of distinct entries cannot exceed S.
    This guarantees O(log u + k) communication against any prover.
    """
    from repro.core.range_sum import run_range_sum

    ch = channel or Channel()
    count_result = run_range_sum(count_prover, count_verifier, lo, hi, ch)
    if not count_result.accepted:
        return rejected(
            ch.transcript,
            "range-count pre-check rejected: %s" % count_result.reason,
        )
    bound = count_result.value
    return run_subvector(prover, tree_verifier, lo, hi, ch,
                         max_entries=bound)


def build_reporting_session(
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
) -> Tuple[ReportingProver, TreeHashVerifier]:
    """Feed one stream to a fresh (prover, verifier) pair ready for queries.

    Each returned pair supports *one* verified query; for repeated queries
    with fresh randomness see :mod:`repro.core.multiquery`.
    """
    rng = rng or random.Random(0)
    verifier = TreeHashVerifier(field, stream.u, rng=rng)
    prover = ReportingProver(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return prover, verifier
