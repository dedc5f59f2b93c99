"""k-LARGEST — Section 6.1.

Find the largest key p present in the stream such that at least k-1
larger keys are also present.  The prover claims the location j of the
k-th largest key; the verifier runs the range-query (SUB-VECTOR) protocol
on ``[j, u-1]`` and checks that exactly k distinct keys are present there
and that j itself is one of them.  Cost (log u, k + log u).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, rejected
from repro.core.reporting import read_claim
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import PrimeField


def check_rank(k: int) -> None:
    """Raise ``ValueError`` unless ``k`` is a rank (k >= 1)."""
    if k < 1:
        raise ValueError("rank k = %d invalid, must be >= 1" % k)


class KLargestProver(SubVectorProver):
    """SUB-VECTOR prover that can claim the k-th largest present key."""

    def claim_kth_largest(self, k: int):
        descending = self.present(range(self.size - 1, -1, -1))
        for found, (key, _) in enumerate(descending, 1):
            if found == k:
                return (1, key)
        return (0, 0)


def k_largest_query(
    prover: KLargestProver,
    verifier: TreeHashVerifier,
    k: int,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Verified k-th largest present key (value None when < k keys exist)."""
    check_rank(k)
    ch = channel or Channel()
    claim = read_claim(ch.prover_says(0, "claim", prover.claim_kth_largest(k)))
    if claim is None:
        return rejected(ch.transcript, "malformed k-largest claim")
    found, claimed = claim
    hi = verifier.size - 1
    if not found:
        # Claim: fewer than k distinct keys in the whole universe.  Verify
        # with a full-range sub-vector (expensive in communication but
        # sound; used only in this degenerate case).
        result = run_subvector(prover, verifier, 0, hi, ch)
        if not result.accepted:
            return result
        if len(result.value.entries) >= k:
            return rejected(
                ch.transcript,
                "prover claimed < %d keys but %d are present"
                % (k, len(result.value.entries)),
                result.verifier_space_words,
            )
        return VerificationResult(
            accepted=True,
            value=None,
            transcript=ch.transcript,
            verifier_space_words=result.verifier_space_words,
        )
    if not 0 <= claimed <= hi:
        return rejected(ch.transcript, "claimed location out of range")
    result = run_subvector(prover, verifier, claimed, hi, ch)
    if not result.accepted:
        return result
    entries = result.value.entries
    if len(entries) != k or entries[0][0] != claimed:
        return rejected(
            ch.transcript,
            "range [%d, %d] does not contain exactly %d keys starting at the claim"
            % (claimed, hi, k),
            result.verifier_space_words,
        )
    return VerificationResult(
        accepted=True,
        value=claimed,
        transcript=ch.transcript,
        verifier_space_words=result.verifier_space_words,
    )


def k_largest_protocol(
    stream,
    k: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end k-largest over a strict :class:`repro.streams.Stream`."""
    rng = rng or random.Random(0)
    verifier = TreeHashVerifier(field, stream.u, rng=rng)
    prover = KLargestProver(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return k_largest_query(prover, verifier, k, channel)
