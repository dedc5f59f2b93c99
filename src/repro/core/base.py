"""Shared types for the streaming interactive proof protocols.

Every protocol in :mod:`repro.core` follows the Definition 1 shape:

1. the verifier draws secret randomness *before* the stream;
2. both parties observe the same stream; the verifier keeps O(log u) words;
3. after the stream a short conversation is run over a
   :class:`repro.comm.Channel`;
4. the verifier outputs either the function value or ⊥ (modelled as a
   result object with ``accepted=False`` and a human-readable reason).

A structurally malformed message (wrong length, out-of-range key, ...)
results in rejection, never an exception: a cheating prover must not be
able to crash the verifier.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Optional

from repro.comm.transcript import Transcript


@dataclass
class VerificationResult:
    """Outcome of one protocol run.

    ``accepted`` is True iff every check passed; ``value`` is the verified
    answer (meaningful only when accepted); ``reason`` explains a
    rejection; ``transcript`` carries the (s, t) accounting; and
    ``verifier_space_words`` is the verifier's peak persistent storage in
    words.
    """

    accepted: bool
    value: Any
    transcript: Transcript
    reason: Optional[str] = None
    verifier_space_words: int = 0

    def __bool__(self) -> bool:
        return self.accepted


def rejected(
    transcript: Transcript, reason: str, space_words: int = 0
) -> VerificationResult:
    return VerificationResult(
        accepted=False,
        value=None,
        transcript=transcript,
        reason=reason,
        verifier_space_words=space_words,
    )


def accepted(
    transcript: Transcript, value: Any, space_words: int = 0
) -> VerificationResult:
    return VerificationResult(
        accepted=True,
        value=value,
        transcript=transcript,
        reason=None,
        verifier_space_words=space_words,
    )


def pow2_dimension(u: int) -> int:
    """Smallest d with 2^d >= u (and at least 1)."""
    if u < 1:
        raise ValueError("universe size must be positive, got %r" % (u,))
    d = 0
    while (1 << d) < u:
        d += 1
    return max(d, 1)


def check_range(lo: int, hi: int, size: int) -> None:
    """Raise ``ValueError`` unless ``[lo, hi]`` is a key range of a
    ``size``-key universe — every range, scan and lookup query's domain
    (a lookup is ``[q, q]``)."""
    if not 0 <= lo <= hi < size:
        raise ValueError("query range [%d, %d] invalid" % (lo, hi))


def add_update(vector, u: int, i: int, delta: int) -> None:
    """``vector[i] += delta`` for a key of [0, u).  A mapping drops a key
    whose count comes to 0, so it holds only the live support."""
    if not 0 <= i < u:
        raise ValueError("key %d outside universe [0, %d)" % (i, u))
    vector[i] += delta
    if not vector[i] and isinstance(vector, Mapping):
        del vector[i]
