"""Prior-work baselines: the two trivial protocols and the [28] synopsis.

The paper's cost landscape for INDEX-hard problems (Section 1):

* ``(n, 1)`` — the verifier simply stores everything and answers itself
  (:class:`LocalStateVerifier`); no prover needed, linear space.
* ``(1, n)`` — the verifier keeps a constant-size fingerprint and the
  prover ships the entire (nonzero part of the) data back at query time
  (:func:`ship_and_verify`); this is the "small synopses for group-by
  verification" approach of Yi et al. [28].
* ``(√u, √u)`` — Chakrabarti et al. [6] (``repro.core.single_round``).
* ``(log u, log u)`` — this paper (``repro.core.f2`` and friends).

These exist so the tests can place the paper's protocols on that
landscape with measured numbers (``tests/test_baselines.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.comm.channel import Channel
from repro.comm.fingerprint import StreamFingerprint
from repro.core.base import VerificationResult, accepted, rejected
from repro.field.modular import PrimeField


class LocalStateVerifier:
    """The (n, 1) non-protocol: the verifier is its own prover.

    Space Θ(#distinct keys); zero communication; no soundness question
    because nothing is delegated.  The baseline every protocol is trying
    to beat on space.
    """

    def __init__(self, u: int):
        self.u = u
        self.freq: Dict[int, int] = {}

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

    def self_join_size(self) -> int:
        return sum(f * f for f in self.freq.values())

    def range_sum(self, lo: int, hi: int) -> int:
        return sum(f for i, f in self.freq.items() if lo <= i <= hi)

    @property
    def space_words(self) -> int:
        return 2 * len(self.freq)  # key + count per entry


class ShipAnswerProver:
    """The (1, n) prover: stores the data, ships it all back on query."""

    def __init__(self, field: PrimeField, u: int):
        self.field = field
        self.u = u
        self.freq: Dict[int, int] = {}

    def process(self, i: int, delta: int) -> None:
        value = self.freq.get(i, 0) + delta
        if value:
            self.freq[i] = value
        else:
            self.freq.pop(i, None)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def claimed_vector(self) -> List[Tuple[int, int]]:
        p = self.field.p
        return sorted(
            (i, f % p) for i, f in self.freq.items() if f % p
        )


@dataclass
class ShipAnswerVerifier:
    """The (1, n) verifier: a 2-word streamed fingerprint of the vector."""

    field: PrimeField
    u: int

    def __post_init__(self):
        self._fingerprint: Optional[StreamFingerprint] = None

    def init_randomness(self, rng: random.Random) -> None:
        self._fingerprint = StreamFingerprint(self.field, self.u, rng=rng)

    def process(self, i: int, delta: int) -> None:
        if self._fingerprint is None:
            raise RuntimeError("init_randomness() must be called first")
        self._fingerprint.update(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    def check(self, entries) -> bool:
        if self._fingerprint is None:
            raise RuntimeError("init_randomness() must be called first")
        return self._fingerprint.matches_claimed_vector(entries)

    @property
    def space_words(self) -> int:
        return 2


def ship_and_verify(
    prover: ShipAnswerProver,
    verifier: ShipAnswerVerifier,
    compute: Callable[[List[Tuple[int, int]]], int],
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the (1, n) protocol: the prover ships its sparse frequency
    vector; the verifier fingerprint-checks it (error ≤ u/p) and then
    computes ``compute(entries)`` locally on the now-trusted data."""
    ch = channel or Channel()
    raw = ch.prover_says(
        0, "vector", [w for pair in prover.claimed_vector() for w in pair]
    )
    if len(raw) % 2 != 0:
        return rejected(ch.transcript, "malformed shipped vector",
                        verifier.space_words)
    entries = [(raw[t], raw[t + 1]) for t in range(0, len(raw), 2)]
    keys = [k for k, _ in entries]
    if keys != sorted(set(keys)):
        return rejected(ch.transcript, "shipped keys not sorted/unique",
                        verifier.space_words)
    if not verifier.check(entries):
        return rejected(
            ch.transcript,
            "fingerprint mismatch: shipped vector is not the stream's",
            verifier.space_words,
        )
    return accepted(ch.transcript, compute(entries), verifier.space_words)


def ship_and_verify_f2(
    stream,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end (1, n) F2: fingerprint-verified shipped vector."""
    rng = rng or random.Random(0)
    verifier = ShipAnswerVerifier(field, stream.u)
    verifier.init_randomness(rng)
    prover = ShipAnswerProver(field, stream.u)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return ship_and_verify(
        prover,
        verifier,
        lambda entries: sum(v * v for _, v in entries) % field.p,
        channel,
    )
