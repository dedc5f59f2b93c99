"""The input model of Section 2.

A stream is a sequence of updates ``(i, δ)`` over a universe ``[u]``; the
implicit state is the frequency vector ``a`` with ``a_i`` the sum of the
deltas for key ``i``.  Positive and negative deltas are both allowed
(turnstile semantics); reporting queries additionally assume the final
frequencies are non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

Update = Tuple[int, int]


class UniverseError(ValueError):
    """A key fell outside the declared universe ``[0, u)``."""


@dataclass(frozen=True)
class StreamStats:
    """Summary statistics of a stream (used by experiment reports)."""

    universe_size: int
    num_updates: int
    num_nonzero: int
    total_mass: int  # sum of final frequencies

    @property
    def density(self) -> float:
        return self.num_nonzero / self.universe_size if self.universe_size else 0.0


class Stream:
    """A materialised update stream over universe ``[0, u)``.

    The verifier never stores one of these — it observes ``updates()``
    once.  The (honest) prover and the test oracles do store it.
    """

    def __init__(self, u: int, updates: Iterable[Update] = ()):
        if u < 1:
            raise UniverseError("universe size must be positive, got %r" % (u,))
        self.u = u
        self._updates: List[Update] = []
        for i, delta in updates:
            self.append(i, delta)

    # -- construction -----------------------------------------------------

    def append(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise UniverseError("key %d outside universe [0, %d)" % (i, self.u))
        self._updates.append((i, delta))

    @classmethod
    def from_items(cls, u: int, items: Iterable[int]) -> "Stream":
        """Each item ``i`` becomes the unit update ``(i, +1)``."""
        return cls(u, ((i, 1) for i in items))

    @classmethod
    def from_frequency_vector(cls, freqs: Sequence[int]) -> "Stream":
        """One update per nonzero entry; universe is ``len(freqs)``."""
        return cls(
            len(freqs),
            ((i, f) for i, f in enumerate(freqs) if f != 0),
        )

    # -- observation --------------------------------------------------------

    def updates(self) -> Iterator[Update]:
        return iter(self._updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    # -- oracles (linear space; for provers and tests only) ------------------

    def frequency_vector(self) -> List[int]:
        a = [0] * self.u
        for i, delta in self._updates:
            a[i] += delta
        return a

    def sparse_frequencies(self) -> Dict[int, int]:
        a: Dict[int, int] = {}
        for i, delta in self._updates:
            a[i] = a.get(i, 0) + delta
            if a[i] == 0:
                del a[i]
        return a

    def stats(self) -> StreamStats:
        sparse = self.sparse_frequencies()
        return StreamStats(
            universe_size=self.u,
            num_updates=len(self._updates),
            num_nonzero=len(sparse),
            total_mass=sum(sparse.values()),
        )

    # -- exact reference answers (the "ground truth" for every protocol) ----

    def self_join_size(self) -> int:
        return sum(f * f for f in self.sparse_frequencies().values())

    def frequency_moment(self, k: int) -> int:
        if k < 0:
            raise ValueError("moment order must be non-negative")
        return sum(f**k for f in self.sparse_frequencies().values())

    def inner_product(self, other: "Stream") -> int:
        if other.u != self.u:
            raise UniverseError("inner product of streams over different universes")
        mine = self.sparse_frequencies()
        theirs = other.sparse_frequencies()
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        return sum(f * theirs.get(i, 0) for i, f in mine.items())

    def range_sum(self, lo: int, hi: int) -> int:
        return sum(
            f for i, f in self.sparse_frequencies().items() if lo <= i <= hi
        )

    def range_entries(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Sorted nonzero ``(key, frequency)`` pairs in ``[lo, hi]``."""
        return sorted(
            (i, f)
            for i, f in self.sparse_frequencies().items()
            if lo <= i <= hi
        )

    def predecessor(self, q: int) -> int:
        """Largest present key ``<= q``; raises LookupError when none."""
        best = -1
        for i, f in self.sparse_frequencies().items():
            if f != 0 and i <= q and i > best:
                best = i
        if best < 0:
            raise LookupError("no key <= %d present in the stream" % q)
        return best

    def successor(self, q: int) -> int:
        """Smallest present key ``>= q``; raises LookupError when none."""
        best = self.u
        for i, f in self.sparse_frequencies().items():
            if f != 0 and i >= q and i < best:
                best = i
        if best >= self.u:
            raise LookupError("no key >= %d present in the stream" % q)
        return best

    def heavy_hitters(self, phi: float) -> Dict[int, int]:
        """Keys with frequency >= phi * n where n is the total mass."""
        n = sum(self.sparse_frequencies().values())
        threshold = phi * n
        return {
            i: f
            for i, f in self.sparse_frequencies().items()
            if f >= threshold
        }

    def distinct_count(self) -> int:
        return sum(1 for f in self.sparse_frequencies().values() if f != 0)

    def max_frequency(self) -> int:
        sparse = self.sparse_frequencies()
        return max(sparse.values()) if sparse else 0

    def inverse_distribution_point(self, k: int) -> int:
        """Number of keys with frequency exactly ``k > 0``."""
        if k <= 0:
            raise ValueError("inverse-distribution point must be positive")
        return sum(1 for f in self.sparse_frequencies().values() if f == k)
