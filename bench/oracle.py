"""Naive O(u) answers, recomputed from the generated stream.

Shares no code with ``repro``: the frequency vectors are folded from the
update pairs with plain integer arithmetic and every answer is read off
them directly.  The runner compares each verified value with
:meth:`Oracle.answer`; a mismatch is a failed operation.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

# Query kinds as they appear on the wire (QueryDescriptor.kind).
POINT_LOOKUP, RANGE_SCAN, RANGE_SUM, F2, FK, INNER_PRODUCT, HEAVY_HITTERS = \
    1, 2, 3, 4, 5, 6, 7


def fold(u: int, pairs: Sequence[Tuple[int, int]]) -> List[int]:
    freq = [0] * u
    for key, delta in pairs:
        freq[key] += delta
    return freq


class Oracle:
    """The true answers for one dataset (vectors ``a`` and ``b``)."""

    def __init__(self, u: int, pairs_a, pairs_b, p: int):
        self.p = p
        self.a = fold(u, pairs_a)
        self.b = fold(u, pairs_b)
        self.prefix = [0]
        for f in self.a:
            self.prefix.append(self.prefix[-1] + f)
        self._answers = {}

    def answer(self, kind: int, params: Sequence[int]):
        key = (kind, tuple(params))
        if key not in self._answers:
            self._answers[key] = self._compute(kind, params)
        return self._answers[key]

    def _compute(self, kind: int, params: Sequence[int]):
        a, p = self.a, self.p
        if kind == POINT_LOOKUP:
            return a[params[0]] % p
        if kind == RANGE_SCAN:
            lo, hi = params
            return tuple((i, a[i] % p) for i in range(lo, hi + 1) if a[i])
        if kind == RANGE_SUM:
            lo, hi = params
            return (self.prefix[hi + 1] - self.prefix[lo]) % p
        if kind == F2:
            return sum(f * f for f in a) % p
        if kind == FK:
            return sum(f ** params[0] for f in a) % p
        if kind == INNER_PRODUCT:
            return sum(x * y for x, y in zip(a, self.b)) % p
        if kind == HEAVY_HITTERS:
            num, den = params
            tau = max(1, math.ceil(num / den * self.prefix[-1]))
            return {i: f for i, f in enumerate(a) if f >= tau}
        raise ValueError("no oracle for query kind %r" % (kind,))

    def matches(self, kind: int, params: Sequence[int], value) -> bool:
        if kind == RANGE_SCAN:
            value = tuple(value.entries)
        return value == self.answer(kind, params)
