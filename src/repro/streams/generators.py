"""Synthetic workload generators for tests, examples and experiments.

The paper's experimental data (Section 5): ``u = n`` with the occurrence
count of each item drawn uniformly from ``[0, 1000]``.  We reproduce that
generator plus Zipf-skewed traffic (for heavy-hitters workloads) and
key-value workloads for the Dynamo-style scenarios of Section 1.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.streams.model import Stream


def uniform_frequency_stream(
    u: int,
    max_frequency: int = 1000,
    rng: Optional[random.Random] = None,
    as_unit_updates: bool = False,
) -> Stream:
    """The Section 5 workload: each key's count uniform in [0, max_frequency].

    With ``as_unit_updates=True`` every occurrence is a separate ``(i, +1)``
    update (the literal streaming view); otherwise a single aggregated
    update per key is produced, which defines the same frequency vector.
    """
    rng = rng or random.Random(0)
    stream = Stream(u)
    for i in range(u):
        f = rng.randint(0, max_frequency)
        if f == 0:
            continue
        if as_unit_updates:
            for _ in range(f):
                stream.append(i, 1)
        else:
            stream.append(i, f)
    return stream


def zipf_stream(
    u: int,
    n: int,
    skew: float = 1.1,
    rng: Optional[random.Random] = None,
) -> Stream:
    """``n`` unit updates with Zipf(skew)-distributed keys over ``[u]``.

    Produces the heavy-tailed workloads used for the heavy-hitters and
    frequency-based extension experiments (Section 6).
    """
    if skew <= 0:
        raise ValueError("Zipf skew must be positive")
    rng = rng or random.Random(0)
    # Inverse-CDF sampling over the truncated Zipf distribution.
    weights = [1.0 / (rank**skew) for rank in range(1, u + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    # Random rank -> random key, so the heavy keys are scattered in [u].
    keys = list(range(u))
    rng.shuffle(keys)
    stream = Stream(u)
    for _ in range(n):
        x = rng.random()
        lo, hi = 0, u - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        stream.append(keys[lo], 1)
    return stream


def sparse_stream(
    u: int,
    num_keys: int,
    max_frequency: int = 1000,
    rng: Optional[random.Random] = None,
) -> Stream:
    """``num_keys`` distinct random keys with uniform random counts."""
    rng = rng or random.Random(0)
    if num_keys > u:
        raise ValueError("cannot place %d distinct keys in [%d]" % (num_keys, u))
    keys = rng.sample(range(u), num_keys)
    stream = Stream(u)
    for i in keys:
        stream.append(i, rng.randint(1, max_frequency))
    return stream


def turnstile_stream(
    u: int,
    n: int,
    max_abs_delta: int = 5,
    rng: Optional[random.Random] = None,
) -> Stream:
    """Mixed insert/delete updates (turnstile model), nonzero deltas."""
    rng = rng or random.Random(0)
    stream = Stream(u)
    for _ in range(n):
        delta = 0
        while delta == 0:
            delta = rng.randint(-max_abs_delta, max_abs_delta)
        stream.append(rng.randrange(u), delta)
    return stream


def key_value_pairs(
    u: int,
    num_pairs: int,
    rng: Optional[random.Random] = None,
) -> List[Tuple[int, int]]:
    """Distinct-key (key, value) pairs with keys and values in ``[u]``.

    This is the DICTIONARY / RANGE-SUM input model: all keys distinct,
    values drawn from the same universe.
    """
    rng = rng or random.Random(0)
    if num_pairs > u:
        raise ValueError("cannot draw %d distinct keys from [%d]" % (num_pairs, u))
    keys = rng.sample(range(u), num_pairs)
    return [(k, rng.randrange(u)) for k in keys]


def paired_streams_for_join(
    u: int,
    n_each: int,
    overlap: float = 0.5,
    rng: Optional[random.Random] = None,
) -> Tuple[Stream, Stream]:
    """Two streams whose key sets overlap by roughly ``overlap`` — the
    INNER PRODUCT (join size) workload."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    rng = rng or random.Random(0)
    a = Stream(u)
    b = Stream(u)
    shared = int(n_each * overlap)
    shared_keys = rng.sample(range(u), min(shared, u))
    for k in shared_keys:
        a.append(k, rng.randint(1, 10))
        b.append(k, rng.randint(1, 10))
    for _ in range(n_each - len(shared_keys)):
        a.append(rng.randrange(u), rng.randint(1, 10))
        b.append(rng.randrange(u), rng.randint(1, 10))
    return a, b
