"""Tests for repro.streams.generators (synthetic workloads)."""

from __future__ import annotations

import random

import pytest

from repro.streams.generators import (
    key_value_pairs,
    paired_streams_for_join,
    sparse_stream,
    turnstile_stream,
    uniform_frequency_stream,
    zipf_stream,
)


def test_uniform_frequency_bounds():
    s = uniform_frequency_stream(100, max_frequency=10, rng=random.Random(1))
    assert s.u == 100
    assert all(0 <= f <= 10 for f in s.frequency_vector())


def test_uniform_frequency_deterministic_given_seed():
    a = uniform_frequency_stream(50, rng=random.Random(9))
    b = uniform_frequency_stream(50, rng=random.Random(9))
    assert list(a) == list(b)


def test_uniform_frequency_unit_updates_same_vector():
    agg = uniform_frequency_stream(30, max_frequency=5, rng=random.Random(2))
    unit = uniform_frequency_stream(30, max_frequency=5, rng=random.Random(2),
                                    as_unit_updates=True)
    assert agg.frequency_vector() == unit.frequency_vector()
    assert all(delta == 1 for _, delta in unit)


def test_zipf_stream_total_and_skew():
    s = zipf_stream(64, 2000, skew=1.3, rng=random.Random(3))
    freqs = sorted(s.frequency_vector(), reverse=True)
    assert sum(freqs) == 2000
    # Heavy-tailed: the top key dominates the median key.
    assert freqs[0] > 10 * max(freqs[32], 1)


def test_zipf_requires_positive_skew():
    with pytest.raises(ValueError):
        zipf_stream(16, 10, skew=0)


def test_sparse_stream_key_count():
    s = sparse_stream(1000, 25, rng=random.Random(4))
    assert s.stats().num_nonzero == 25


def test_sparse_stream_too_many_keys():
    with pytest.raises(ValueError):
        sparse_stream(10, 11)


def test_turnstile_stream_mixed_signs():
    s = turnstile_stream(32, 200, rng=random.Random(5))
    deltas = [d for _, d in s]
    assert len(deltas) == 200
    assert any(d > 0 for d in deltas) and any(d < 0 for d in deltas)
    assert all(d != 0 for d in deltas)


def test_key_value_pairs_distinct_keys():
    pairs = key_value_pairs(100, 40, rng=random.Random(6))
    keys = [k for k, _ in pairs]
    assert len(set(keys)) == 40
    assert all(0 <= k < 100 and 0 <= v < 100 for k, v in pairs)


def test_key_value_pairs_overflow():
    with pytest.raises(ValueError):
        key_value_pairs(5, 6)


def test_paired_streams_overlap():
    a, b = paired_streams_for_join(256, 100, overlap=1.0,
                                   rng=random.Random(7))
    assert a.inner_product(b) > 0
    a2, b2 = paired_streams_for_join(1 << 14, 50, overlap=0.0,
                                     rng=random.Random(8))
    # Disjointly sampled keys over a large universe: overlap unlikely but
    # possible; just check both streams are populated.
    assert len(a2) == 50 and len(b2) == 50


def test_paired_streams_overlap_validation():
    with pytest.raises(ValueError):
        paired_streams_for_join(16, 4, overlap=1.5)


