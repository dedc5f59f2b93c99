"""Tests for repro.comm.fingerprint."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.fingerprint import (
    SequenceFingerprint,
    StreamFingerprint,
    fingerprint_words,
)
from repro.field.modular import DEFAULT_FIELD

F = DEFAULT_FIELD

words = st.lists(st.integers(min_value=0, max_value=F.p - 1), max_size=30)


@given(words)
def test_incremental_matches_one_shot(ws):
    z = 123456789
    fp = SequenceFingerprint(F, z=z)
    fp.absorb_all(ws)
    assert fp.value == fingerprint_words(F, z, ws)
    assert fp.length == len(ws)


@given(words)
def test_fingerprint_is_polynomial_in_z(ws):
    z = 987654321
    expected = sum(w * pow(z, k + 1, F.p) for k, w in enumerate(ws)) % F.p
    assert fingerprint_words(F, z, ws) == expected


@given(words, words)
def test_distinct_sequences_distinct_fingerprints(a, b):
    """Collisions need z to hit a polynomial root: astronomically unlikely
    at random z over p = 2^61 - 1 — assert none occur for a fixed random
    key.  Trailing zeros are not encoded (the difference polynomial is
    identically zero), so protocols compare lengths separately; strip them
    here to state the exact guarantee."""
    while a and a[-1] == 0:
        a = a[:-1]
    while b and b[-1] == 0:
        b = b[:-1]
    if a == b:
        return
    z = random.Random(42).randrange(1, F.p)
    assert fingerprint_words(F, z, a) != fingerprint_words(F, z, b)


def test_sequence_order_matters():
    z = 5
    assert fingerprint_words(F, z, [1, 2]) != fingerprint_words(F, z, [2, 1])


def test_requires_key_or_rng():
    with pytest.raises(ValueError):
        SequenceFingerprint(F)
    fp = SequenceFingerprint(F, rng=random.Random(1))
    assert 0 <= fp.z < F.p


def test_space_words_constant():
    fp = SequenceFingerprint(F, z=3)
    fp.absorb_all(range(100))
    assert fp.space_words == 3


# -- StreamFingerprint (the [28] synopsis) -------------------------------------


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=-9, max_value=9)),
                max_size=40))
def test_stream_fingerprint_linear_in_updates(updates):
    sf = StreamFingerprint(F, 32, z=424242)
    a = [0] * 32
    for i, d in updates:
        sf.update(i, d)
        a[i] += d
    entries = [(i, v % F.p) for i, v in enumerate(a) if v % F.p]
    assert sf.matches_claimed_vector(entries)


def test_stream_fingerprint_rejects_wrong_vector():
    sf = StreamFingerprint(F, 16, z=77)
    sf.update(3, 5)
    assert sf.matches_claimed_vector([(3, 5)])
    assert not sf.matches_claimed_vector([(3, 6)])
    assert not sf.matches_claimed_vector([(4, 5)])
    assert not sf.matches_claimed_vector([])
    assert not sf.matches_claimed_vector([(16, 5)])  # out of universe


def test_stream_fingerprint_deletion_cancels():
    sf = StreamFingerprint(F, 16, z=88)
    sf.update(5, 2)
    sf.update(5, -2)
    assert sf.matches_claimed_vector([])


def test_stream_fingerprint_universe_check():
    sf = StreamFingerprint(F, 8, z=9)
    with pytest.raises(ValueError):
        sf.update(8, 1)


def test_stream_fingerprint_space():
    assert StreamFingerprint(F, 1 << 30, z=3).space_words == 2
