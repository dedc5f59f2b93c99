"""Tests for the reporting queries (Section 4.2, Corollary 1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.k_largest import KLargestProver, k_largest_query
from repro.core.reporting import (
    ReportingProver,
    build_reporting_session,
    dictionary_get,
    index_query,
    predecessor_query,
    range_query,
    successor_query,
)
from repro.core.subvector import TreeHashVerifier
from repro.field.modular import DEFAULT_FIELD
from repro.streams.kvstore import OutsourcedKVStore
from repro.streams.model import Stream

F = DEFAULT_FIELD


def session(stream, seed=0):
    return build_reporting_session(stream, F, rng=random.Random(seed))


# -- INDEX ---------------------------------------------------------------------


def test_index_present_key():
    stream = Stream(32, [(7, 3)])
    prover, verifier = session(stream)
    result = index_query(prover, verifier, 7)
    assert result.accepted and result.value == 3


def test_index_absent_key_is_zero():
    stream = Stream(32, [(7, 3)])
    prover, verifier = session(stream)
    result = index_query(prover, verifier, 8)
    assert result.accepted and result.value == 0


def test_index_bit_semantics():
    """INDEX over a bit stream: the problem as defined in Section 1.1."""
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    stream = Stream.from_items(8, [i for i, b in enumerate(bits) if b])
    for q, expected in enumerate(bits):
        prover, verifier = session(stream, seed=q)
        result = index_query(prover, verifier, q)
        assert result.accepted and result.value == expected


def test_index_lying_prover_rejected():
    stream = Stream(32, [(7, 3)])
    prover, verifier = session(stream)
    prover.freq[7] = 4
    assert not index_query(prover, verifier, 7).accepted


# -- DICTIONARY -----------------------------------------------------------------


def test_dictionary_found_and_not_found():
    store = OutsourcedKVStore(64)
    store.put_many([(5, 0), (9, 41)])
    prover, verifier = session(store.stream)
    result = dictionary_get(prover, verifier, 9)
    assert result.accepted
    assert result.value.found and result.value.value == 41


def test_dictionary_value_zero_distinguished_from_absent():
    """The +1 encoding: stored value 0 is 'found', absent is 'not found'."""
    store = OutsourcedKVStore(64)
    store.put(5, 0)
    prover, verifier = session(store.stream, seed=1)
    found = dictionary_get(prover, verifier, 5)
    assert found.accepted and found.value.found and found.value.value == 0

    prover, verifier = session(store.stream, seed=2)
    absent = dictionary_get(prover, verifier, 6)
    assert absent.accepted and not absent.value.found
    assert absent.value.value is None


def test_dictionary_lying_value_rejected():
    store = OutsourcedKVStore(64)
    store.put(5, 10)
    prover, verifier = session(store.stream, seed=3)
    prover.freq[5] = 99
    assert not dictionary_get(prover, verifier, 5).accepted


# -- PREDECESSOR / SUCCESSOR ------------------------------------------------------


@given(st.sets(st.integers(min_value=0, max_value=63), min_size=1,
               max_size=15),
       st.integers(min_value=0, max_value=63))
def test_predecessor_random(keys, q):
    stream = Stream.from_items(64, sorted(keys))
    prover, verifier = session(stream, seed=q)
    result = predecessor_query(prover, verifier, q)
    assert result.accepted
    expected = max((k for k in keys if k <= q), default=None)
    assert result.value == expected


@given(st.sets(st.integers(min_value=0, max_value=63), min_size=1,
               max_size=15),
       st.integers(min_value=0, max_value=63))
def test_successor_random(keys, q):
    stream = Stream.from_items(64, sorted(keys))
    prover, verifier = session(stream, seed=q + 1000)
    result = successor_query(prover, verifier, q)
    assert result.accepted
    expected = min((k for k in keys if k >= q), default=None)
    assert result.value == expected


def test_predecessor_exact_hit():
    stream = Stream.from_items(32, [10, 20])
    prover, verifier = session(stream)
    result = predecessor_query(prover, verifier, 20)
    assert result.accepted and result.value == 20


def test_predecessor_none():
    stream = Stream.from_items(32, [10])
    prover, verifier = session(stream)
    result = predecessor_query(prover, verifier, 5)
    assert result.accepted and result.value is None


def test_predecessor_lying_claim_too_low_rejected():
    """Claiming a too-small predecessor exposes the real key in the range."""
    stream = Stream.from_items(64, [10, 20])
    prover, verifier = session(stream)
    prover.claim_predecessor = lambda q: (1, 10)  # truth would be 20
    result = predecessor_query(prover, verifier, 25)
    assert not result.accepted


def test_predecessor_lying_claim_absent_key_rejected():
    """Claiming an absent key fails because a_q' = 0 in the sub-vector."""
    stream = Stream.from_items(64, [10])
    prover, verifier = session(stream)
    prover.claim_predecessor = lambda q: (1, 15)
    result = predecessor_query(prover, verifier, 25)
    assert not result.accepted


def test_predecessor_false_none_claim_rejected():
    stream = Stream.from_items(64, [10])
    prover, verifier = session(stream)
    prover.claim_predecessor = lambda q: (0, 0)
    result = predecessor_query(prover, verifier, 25)
    assert not result.accepted


@pytest.mark.parametrize("query, method, q, claim", [
    (predecessor_query, "claim_predecessor", 25, (2, 20)),  # truth (1, 20)
    (successor_query, "claim_successor", 15, (2, 20)),      # truth (1, 20)
    (predecessor_query, "claim_predecessor", 5, (0, 7)),    # truth (0, 0)
    (k_largest_query, "claim_kth_largest", 1, (2, 20)),     # truth (1, 20)
])
def test_non_canonical_claim_rejected(query, method, q, claim):
    """A claim flag is 0 or 1, and a "none" claim carries key 0: any
    other word pair would let two transcripts carry one answer."""
    stream = Stream.from_items(64, [10, 20])
    verifier = TreeHashVerifier(F, 64, rng=random.Random(0))
    cls = KLargestProver if query is k_largest_query else ReportingProver
    prover = cls(F, 64)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    honest = getattr(prover, method)(q)
    assert honest != claim and honest[0] == min(claim[0], 1)
    setattr(prover, method, lambda _q: claim)
    assert not query(prover, verifier, q).accepted


@pytest.mark.parametrize("q", [-1, 16, 20])  # -1, size, size + 4
def test_neighbours_at_the_edges_of_the_universe(q):
    """A query point outside [0, size) still has an answer: "none" on the
    side no key can lie on, the nearest key on the other."""
    keys = [3, 9]
    stream = Stream.from_items(16, keys)
    prover, verifier = session(stream)
    result = predecessor_query(prover, verifier, q)
    assert result.accepted, result.reason
    assert result.value == max((k for k in keys if k <= q), default=None)
    prover, verifier = session(stream, seed=1)
    result = successor_query(prover, verifier, q)
    assert result.accepted, result.reason
    assert result.value == min((k for k in keys if k >= q), default=None)


@pytest.mark.parametrize("query, method, q", [
    (predecessor_query, "claim_predecessor", -1),
    (successor_query, "claim_successor", 16),
])
def test_found_claim_beyond_the_universe_rejected(query, method, q):
    stream = Stream.from_items(16, [3, 9])
    prover, verifier = session(stream)
    setattr(prover, method, lambda _q: (1, 9))
    result = query(prover, verifier, q)
    assert not result.accepted and "out of range" in result.reason


def test_successor_lying_rejected():
    stream = Stream.from_items(64, [10, 20])
    prover, verifier = session(stream)
    prover.claim_successor = lambda q: (1, 20)  # truth is 10
    result = successor_query(prover, verifier, 5)
    assert not result.accepted


def test_predecessor_communication_logarithmic():
    """k = 1 nonzero entry: cost stays O(log u) despite the wide range."""
    u = 1 << 12
    stream = Stream.from_items(u, [0, 100])
    prover, verifier = session(stream)
    result = predecessor_query(prover, verifier, u - 1)
    assert result.accepted and result.value == 100
    assert result.transcript.total_words <= 2 + 2 + 11 + 2 * 2 + 4 * 12


# -- RANGE QUERY --------------------------------------------------------------------


def test_range_query_matches_oracle():
    stream = Stream.from_items(64, [3, 3, 8, 20, 40])
    prover, verifier = session(stream)
    result = range_query(prover, verifier, 3, 30)
    assert result.accepted
    assert result.value.as_dict() == {3: 2, 8: 1, 20: 1}


def test_range_query_kv_store_scan():
    store = OutsourcedKVStore(128)
    store.put_many([(10, 3), (11, 0), (64, 9)])
    prover, verifier = session(store.stream)
    result = range_query(prover, verifier, 10, 20)
    assert result.accepted
    # Decode the +1 shift back to stored values.
    decoded = {k: v - 1 for k, v in result.value.entries}
    assert decoded == {10: 3, 11: 0}


def test_reporting_prover_claims():
    prover = ReportingProver(F, 16)
    prover.process_stream([(3, 1), (9, 2)])
    assert prover.claim_predecessor(8) == (1, 3)
    assert prover.claim_predecessor(2) == (0, 0)
    assert prover.claim_successor(4) == (1, 9)
    assert prover.claim_successor(10) == (0, 0)


def test_session_builder_feeds_both_parties():
    stream = Stream.from_items(32, [5])
    prover, verifier = session(stream)
    assert isinstance(verifier, TreeHashVerifier)
    assert prover.freq[5] == 1
    assert verifier.root != 0
