"""Tests for the heavy-hitters protocol (Section 6.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.heavy_hitters import (
    HeavyHittersProver,
    HeavyHittersVerifier,
    heavy_hitters_protocol,
    heavy_threshold,
    run_heavy_hitters,
)
from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import HAVE_NUMPY, get_backend, indices_within
from repro.streams.generators import zipf_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD
BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])


def run_on(stream, phi, seed=0, channel=None):
    verifier = HeavyHittersVerifier(F, stream.u, phi, rng=random.Random(seed))
    prover = HeavyHittersProver(F, stream.u, phi)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_heavy_hitters(prover, verifier, channel)


def test_heavy_threshold():
    assert heavy_threshold(0.1, 100) == 10
    assert heavy_threshold(0.5, 3) == 2
    assert heavy_threshold(0.001, 10) == 1
    assert heavy_threshold(1.0, 0) == 1
    with pytest.raises(ValueError):
        heavy_threshold(0.0, 10)
    with pytest.raises(ValueError):
        heavy_threshold(1.5, 10)


def test_known_heavy_hitters():
    stream = Stream.from_items(16, [3] * 50 + [9] * 30 + [1] * 5)
    result = run_on(stream, 0.25)
    assert result.accepted
    assert result.value == {3: 50, 9: 30}


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=1, max_value=15)),
                min_size=1, max_size=25))
def test_completeness_random_strict_streams(updates):
    stream = Stream(32, updates)
    result = run_on(stream, 0.2)
    assert result.accepted
    assert result.value == stream.heavy_hitters(0.2)


def test_no_heavy_hitters_case():
    stream = Stream.from_items(64, list(range(64)))
    result = run_on(stream, 0.5)
    assert result.accepted
    assert result.value == {}


def test_everything_heavy_case():
    stream = Stream(4, [(i, 10) for i in range(4)])
    result = run_on(stream, 0.25)
    assert result.accepted
    assert result.value == {i: 10 for i in range(4)}


def test_zipf_workload():
    stream = zipf_stream(256, 5000, rng=random.Random(1))
    result = run_on(stream, 0.02, seed=2)
    assert result.accepted
    assert result.value == stream.heavy_hitters(0.02)


def test_proof_size_inverse_phi_log_u():
    """Communication O(1/φ · log u): halving φ at most doubles the proof."""
    stream = zipf_stream(512, 8000, rng=random.Random(3))
    words = {}
    for phi in (0.1, 0.05, 0.025):
        result = run_on(stream, phi, seed=4)
        assert result.accepted
        words[phi] = result.transcript.prover_words
    assert words[0.1] <= words[0.05] <= words[0.025]
    d = 9
    for phi, w in words.items():
        assert w <= 3 * (2 * int(2 / phi) + 2) * d


def test_rounds_log_u():
    stream = Stream(1 << 8, [(0, 5)])
    result = run_on(stream, 0.5)
    assert result.accepted
    assert result.transcript.rounds == 8


def test_concealing_prover_rejected():
    from repro.adversary import ConcealingHeavyHittersProver

    stream = Stream.from_items(64, [7] * 40 + [20] * 40 + [1] * 10)
    verifier = HeavyHittersVerifier(F, 64, 0.3, rng=random.Random(5))
    prover = ConcealingHeavyHittersProver(F, 64, 0.3, conceal_key=7)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_heavy_hitters(prover, verifier)
    assert not result.accepted


def test_inflating_prover_rejected():
    from repro.adversary import InflatingHeavyHittersProver

    stream = Stream.from_items(64, [7] * 40 + [1] * 10)
    verifier = HeavyHittersVerifier(F, 64, 0.3, rng=random.Random(6))
    prover = InflatingHeavyHittersProver(F, 64, 0.3, inflate_key=1,
                                         amount=100)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_heavy_hitters(prover, verifier)
    assert not result.accepted


def test_in_flight_tamper_rejected():
    stream = Stream.from_items(64, [7] * 40 + [1] * 10)
    channel = Channel(tamper=flip_word(round_index=3, position=1))
    result = run_on(stream, 0.3, channel=channel)
    assert not result.accepted


def test_dimension_mismatch_rejected():
    verifier = HeavyHittersVerifier(F, 64, 0.1, rng=random.Random(7))
    prover = HeavyHittersProver(F, 128, 0.1)
    assert not run_heavy_hitters(prover, verifier).accepted


def test_prover_true_heavy_hitters_oracle():
    """At the threshold's edge the verified answer is the stream model's."""
    stream = Stream(16, [(3, 6), (4, 3), (5, 1)])
    result = run_on(stream, 0.5)
    assert result.accepted
    assert result.value == stream.heavy_hitters(0.5) == {3: 6}


def test_verifier_tracks_n():
    verifier = HeavyHittersVerifier(F, 16, 0.5, rng=random.Random(8))
    verifier.process_stream([(0, 3), (5, 4), (5, -2)])
    assert verifier.n == 5


def test_end_to_end_helper():
    stream = Stream.from_items(32, [9] * 9 + [1])
    result = heavy_hitters_protocol(stream, 0.5, F, rng=random.Random(9))
    assert result.accepted
    assert result.value == {9: 9}


def test_witness_structure_present():
    """Light siblings of heavy nodes (the omission witnesses) appear in
    the proof: the level-0 message contains light leaves too."""
    stream = Stream.from_items(16, [0] * 50 + [1] * 2)
    verifier = HeavyHittersVerifier(F, 16, 0.5, rng=random.Random(10))
    prover = HeavyHittersProver(F, 16, 0.5)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    result = run_heavy_hitters(prover, verifier)
    assert result.accepted
    level0 = [m for m in result.transcript.messages if m.label == "level0"][0]
    listed_keys = list(level0.payload[0::3])
    assert 0 in listed_keys and 1 in listed_keys  # witness sibling listed


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_heavy_parents_are_the_entries_within_tau_and_n(backend_name):
    table = get_backend(F, backend_name).asarray([5, 0, 7, 3, F.p - 2, 4])
    assert indices_within(table, 3, 5) == [0, 3, 5]
    assert indices_within(table, 6, 5) == []


#: Streams whose counts went negative, so some subtree holds more than n
#: or a residue near p: the first once passed a count of p - 3 off as a
#: heavy hitter, the second rejected the honest prover for a node whose
#: count, 40, exceeds n = 12.
OVER_THE_MASS = [
    [(1, 5), (2, 10), (3, -3), (4, 6)],
    [(0, 1), (2, 1), (3, -30), (8, 40)],
]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("low_space", [False, True])
@pytest.mark.parametrize("updates", OVER_THE_MASS)
def test_counts_above_the_mass_are_rejected(updates, low_space,
                                            backend_name):
    be = get_backend(F, backend_name)
    verifier = HeavyHittersVerifier(F, 16, 0.3, rng=random.Random(1),
                                    backend=be)
    prover = HeavyHittersProver(F, 16, 0.3, backend=be)
    for i, delta in updates:
        verifier.process(i, delta)
        prover.process(i, delta)
    result = run_heavy_hitters(prover, verifier, low_space=low_space)
    assert not result.accepted
    assert "more than the stream's mass n" in result.reason


# -- defect (o): the checks that only a cheating prover reaches -----------------

#: Key 5 holds 30 of the stream's 39 (τ = 8 at φ = 0.2), so each of the
#: d = 6 levels lists one pair under a heavy parent, or more.
OMIT_STREAM = Stream.from_items(64, [5] * 30 + [k for k in range(10)
                                                if k != 5])


def run_cheater(make, backend_name, low_space, seed=11):
    backend = get_backend(F, backend_name)
    verifier = HeavyHittersVerifier(F, 64, 0.2, rng=random.Random(seed),
                                    backend=backend)
    prover = make(F, 64, 0.2, backend=backend)
    for i, delta in OMIT_STREAM.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_heavy_hitters(prover, verifier, low_space=low_space)


@pytest.mark.parametrize("low_space", [False, True])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_omitting_the_children_of_a_heavy_node_is_rejected_at_every_level(
        backend_name, low_space):
    """A prover that drops both children of one heavy node at level l
    and lists that node, truthfully, at l + 1 hides every record below
    it.  The full verifier rejects: at l = 0 one level up, because the
    node "was never expanded"; above it at l itself, because a heavy
    child it derived one level down is missing.  The low-space one
    rejects because the heavy records do not replay the derived
    parents."""
    from repro.adversary import OmittingHeavyHittersProver

    honest = run_cheater(HeavyHittersProver, backend_name, low_space)
    assert honest.accepted and honest.value == {5: 30}
    d = 6
    for level in range(d):
        listed = [w for w in honest.transcript.messages
                  if w.label == "level%d" % level][0].payload
        assert listed, level  # there is a heavy node to omit under
        result = run_cheater(
            lambda *args, **kwargs: OmittingHeavyHittersProver(
                *args, omit_level=level, **kwargs),
            backend_name, low_space)
        assert not result.accepted, level
        if not low_space:
            assert result.reason.startswith(
                "level %d: heavy node" % max(level, 1))
            assert result.reason.endswith(
                "was never expanded" if level == 0
                else "missing from the proof")


@pytest.mark.parametrize("low_space", [False, True])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_record_index_out_of_range_is_rejected_at_every_level(
        backend_name, low_space):
    """A phantom pair just past a level's index range, consistent with
    every other check up to the root, is refused by the index bound
    ``[0, 2^(d - l))`` alone, at whichever level it first appears."""
    from repro.adversary import OutOfRangeHeavyHittersProver

    for level in range(6):
        result = run_cheater(
            lambda *args, **kwargs: OutOfRangeHeavyHittersProver(
                *args, level=level, **kwargs),
            backend_name, low_space)
        assert not result.accepted, level
        assert "level %d: indices not sorted/unique/in-range" % level == \
            result.reason
