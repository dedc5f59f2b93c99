"""Tests for the SUB-VECTOR protocol (Section 4.1, Theorem 5)."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import Channel, flip_word
from repro.core.subvector import (
    SubVectorProver,
    TreeHashVerifier,
    run_subvector,
    sibling_plan,
    subvector_protocol,
)
from repro.field.modular import DEFAULT_FIELD
from repro.lde.streaming import StreamingLDE
from repro.streams.generators import sparse_stream, uniform_frequency_stream
from repro.streams.model import Stream

F = DEFAULT_FIELD


def run_on(stream, lo, hi, seed=0, channel=None, normalized=False):
    verifier = TreeHashVerifier(F, stream.u, rng=random.Random(seed),
                                normalized=normalized)
    prover = SubVectorProver(F, stream.u, normalized=normalized)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_subvector(prover, verifier, lo, hi, channel)


# -- the streaming root (equation 8) ------------------------------------------


def test_root_matches_explicit_tree():
    """The streamed root equals the root of an explicitly built tree."""
    rng = random.Random(1)
    r = F.rand_vector(rng, 3)
    verifier = TreeHashVerifier(F, 8, point=r)
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    for i, v in enumerate(a):
        verifier.process(i, v)
    level = [v % F.p for v in a]
    for j in range(3):
        level = [
            (level[2 * t] + r[j] * level[2 * t + 1]) % F.p
            for t in range(len(level) // 2)
        ]
    assert verifier.root == level[0]


def test_paper_example_tree():
    """Figure 1: a = [2,3,8,1,7,6,4,3] with r = [1,1,1] gives root 34."""
    verifier = TreeHashVerifier(F, 8, point=[1, 1, 1])
    for i, v in enumerate([2, 3, 8, 1, 7, 6, 4, 3]):
        verifier.process(i, v)
    assert verifier.root == 34


def test_normalized_variant_equals_lde():
    """Appendix B.2 remark: hash (1-r)v_L + r·v_R makes the root f_a(r)."""
    rng = random.Random(2)
    r = F.rand_vector(rng, 5)
    verifier = TreeHashVerifier(F, 32, point=r, normalized=True)
    lde = StreamingLDE(F, 32, point=r)
    gen = random.Random(3)
    for _ in range(60):
        i, d = gen.randrange(32), gen.randint(-5, 5)
        verifier.process(i, d)
        lde.update(i, d)
    assert verifier.root == lde.value


# -- the sibling plan ---------------------------------------------------------


@given(st.tuples(st.integers(min_value=0, max_value=63),
                 st.integers(min_value=0, max_value=63)))
def test_sibling_plan_bounded(bounds):
    lo, hi = min(bounds), max(bounds)
    plan = sibling_plan(lo, hi, 6)
    assert len(plan) == 6
    for level in plan:
        assert len(level) <= 2  # at most one sibling per endpoint per level


def test_sibling_plan_full_range_empty():
    assert all(not lvl for lvl in sibling_plan(0, 63, 6))


def test_sibling_plan_paper_example():
    # Range [2,5] in u=8 (Figure 1's (2,6) uses 1-based indexing; here the
    # aligned range [2,5] needs siblings only at level 1).
    plan = sibling_plan(2, 5, 3)
    assert plan[0] == []
    assert plan[1] == [0, 3]
    assert plan[2] == []


# -- completeness -------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.integers(min_value=0, max_value=9)),
                max_size=30),
       st.tuples(st.integers(min_value=0, max_value=63),
                 st.integers(min_value=0, max_value=63)))
def test_completeness_random(updates, bounds):
    lo, hi = min(bounds), max(bounds)
    stream = Stream(64, updates)
    result = run_on(stream, lo, hi)
    assert result.accepted
    assert list(result.value.entries) == stream.range_entries(lo, hi)


def test_answer_structure():
    stream = Stream(16, [(3, 7), (5, 1), (9, 2)])
    result = run_on(stream, 3, 9)
    assert result.accepted
    answer = result.value
    assert answer.lo == 3 and answer.hi == 9
    assert answer.k == 3
    assert answer.as_dict() == {3: 7, 5: 1, 9: 2}


def test_full_universe_query():
    stream = Stream(32, [(0, 1), (31, 2)])
    result = run_on(stream, 0, 31)
    assert result.accepted
    assert result.value.as_dict() == {0: 1, 31: 2}


def test_single_leaf_query():
    stream = Stream(32, [(17, 9)])
    assert run_on(stream, 17, 17).value.as_dict() == {17: 9}
    assert run_on(stream, 16, 16).value.as_dict() == {}


def test_empty_range_within_data():
    stream = Stream(64, [(0, 1), (63, 1)])
    result = run_on(stream, 10, 50)
    assert result.accepted
    assert result.value.entries == ()


def test_normalized_protocol_end_to_end():
    stream = sparse_stream(128, 20, rng=random.Random(4))
    result = run_on(stream, 30, 90, normalized=True)
    assert result.accepted
    assert list(result.value.entries) == stream.range_entries(30, 90)


def test_u_one_universe():
    stream = Stream(1, [(0, 5)])
    result = run_on(stream, 0, 0)
    assert result.accepted
    assert result.value.as_dict() == {0: 5}


# -- costs ----------------------------------------------------------------------


def test_communication_log_u_plus_k():
    u = 1 << 12
    stream = sparse_stream(u, 10, rng=random.Random(5))
    entries = stream.range_entries(100, 3000)
    result = run_on(stream, 100, 3000)
    assert result.accepted
    k = len(entries)
    overhead = result.transcript.total_words - 2 * k
    # Overhead: query (2) + challenges (d-1) + <=2 sibling pairs per level.
    assert overhead <= 2 + (12 - 1) + 4 * 12


def test_overhead_constant_in_answer_size():
    """Figure 3(b): widening the queried range grows only the answer part
    of the communication, not the protocol overhead."""
    u = 1 << 12
    stream = uniform_frequency_stream(u, max_frequency=1000,
                                      rng=random.Random(0))
    overheads = []
    for hi in (63, 255, 1023):
        result = run_on(stream, 0, hi, seed=13)
        assert result.accepted
        overheads.append(
            result.transcript.total_words - 2 * result.value.k
        )
    assert max(overheads) - min(overheads) <= 2 * 12  # a sibling pair a level


def test_rounds_log_u():
    u = 1 << 10
    stream = Stream(u, [(5, 1)])
    result = run_on(stream, 4, 6)
    assert result.accepted
    assert result.transcript.rounds == 10  # d rounds (round 0 + d-1)


def test_final_parameter_not_revealed():
    stream = Stream(64, [(3, 2)])
    verifier = TreeHashVerifier(F, 64, rng=random.Random(6))
    prover = SubVectorProver(F, 64)
    verifier.process(3, 2)
    prover.process(3, 2)
    result = run_subvector(prover, verifier, 2, 5)
    sent = [
        w
        for m in result.transcript.messages_from("verifier")
        for w in m.payload
        if m.label.startswith("r")
    ]
    assert verifier.r[-1] not in sent


# -- soundness -----------------------------------------------------------------


def test_altered_entry_rejected():
    stream = Stream(64, [(10, 5), (12, 6)])
    verifier = TreeHashVerifier(F, 64, rng=random.Random(7))
    prover = SubVectorProver(F, 64)
    for i, d in stream.updates():
        verifier.process(i, d)
        prover.process(i, d)
    prover.freq[10] = 99  # prover's records corrupted
    result = run_subvector(prover, verifier, 8, 15)
    assert not result.accepted
    assert "root" in result.reason


def test_in_flight_tamper_rejected():
    stream = sparse_stream(64, 8, rng=random.Random(8))
    channel = Channel(tamper=flip_word(round_index=0, position=1))
    result = run_on(stream, 0, 40, seed=9, channel=channel)
    assert not result.accepted


def test_duplicate_entry_rejected():
    stream = Stream(16, [(4, 2)])
    channel = Channel(
        tamper=lambda m: (list(m.payload) + [4, 2])
        if m.label == "entries"
        else m.payload
    )
    result = run_on(stream, 2, 6, channel=channel)
    assert not result.accepted


def test_out_of_range_entry_rejected():
    stream = Stream(16, [(4, 2)])
    channel = Channel(
        tamper=lambda m: (list(m.payload) + [10, 1])
        if m.label == "entries"
        else m.payload
    )
    result = run_on(stream, 2, 6, channel=channel)
    assert not result.accepted
    assert "out of range" in result.reason


def test_malformed_sibling_plan_rejected():
    stream = Stream(64, [(9, 1)])
    channel = Channel(
        tamper=lambda m: list(m.payload)[:-2]
        if m.label.startswith("siblings") and m.payload
        else m.payload
    )
    result = run_on(stream, 9, 10, channel=channel)
    assert not result.accepted


def test_invalid_query_rejected():
    stream = Stream(16, [(0, 1)])
    assert not run_on(stream, 5, 4).accepted
    assert not run_on(stream, 0, 16).accepted


def test_variant_mismatch_rejected():
    verifier = TreeHashVerifier(F, 16, rng=random.Random(10),
                                normalized=True)
    prover = SubVectorProver(F, 16, normalized=False)
    assert not run_subvector(prover, verifier, 0, 3).accepted


def test_end_to_end_helper():
    stream = uniform_frequency_stream(64, max_frequency=3,
                                      rng=random.Random(11))
    result = subvector_protocol(stream, 5, 25, F, rng=random.Random(12))
    assert result.accepted
    assert list(result.value.entries) == stream.range_entries(5, 25)
