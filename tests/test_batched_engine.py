"""The differential + adversarial harness behind the batched engine.

The generic :class:`~repro.core.multiquery.BatchedSumcheckEngine` changes
prover hot paths without being allowed to change a single transcript
byte, so this suite is the engine's spec:

* *differential* — hypothesis-driven property tests assert that every
  member of a heterogeneous F2/Fk/INNER-PRODUCT/RANGE-SUM batch produces
  a transcript byte-identical to the corresponding standalone one-query
  run (same verifier point, same challenges), on both the scalar and the
  vectorized backend, including the empty-batch and single-query
  degenerate paths.  The standalone run is the query alone, proved by
  ``reference_sumcheck.ReferenceProver`` — the paper's prover written
  out on dense Python-int tables, a RANGE-SUM member's b the explicit
  indicator — not by the library's own kernels;
* *adversarial* — a prover cheating on exactly one query inside a mixed
  batch is rejected for that query while the honest members of the same
  batch still verify (the Section 7 direct-sum guarantee, per query).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_sumcheck import ReferenceProver
from repro.adversary.cheating_provers import PerQueryCheatingBatchEngine
from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier, run_f2
from repro.core.fk import FkVerifier, run_fk
from repro.core.inner_product import InnerProductVerifier, run_inner_product
from repro.core.multiquery import (
    BATCH_KIND_F2,
    BATCH_KIND_FK,
    BATCH_KIND_INNER_PRODUCT,
    BatchQuery,
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.range_sum import RangeSumVerifier, run_range_sum
from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import HAVE_NUMPY, get_backend

F = DEFAULT_FIELD

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])


# -- strategies ----------------------------------------------------------------


def updates_strategy(u, max_size=25):
    return st.lists(
        st.tuples(st.integers(0, u - 1), st.integers(-3, 5)),
        max_size=max_size,
    )


def query_strategy(u):
    ranges = st.tuples(st.integers(0, u - 1), st.integers(0, u - 1)).map(
        lambda pair: batch_range_sum(min(pair), max(pair))
    )
    return st.one_of(
        st.just(batch_f2()),
        st.integers(1, 4).map(batch_fk),
        st.just(batch_inner_product()),
        ranges,
    )


def batch_case():
    """(u, updates_a, updates_b, queries, point seed) tuples."""
    return st.integers(3, 6).flatmap(
        lambda log_u: st.tuples(
            st.just(1 << log_u),
            updates_strategy(1 << log_u),
            updates_strategy(1 << log_u, max_size=12),
            st.lists(query_strategy(1 << log_u), min_size=1, max_size=6),
            st.integers(0, 2**32),
        )
    )


# -- harness helpers -----------------------------------------------------------


def build_batch_session(backend_name, u, updates_a, updates_b, point):
    backend = get_backend(F, backend_name)
    engine = BatchedSumcheckEngine(F, u, backend=backend)
    verifier = BatchedSumcheckVerifier(F, u, point=point)
    for i, delta in updates_a:
        engine.process(i, delta)
        verifier.process_a(i, delta)
    for i, delta in updates_b:
        engine.process_b(i, delta)
        verifier.process_b(i, delta)
    return engine, verifier, backend


def run_standalone(query, u, updates_a, updates_b, point):
    """The query alone through its one-query driver, same point and
    challenges, proved by the reference prover."""
    prover = ReferenceProver(F, u, updates_a, updates_b)
    channel = Channel()
    if query.kind == BATCH_KIND_INNER_PRODUCT:
        verifier = InnerProductVerifier(F, u, point=point)
        for i, delta in updates_a:
            verifier.process_a(i, delta)
        for i, delta in updates_b:
            verifier.process_b(i, delta)
        return run_inner_product(prover, verifier, channel), channel
    if query.kind == BATCH_KIND_F2:
        verifier = F2Verifier(F, u, point=point)
        verifier.process_stream(updates_a)
        return run_f2(prover, verifier, channel), channel
    if query.kind == BATCH_KIND_FK:
        verifier = FkVerifier(F, u, query.params[0], point=point)
        verifier.process_stream(updates_a)
        return run_fk(prover, verifier, channel), channel
    verifier = RangeSumVerifier(F, u, point=point)
    verifier.process_stream(updates_a)
    return run_range_sum(prover, verifier, *query.params, channel), channel


def per_query_view(channel, idx):
    """One batch member's transcript, normalized to standalone labels.

    Keeps the member's own messages (``q{idx}-range`` -> ``query``,
    ``q{idx}-g{j}`` -> ``g{j}``) and the shared revealed challenges, in
    transcript order — exactly the sequence a standalone run of that
    query produces.  A batch of one already speaks the standalone labels.
    """
    if not any("-" in m.label for m in channel.transcript.messages):
        return standalone_view(channel)
    prefix = "q%d" % idx
    view = []
    for message in channel.transcript.messages:
        label = message.label
        if "-" in label:
            own, rest = label.split("-", 1)
            if own != prefix:
                continue
            label = "query" if rest == "range" else rest
        elif not label.startswith("r"):
            continue
        view.append((message.sender, label, message.payload))
    return view


def standalone_view(channel):
    return [
        (m.sender, m.label, m.payload) for m in channel.transcript.messages
    ]


def true_answers(u, updates_a, updates_b, queries):
    size = 1 << (u - 1).bit_length() if u > 1 else 1
    freq_a = [0] * size
    for i, delta in updates_a:
        freq_a[i] += delta
    freq_b = [0] * size
    for i, delta in updates_b:
        freq_b[i] += delta
    p = F.p
    out = []
    for q in queries:
        if q.kind == BATCH_KIND_F2:
            out.append(sum(v * v for v in freq_a) % p)
        elif q.kind == BATCH_KIND_FK:
            out.append(sum(v ** q.params[0] for v in freq_a) % p)
        elif q.kind == BATCH_KIND_INNER_PRODUCT:
            out.append(sum(x * y for x, y in zip(freq_a, freq_b)) % p)
        else:
            lo, hi = q.params
            out.append(sum(freq_a[lo : hi + 1]) % p)
    return out


# -- differential property tests -----------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=batch_case())
def test_batched_transcripts_byte_identical_to_standalone(backend_name, case):
    """Every batch member's messages are byte-for-byte the standalone
    run's messages, its result identical, and its per-query channel cost
    exactly what the standalone run pays."""
    u, updates_a, updates_b, queries, seed = case
    d = (u - 1).bit_length()
    point = F.rand_vector(random.Random(seed), d)

    engine, verifier, backend = build_batch_session(
        backend_name, u, updates_a, updates_b, point
    )
    channel = Channel()
    results = run_batched_sumcheck(engine, verifier, queries, channel)
    assert len(results) == len(queries)
    expected = true_answers(u, updates_a, updates_b, queries)
    for idx, (query, result) in enumerate(zip(queries, results)):
        assert result.accepted, (query.name, result.reason)
        assert result.value == expected[idx]
        single_result, single_channel = run_standalone(
            query, u, updates_a, updates_b, point
        )
        assert single_result.accepted
        assert single_result.value == result.value
        # Byte-identical per-query transcript...
        assert per_query_view(channel, idx) == \
            standalone_view(single_channel), query.name
        # ...and cost accounting to the word: own messages plus the
        # shared challenges the standalone run would repay.
        assert channel.query_cost(idx) == \
            single_channel.transcript.total_words


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs both backends")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=batch_case())
def test_batched_transcripts_identical_across_backends(case):
    u, updates_a, updates_b, queries, seed = case
    d = (u - 1).bit_length()
    point = F.rand_vector(random.Random(seed), d)
    transcripts = {}
    values = {}
    for backend_name in ("scalar", "vectorized"):
        engine, verifier, backend = build_batch_session(
            backend_name, u, updates_a, updates_b, point
        )
        channel = Channel()
        results = run_batched_sumcheck(engine, verifier, queries, channel)
        transcripts[backend_name] = channel.transcript.messages
        values[backend_name] = [r.value for r in results]
    assert transcripts["scalar"] == transcripts["vectorized"]
    assert values["scalar"] == values["vectorized"]


# -- the dyadic fold against the dense oracle ----------------------------------
#
# The structured dyadic RANGE-SUM representation (O(log u) canonical
# nodes per query) must be *indistinguishable on the wire* from the
# explicit u-entry indicator it replaced.


def range_mix_strategy(u):
    """RANGE-SUM-heavy batches biased toward adversarial range shapes."""
    specials = [(0, 0), (u - 1, u - 1), (0, u - 1)]
    if u >= 4:
        specials.append((u // 4, u // 2 - 1))  # power-of-two aligned
        specials.append((1, u - 2))  # maximally unaligned
    ranges = st.one_of(
        st.sampled_from(specials),
        st.tuples(st.integers(0, u - 1), st.integers(0, u - 1)).map(
            lambda pair: (min(pair), max(pair))
        ),
    ).map(lambda pair: batch_range_sum(*pair))
    other = st.one_of(st.just(batch_f2()), st.integers(1, 3).map(batch_fk))
    return st.lists(
        st.one_of(ranges, ranges, ranges, other), min_size=1, max_size=8
    )


def range_heavy_case():
    return st.integers(3, 7).flatmap(
        lambda log_u: st.tuples(
            st.just(1 << log_u),
            updates_strategy(1 << log_u, max_size=30),
            range_mix_strategy(1 << log_u),
            st.integers(0, 2**32),
        )
    )


def assert_batch_equals_the_oracle(backend_name, u, updates_a, queries,
                                   point):
    """Every member of the batch sends what its standalone run sends —
    for a RANGE-SUM member the reference's, over the dense indicator."""
    engine, verifier, backend = build_batch_session(
        backend_name, u, updates_a, [], point
    )
    channel = Channel()
    results = run_batched_sumcheck(engine, verifier, queries, channel)
    for idx, query in enumerate(queries):
        single_result, single_channel = run_standalone(
            query, u, updates_a, [], point
        )
        assert single_result.accepted and results[idx].accepted
        assert single_result.value == results[idx].value
        assert per_query_view(channel, idx) == \
            standalone_view(single_channel), query.name


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=range_heavy_case())
def test_dyadic_fold_transcripts_byte_identical_to_dense(backend_name, case):
    """The engine's dyadic members and the dense oracle commit identical
    round messages across random (lo, hi) mixes, on either backend."""
    u, updates_a, queries, seed = case
    d = (u - 1).bit_length()
    point = F.rand_vector(random.Random(seed), d)
    assert_batch_equals_the_oracle(backend_name, u, updates_a, queries,
                                   point)


EDGE_RANGE_CASES = [
    ("single-key-low", lambda u: (0, 0)),
    ("single-key-high", lambda u: (u - 1, u - 1)),
    ("single-key-inner", lambda u: (u // 2 - 1, u // 2 - 1)),
    ("full-range", lambda u: (0, u - 1)),
    ("pow2-aligned-block", lambda u: (u // 4, u // 2 - 1)),
    ("half-open-top", lambda u: (u // 2, u - 1)),
    ("maximally-unaligned", lambda u: (1, u - 2)),
]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name,make_range", EDGE_RANGE_CASES,
                         ids=[n for n, _ in EDGE_RANGE_CASES])
def test_dyadic_fold_edge_ranges_match_dense(backend_name, name, make_range):
    u = 64
    rng = random.Random(11)
    updates_a = [(rng.randrange(u), rng.randrange(-2, 6)) for _ in range(70)]
    point = F.rand_vector(random.Random(12), 6)
    assert_batch_equals_the_oracle(
        backend_name, u, updates_a,
        [batch_range_sum(*make_range(u)), batch_f2()], point,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_empty_batch_is_a_no_op(backend_name):
    engine, verifier, backend = build_batch_session(
        backend_name, 16, [(3, 2)], [], F.rand_vector(random.Random(0), 4)
    )
    channel = Channel()
    assert run_batched_sumcheck(engine, verifier, [], channel) == []
    assert len(channel.transcript) == 0  # nothing hit the wire


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("query", [
    batch_f2(), batch_fk(3), batch_inner_product(), batch_range_sum(2, 11),
], ids=lambda q: q.name)
def test_single_query_batch_matches_standalone(backend_name, query):
    u = 32
    rng = random.Random(5)
    updates_a = [(rng.randrange(u), rng.randrange(-2, 5)) for _ in range(40)]
    updates_b = [(rng.randrange(u), rng.randrange(3)) for _ in range(20)]
    point = F.rand_vector(random.Random(6), 5)
    engine, verifier, backend = build_batch_session(
        backend_name, u, updates_a, updates_b, point
    )
    channel = Channel()
    result = run_batched_sumcheck(engine, verifier, [query], channel)[0]
    single_result, single_channel = run_standalone(
        query, u, updates_a, updates_b, point
    )
    assert result.accepted and single_result.accepted
    assert result.value == single_result.value
    assert per_query_view(channel, 0) == standalone_view(single_channel)


def test_range_sum_prover_is_a_batch_engine():
    """run_batch_range_sum and run_range_sum drive the engine: the same
    transcript as announcing the members to it directly."""
    u = 64
    rng = random.Random(9)
    updates = [(rng.randrange(u), rng.randrange(1, 5)) for _ in range(50)]
    point = F.rand_vector(random.Random(10), 6)

    def session():
        engine = BatchedSumcheckEngine(F, u)
        engine.process_stream(updates)
        verifier = RangeSumVerifier(F, u, point=point)
        verifier.process_stream(updates)
        return engine, verifier, Channel()

    engine, verifier, channel = session()
    results = run_batch_range_sum(engine, verifier, [(0, 9), (10, 63)],
                                  channel)
    assert all(r.accepted for r in results)
    engine, verifier, channel2 = session()
    direct = run_batched_sumcheck(
        engine, verifier, [batch_range_sum(0, 9), batch_range_sum(10, 63)],
        channel2,
    )
    assert channel.transcript.messages == channel2.transcript.messages
    assert [r.value for r in results] == [r.value for r in direct]

    engine, verifier, channel = session()
    alone = run_range_sum(engine, verifier, 10, 63, channel)
    engine, verifier, channel2 = session()
    (batch_of_one,) = run_batch_range_sum(engine, verifier, [(10, 63)],
                                          channel2)
    assert channel.transcript.messages == channel2.transcript.messages
    assert alone.value == batch_of_one.value == results[1].value


def test_driver_never_reveals_the_last_challenge():
    """r_d is the verifier's alone: the prover is folded d - 1 times, as
    by the standalone drivers, and the channel records d - 1 reveals."""
    engine, verifier, _ = build_batch_session(
        "scalar", 32, [(3, 2), (9, 1)], [], F.rand_vector(random.Random(1), 5)
    )
    seen = []
    fold = engine.receive_challenge
    engine.receive_challenge = lambda r: (seen.append(r), fold(r))[1]
    channel = Channel()
    results = run_batched_sumcheck(
        engine, verifier, [batch_f2(), batch_range_sum(1, 20)], channel
    )
    assert all(r.accepted for r in results)
    assert seen == list(verifier.r[:-1])
    assert [m.payload[0] for m in channel.transcript.messages
            if m.label.startswith("r")] == seen


# -- validation ----------------------------------------------------------------


def test_driver_rejects_a_prover_of_another_dimension():
    """An engine over a larger or a smaller universe than the verifier's
    is rejected on every member before it sees the batch (a larger one
    would otherwise prove, a smaller one crash in a kernel)."""
    for prover_u in (128, 32):
        engine = BatchedSumcheckEngine(F, prover_u)
        engine.process_stream([(3, 2), (9, 1)])
        verifier = F2Verifier(F, 64, rng=random.Random(prover_u))
        verifier.process_stream([(3, 2), (9, 1)])
        seen = []
        engine.receive_batch = seen.append
        channel = Channel()
        results = run_batched_sumcheck(
            engine, verifier, [batch_f2(), batch_range_sum(0, 9)], channel)
        assert [(r.accepted, r.reason) for r in results] == \
            [(False, "prover/verifier dimension mismatch")] * 2
        assert not seen and len(channel.transcript) == 0


def test_batch_query_validation():
    with pytest.raises(ValueError):
        BatchQuery(99, ())
    with pytest.raises(ValueError):
        batch_fk(0)
    with pytest.raises(ValueError):
        batch_range_sum(5, 4)
    with pytest.raises(ValueError):
        BatchQuery(BATCH_KIND_F2, (1,))
    assert batch_fk(3).degree == 3 and batch_range_sum(2, 9).degree == 2


def test_engine_validates_usage():
    engine = BatchedSumcheckEngine(F, 64)
    with pytest.raises(RuntimeError):
        engine.round_messages()
    with pytest.raises(RuntimeError):
        engine.receive_challenge(3)
    with pytest.raises(ValueError):
        engine.receive_batch([batch_range_sum(5, 90)])  # beyond the padding
    with pytest.raises(TypeError):
        engine.receive_batch([(0, 5)])  # not a BatchQuery
    with pytest.raises(ValueError):
        engine.process(64, 1)
    with pytest.raises(ValueError):
        engine.process_b(64, 1)


def test_driver_requires_two_lde_verifier_for_inner_product():
    engine = BatchedSumcheckEngine(F, 16)
    verifier = RangeSumVerifier(F, 16, rng=random.Random(3))
    with pytest.raises(ValueError, match="second-stream"):
        run_batched_sumcheck(engine, verifier, [batch_inner_product()])
    # F2/Fk/RANGE-SUM batches run fine on a single-LDE verifier.
    results = run_batched_sumcheck(
        engine, verifier, [batch_f2(), batch_range_sum(0, 15)]
    )
    assert all(r.accepted for r in results)


# -- adversarial: one cheater inside a mixed batch -----------------------------


MIXED_QUERIES = [batch_range_sum(0, 20), batch_f2(), batch_fk(3),
                 batch_inner_product(), batch_range_sum(30, 50)]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("style", ["claim", "adaptive"])
@pytest.mark.parametrize("victim", range(len(MIXED_QUERIES)))
def test_single_cheating_query_rejected_alone(backend_name, style, victim):
    u = 64
    rng = random.Random(20 + victim)
    updates_a = [(rng.randrange(u), rng.randrange(1, 6)) for _ in range(60)]
    updates_b = [(rng.randrange(u), rng.randrange(1, 4)) for _ in range(30)]
    backend = get_backend(F, backend_name)
    engine = PerQueryCheatingBatchEngine(F, u, cheat_query=victim,
                                         offset=7, style=style,
                                         backend=backend)
    verifier = BatchedSumcheckVerifier(F, u, rng=random.Random(40 + victim))
    for i, delta in updates_a:
        engine.process(i, delta)
        verifier.process_a(i, delta)
    for i, delta in updates_b:
        engine.process_b(i, delta)
        verifier.process_b(i, delta)
    results = run_batched_sumcheck(engine, verifier, MIXED_QUERIES)
    expected = true_answers(u, updates_a, updates_b, MIXED_QUERIES)
    for idx, result in enumerate(results):
        if idx == victim:
            assert not result.accepted
            if style == "claim":
                assert "invariant" in result.reason
            else:
                assert "final check" in result.reason
        else:
            assert result.accepted, (idx, result.reason)
            assert result.value == expected[idx]


def test_cheating_engine_validates_victim_index():
    engine = PerQueryCheatingBatchEngine(F, 16, cheat_query=3)
    with pytest.raises(ValueError):
        engine.receive_batch([batch_f2()])
    with pytest.raises(ValueError):
        PerQueryCheatingBatchEngine(F, 16, style="nonsense")
