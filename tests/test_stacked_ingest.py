"""Differential suite for the stacked ingest kernel.

Every streamed verifier state of the library is fed two ways — through
``prepare_block`` + :class:`SketchStack` (what ``process_stream_batched``,
``apply_stream_batched``, ``IndependentCopies`` and the service client
call) and through the per-update ``process()`` / ``update()`` loop — and
must end in the same place, on both backends: the stacked rows, the
pre-aggregation, the tiling and the column frame change how fast a
verifier watches its stream, never what it has seen.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import os
import random
import socket
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.f2 import F2Verifier
from repro.core.fk import FkVerifier
from repro.core.heavy_hitters import HeavyHittersVerifier
from repro.core.inner_product import InnerProductVerifier
from repro.core.multiquery import BatchedSumcheckVerifier, IndependentCopies
from repro.core.range_sum import RangeSumVerifier
from repro.core.subvector import TreeHashVerifier
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.modular import PrimeField
from repro.field.primes import MERSENNE_127
from repro.field.vectorized import BACKEND_ENV_VAR, HAVE_NUMPY, get_backend
from repro.lde.streaming import (
    AGGREGATE_MIN_COPIES,
    DEFAULT_BLOCK,
    FUSE_LIMIT,
    TILE_ELEMENTS,
    SketchStack,
    StreamingLDE,
    apply_stream_batched,
    fuse_widths,
    prepare_block,
)
from repro.service import (
    ChaosProxy,
    FaultSchedule,
    ProverServer,
    QueryRouter,
    ServiceClient,
    SessionRegistry,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    point_lookup,
    range_sum,
)
from repro.service import protocol as sp
from repro.service.faults import KIND_DROP, Fault
from repro.service.server import REPLAY_BLOCK
from repro.service.client import (
    NO_RETRY,
    RetryPolicy,
    ServiceBusyError,
    ServiceClientError,
)

P = F.p

BACKENDS = [
    pytest.param("vectorized", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
    "scalar",
]


@contextlib.contextmanager
def use_backend(name):
    """Verifiers pick their backend up from the environment, exactly as
    a deployment would."""
    old = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = name
    try:
        yield
    finally:
        if old is None:
            del os.environ[BACKEND_ENV_VAR]
        else:
            os.environ[BACKEND_ENV_VAR] = old


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    """Run the test once per backend."""
    with use_backend(request.param):
        yield request.param


#: Every verifier family the router provisions (and the normalized
#: tree hash, which is the LDE in disguise), as ``factory(u, rng)``.
FAMILIES = [
    lambda u, rng: RangeSumVerifier(F, u, rng=rng),
    lambda u, rng: F2Verifier(F, u, rng=rng),
    lambda u, rng: FkVerifier(F, u, 3, rng=rng),
    lambda u, rng: InnerProductVerifier(F, u, rng=rng),
    lambda u, rng: BatchedSumcheckVerifier(F, u, rng=rng),
    lambda u, rng: TreeHashVerifier(F, u, rng=rng),
    lambda u, rng: TreeHashVerifier(F, u, rng=rng, normalized=True),
    lambda u, rng: HeavyHittersVerifier(F, u, 0.1, rng=rng),
]


def make_pools(u, copies=2, seed=7):
    """``copies`` verifiers of every family, reproducibly."""
    rng = random.Random(seed)
    return [
        [factory(u, random.Random(rng.getrandbits(64)))
         for _ in range(copies)]
        for factory in FAMILIES
    ]


def make_stack(pools):
    first = pools[0][0].stream_sketches[0]
    stack = SketchStack(first.backend, first.ell, first.d)
    for pool in pools:
        stack.add_copies(pool)
    return stack


def state(verifier):
    """Everything a verifier remembers of its stream."""
    out = []
    for sketch in verifier.stream_sketches:
        if isinstance(sketch, StreamingLDE):
            out.append((sketch.value, sketch.updates_processed))
        elif isinstance(sketch, HeavyHittersVerifier):
            out.append((sketch.root, sketch.n))
        else:
            out.append(sketch.root)
    return out


def states(pools):
    return [[state(v) for v in pool] for pool in pools]


def step(verifier, vector, i, delta):
    """The per-update reference: what the paper's verifier does."""
    if isinstance(verifier, InnerProductVerifier):  # and the batch verifier
        (verifier.process_a if vector == 0 else verifier.process_b)(i, delta)
    elif vector == 0:
        verifier.process(i, delta)


def loop_feed(pools, pairs, vector=0):
    for pool in pools:
        for verifier in pool:
            for i, delta in pairs:
                step(verifier, vector, i, delta)


def stack_feed(stack, u, pairs, vector=0, live=None, block=DEFAULT_BLOCK):
    stack.process_stream(pairs, u, block, vector=vector, live=live)


#: Deltas at every boundary the kernels special-case: sign, the
#: modulus, the 22-bit limbs, int64's edge and beyond it.
BOUNDARY_DELTAS = [
    1, -1, 0, P - 1, -(P - 1), P, 1 << 22, -(1 << 44), 1 << 61, 1 << 62,
    (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1, 1 << 64, -(1 << 70),
]

deltas = st.one_of(st.integers(-9, 9), st.sampled_from(BOUNDARY_DELTAS))


@st.composite
def streams(draw):
    u = draw(st.integers(3, 300).filter(lambda n: n & (n - 1)))
    keys = st.integers(0, u - 1)
    pairs = st.lists(st.tuples(keys, deltas), min_size=1, max_size=60)
    return u, draw(pairs), draw(pairs), draw(pairs), draw(st.integers(1, 70))


# -- the whole stack against the per-update loop -------------------------------


@pytest.mark.parametrize("name", BACKENDS)
@given(case=streams())
def test_mixed_stack_equals_the_per_update_loop(name, case):
    """All families in one stack, both vectors, a take() in between."""
    with use_backend(name):
        check_mixed_stack(*case)


def check_mixed_stack(u, first, second_vector, after_take, block):
    pools = make_pools(u)
    reference = copy.deepcopy(pools)
    stack = make_stack(pools)

    stack_feed(stack, u, first, block=block)
    stack_feed(stack, u, second_vector, vector=1, block=block)
    loop_feed(reference, first)
    loop_feed(reference, second_vector, vector=1)
    assert states(pools) == states(reference)

    # One copy of every pool is consumed: it stops moving, the rest do
    # not notice.
    taken = [pool.pop() for pool in pools]
    frozen = [state(v) for v in taken]
    for pool in reference:
        pool.pop()
    live = [len(pool) for pool in pools]
    stack_feed(stack, u, after_take, live=live, block=block)
    stack_feed(stack, u, after_take, vector=1, live=live, block=block)
    loop_feed(reference, after_take)
    loop_feed(reference, after_take, vector=1)
    assert states(pools) == states(reference)
    assert [state(v) for v in taken] == frozen


def test_vector_one_moves_only_the_second_lde(backend_name):
    u = 100
    pools = make_pools(u)
    before = states(pools)
    stack_feed(make_stack(pools), u, [(3, 5), (99, -2), (3, 1)], vector=1)
    for pool, was in zip(pools, before):
        for verifier, old in zip(pool, was):
            new = state(verifier)
            if isinstance(verifier, InnerProductVerifier):
                assert new[0] == old[0]
                assert new[1] != old[1] and new[1][1] == 3
            else:
                assert new == old


@pytest.mark.parametrize("bad", [(100, 1), (-1, 1), (1 << 70, 1)])
def test_one_bad_key_changes_no_row(backend_name, bad):
    u = 100
    pools = make_pools(u)
    stack = make_stack(pools)
    stack_feed(stack, u, [(1, 1), (2, 2)])
    before = states(pools)
    with pytest.raises(ValueError, match="outside universe"):
        stack_feed(stack, u, [(5, 1), (6, 1 << 64), bad, (7, 1)])
    assert states(pools) == before


KEY_SHAPES = {
    "all equal": lambda u, n: [5] * n,
    "all distinct": lambda u, n: [(7 * t) % u for t in range(n)],
    "zipf-ish": lambda u, n: [(t * t) % 17 for t in range(n)],
}


@pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
@pytest.mark.parametrize("n", [1, DEFAULT_BLOCK // 8, DEFAULT_BLOCK // 8 + 1,
                               DEFAULT_BLOCK, DEFAULT_BLOCK + 1])
def test_block_edges_and_key_shapes(backend_name, shape, n):
    """Blocks of 1, of part of a default block and one update more, and
    of exactly one default block and one update more, as a generator,
    through the public entry points."""
    # DEFAULT_BLOCK + 1 distinct keys 7t mod u fit; not a power of two.
    u = DEFAULT_BLOCK + 904
    assert u % 7 and u & (u - 1)
    if backend_name == "scalar" and n > 1:
        n = 64 + n % 2  # the reference loop is the slow one: same shapes
    rng = random.Random(n)
    pairs = [(key, rng.randrange(-4, 5))
             for key in KEY_SHAPES[shape](u, n)]
    copies = IndependentCopies(
        AGGREGATE_MIN_COPIES, lambda r: RangeSumVerifier(F, u, rng=r),
        rng=random.Random(1))
    tree = TreeHashVerifier(F, u, rng=random.Random(2))
    hitters = HeavyHittersVerifier(F, u, 0.05, rng=random.Random(3))
    reference = copy.deepcopy([copies._fresh, [tree], [hitters]])
    copies.process_stream_batched(iter(pairs))
    tree.process_stream_batched(iter(pairs), block=1 if n == 1 else 1000)
    hitters.process_stream_batched(iter(pairs))
    loop_feed(reference, pairs)
    assert states([copies._fresh, [tree], [hitters]]) == states(reference)


def test_pairs_that_cancel_leave_only_the_count(backend_name):
    u = 77
    pools = make_pools(u, copies=AGGREGATE_MIN_COPIES)
    before = states(pools)
    pairs = [(9, 4), (30, -7), (9, -4), (30, 7)]
    stack_feed(make_stack(pools), u, pairs)
    for pool, was in zip(pools, before):
        for verifier, old in zip(pool, was):
            new = state(verifier)
            if isinstance(new[0], tuple) and isinstance(
                    verifier.stream_sketches[0], StreamingLDE):
                assert new[0] == (old[0][0], 4)  # value still, count up
            else:
                assert new[0] == old[0]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("delta", [1 << 63, -(1 << 63) - 1, 1 << 64])
def test_aggregation_switches_itself_off_beyond_int64(delta):
    """A delta outside int64 (or a block whose sums could leave it)
    is folded raw: same value, no approximation."""
    be = get_backend(F, "vectorized")
    pairs = [(4, 3), (9, delta), (4, -3), (9, 1)]
    block = prepare_block(be, 16, pairs, copies=AGGREGATE_MIN_COPIES)
    assert block.columns is None and len(block.keys) == len(pairs)
    assert block.total == delta + 1
    wide = [(4, (1 << 62) + 1), (4, (1 << 62) + 1), (9, -5)]
    block = prepare_block(be, 16, wide, copies=AGGREGATE_MIN_COPIES)
    assert len(block.keys) == len(wide) and block.total == (1 << 63) - 3
    few = prepare_block(be, 16, [(4, 1), (4, 1)], copies=1)
    many = prepare_block(be, 16, [(4, 1), (4, 1)],
                         copies=AGGREGATE_MIN_COPIES)
    assert (few.folded, many.folded) == (2, 1)
    for chunk in (pairs, wide):
        lde = StreamingLDE(F, 16, rng=random.Random(5), backend=be)
        want = copy.deepcopy(lde)
        apply_stream_batched([lde] * 1, chunk)
        want.process_stream(chunk)
        assert (lde.value, lde.updates_processed) == (
            want.value, want.updates_processed)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("field,ell,u", [
    (PrimeField(2_147_483_647), 2, 300),    # p < 2^32: scalar backend
    (PrimeField(MERSENNE_127), 2, 300),     # p > 2^64: scalar backend
    (F, 3, 100), (F, 5, 625), (F, 64, 4096), (F, 2, 1 << 13),
])
def test_other_fields_and_grids(field, ell, u):
    be = get_backend(field, "vectorized")
    rng = random.Random(u)
    pairs = [(rng.randrange(u), rng.choice(BOUNDARY_DELTAS + [2, -3]))
             for _ in range(200)]
    ldes = [StreamingLDE(field, u, ell=ell, rng=rng, backend=be)
            for _ in range(AGGREGATE_MIN_COPIES + 1)]
    want = copy.deepcopy(ldes)
    apply_stream_batched(ldes, iter(pairs), block=64)
    for lde in want:
        lde.process_stream(pairs)
    assert [l.value for l in ldes] == [l.value for l in want]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_a_block_wider_than_a_tile_is_cut_into_column_runs():
    u = 16
    rng = random.Random(21)
    pairs = [(rng.randrange(u), rng.randrange(-2, 3))
             for _ in range(2 * TILE_ELEMENTS + 5)]
    be = get_backend(F, "vectorized")
    ldes = [StreamingLDE(F, u, rng=rng, backend=be) for _ in range(3)]
    want = copy.deepcopy(ldes[0])
    apply_stream_batched(ldes, pairs, block=len(pairs))  # un-aggregated
    want.process_stream(pairs)
    assert (ldes[0].value, ldes[0].updates_processed) == (
        want.value, len(pairs))


# -- the fused groups: one rule for every grid -------------------------------


def widest_group(ell):
    """⌊log_ℓ FUSE_LIMIT⌋: the most dimensions one fused table holds."""
    return max(w for w in range(1, 64) if ell ** w <= FUSE_LIMIT)


def group_bound(ell, d):
    """``G·ℓ^⌈d/G⌉``: the entries a copy's tables may hold in total."""
    groups = -(-d // widest_group(ell))
    return groups * ell ** -(-d // groups)


@pytest.mark.parametrize("ell", [2, 3, 4, 64])
def test_fuse_widths_are_the_fewest_balanced_groups(ell):
    """G = ⌈d / ⌊log_ℓ FUSE_LIMIT⌋⌉ groups — no update pays a gather
    more than it must — whose widths differ by at most one."""
    for d in range(1, 65):
        widths = fuse_widths(ell, d)
        assert len(widths) == -(-d // widest_group(ell)), d
        assert sum(widths) == d and max(widths) - min(widths) <= 1
        assert all(ell ** w <= FUSE_LIMIT for w in widths)
        assert sum(ell ** w for w in widths) <= group_bound(ell, d)


def group_edges(ell):
    """Dimensions where the group count or a width changes."""
    most = widest_group(ell)
    return sorted({1, 11, 12, 13, 17, 20, 22, 23, 24,
                   most, most + 1, 2 * most, 2 * most + 1})


@pytest.mark.parametrize("ell,d", [
    (ell, d) for ell in (2, 3, 4) for d in group_edges(ell)])
def test_group_edges_equal_the_per_update_loop(backend_name, ell, d):
    """Stacked LDEs (and, on the binary grid, stacked tree hashes and a
    heavy-hitters verifier) against their per-update loops at every
    group count and width change, the universe's first and last keys
    included."""
    u = ell ** d
    rng = random.Random(100 * ell + d)
    keys = [0, u - 1] + [rng.randrange(u) for _ in range(40)]
    pairs = [(key, rng.choice(BOUNDARY_DELTAS) if t % 9 == 0
              else rng.randrange(-5, 6))
             for t, key in enumerate(keys + keys[:20])]  # repeats
    copies = AGGREGATE_MIN_COPIES + 1
    pools = [[StreamingLDE(F, u, ell=ell, rng=rng) for _ in range(copies)]]
    if ell == 2:
        pools.append([TreeHashVerifier(F, u, rng=rng, normalized=t % 2)
                      for t in range(copies)])
    want = copy.deepcopy(pools)
    hitters = [HeavyHittersVerifier(F, u, 0.1, rng=rng)] if ell == 2 else []
    want_hitters = copy.deepcopy(hitters)
    for pool in pools:
        apply_stream_batched(pool, iter(pairs), block=32)
    for verifier in hitters:
        verifier.process_stream_batched(iter(pairs), block=32)
    for verifier in [v for pool in want for v in pool] + want_hitters:
        verifier.process_stream(pairs)

    def seen(verifier):
        if isinstance(verifier, StreamingLDE):
            return verifier.value, verifier.updates_processed
        return state(verifier)

    assert [[seen(v) for v in pool] for pool in pools + [hitters]] == [
        [seen(v) for v in pool] for pool in want + [want_hitters]]


# -- memory: tiles, not copies --------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_feed_memory_does_not_grow_with_the_copy_count():
    """Feeding one 4 096-update block peaks below a fixed budget at 64
    and at 512 copies, and the only fused tables are the stacked ones."""
    with use_backend("vectorized"):
        check_feed_memory()


def check_feed_memory():
    u = 1 << 12
    rng = random.Random(11)
    pairs = [(rng.randrange(u), rng.randrange(-3, 4)) for _ in range(4096)]
    budget = 1 << 20  # working memory of a feed: far below one table row set
    for copies in (64, 512):
        pool = IndependentCopies(
            copies, lambda r: RangeSumVerifier(F, u, rng=r),
            rng=random.Random(copies))
        pool.process_stream_batched(pairs)  # builds the tables
        for verifier in pool._fresh[:: copies // 2 - 1]:  # across tiles
            want = RangeSumVerifier(F, u, point=verifier.r)
            want.process_stream(pairs)
            assert verifier.lde.value == want.lde.value
        tracemalloc.start()
        try:
            pool.process_stream_batched(pairs)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, (copies, peak)
        # The grouping rule: ⌈12 / 11⌉ = 2 groups of 6 dimensions, one
        # row per copy, 128 entries a copy.
        tables = pool._stack._fused
        widths = [size.bit_length() - 1 for size, _t in tables]
        assert len(widths) == -(-12 // widest_group(2)) == 2
        assert sum(widths) == 12 and max(widths) - min(widths) <= 1
        assert [t.shape for size, t in tables] == [
            (copies, size) for size, _t in tables]
        assert sum(size for size, _t in tables) <= group_bound(2, 12)
        for verifier in pool._fresh:
            held = vars(verifier.lde)
            assert "_fused" not in held
            assert not any(
                hasattr(value, "__len__") and len(value) >= FUSE_LIMIT
                for value in held.values())


#: Bytes a fed copy may add beyond its tables' entries: its new value
#: and count (two Python ints, ~70 bytes) and its row's pointer.
COPY_SLACK = 256


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("log_u", [12, 17, 20])
def test_a_fed_copy_holds_its_group_tables_and_no_more(log_u):
    """What one more copy costs a fed stack, read by ``tracemalloc``:
    within ``8·G·2^⌈d/G⌉`` bytes plus a fixed slack.  Its tables hold
    1, 6 and 16 KiB at u = 2^12, 2^17 and 2^20."""
    be = get_backend(F, "vectorized")
    be.tile_scratch(TILE_ELEMENTS)  # per thread, not per stack
    u = 1 << log_u
    rng = random.Random(log_u)
    block = prepare_block(be, u, [(rng.randrange(u), rng.randrange(1, 4))
                                  for _ in range(1000)])

    def held(copies):
        ldes = [StreamingLDE(F, u, rng=rng, backend=be)
                for _ in range(copies)]
        tracemalloc.start()
        try:
            stack = SketchStack(be, 2, log_u)
            stack.add(ldes)
            stack.feed(block)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # Four rows or more put even the 2^12 tables (512 bytes a row)
    # above NumPy's small-allocation cache, which tracemalloc misses.
    few, many = 4, 20
    per_copy = (held(many) - held(few)) / (many - few)
    assert per_copy <= 8 * group_bound(2, log_u) + COPY_SLACK, per_copy


# -- the service client: one stack across all pools ---------------------------

U = 200
POOLS = {
    ("range-sum",): 3, ("batch",): 2, ("tree",): 2, ("f2",): 1,
    ("fk", 3): 1, ("inner-product",): 2, ("heavy-hitters", 1, 10): 2,
}


@pytest.fixture(scope="module")
def server():
    handle = ProverServer(F).serve_in_thread()
    yield handle
    handle.stop()


_DATASETS = iter(range(770_000, 780_000))


def connect(address, **kwargs):
    return ServiceClient(*address, F, U, dataset_id=next(_DATASETS),
                         rng=random.Random(3), **kwargs)


def client_pools(client):
    return [pool._fresh for pool in client._pools.values()]


def test_client_feeds_every_pool_kind_like_the_loop(server, backend_name):
    rng = random.Random(8)
    a = [(rng.randrange(U), rng.choice([1, -1, 2, P - 1, 1 << 63]))
         for _ in range(300)]
    b = [(rng.randrange(U), rng.randrange(-5, 6)) for _ in range(150)]
    with connect(server.address, provision=POOLS) as client:
        pools = client_pools(client)
        # Provisioning built no fused table: they are still built inside
        # the first block's (timed) feed.
        assert client._stack._fused is None
        for verifier in (v for pool in pools for v in pool):
            for sketch in verifier.stream_sketches:
                assert not any(
                    hasattr(value, "__len__") and len(value) >= FUSE_LIMIT
                    for value in vars(sketch).values())
        reference = copy.deepcopy(pools)
        client.send_updates(a, block=128)
        client.send_updates(b, vector=1, block=64)
        client._pools[("range-sum",)].take()
        reference[0].pop()
        client.send_updates(a[:50])
        loop_feed(reference, a)
        loop_feed(reference, b, vector=1)
        loop_feed(reference, a[:50])
        assert states(pools) == states(reference)
        assert client.updates_streamed == 500


def test_one_block_size_serves_every_ingest_path():
    """Client frames, replay blocks and in-process feeds share one cut."""
    assert REPLAY_BLOCK == DEFAULT_BLOCK


def test_a_default_block_is_one_updates_frame(server):
    with connect(server.address, provision={("f2",): 1}) as client:
        sent = client.frames_sent  # HELLO
        client.send_updates([(t % U, 1) for t in range(DEFAULT_BLOCK)])
        assert client.frames_sent == sent + 1
        client.send_updates([(t % U, 1) for t in range(DEFAULT_BLOCK + 1)])
        assert client.frames_sent == sent + 3


def interleaved_log(client, u, frames=2000, size=8, seed=21):
    """A writer that alternates vectors frame by frame, so its log
    replays as one frame per run; returns the updates it sent."""
    rng = random.Random(seed)
    sent = []
    for frame in range(frames):
        pairs = [(rng.randrange(u), rng.randrange(-3, 9))
                 for _ in range(size)]
        client.send_updates(pairs, vector=frame & 1)
        sent.extend((frame & 1, key, delta) for key, delta in pairs)
    return sent


def counted_feeds(monkeypatch, only=None):
    """The update count of every ``SketchStack.feed`` from now on (of
    the stack ``only``, when given)."""
    fed = []
    feed = SketchStack.feed

    def counted(stack, block, vector=0, live=None):
        if only is None or stack is only:
            fed.append(block.count)
        feed(stack, block, vector, live)

    monkeypatch.setattr(SketchStack, "feed", counted)
    return fed


def values(pools):
    """What a verifier keeps of its stream, mod p: a joiner folds net
    entries, so it holds these and not the update count."""
    out = []
    for pool in pools:
        for verifier in pool:
            for sketch in verifier.stream_sketches:
                if isinstance(sketch, StreamingLDE):
                    out.append(sketch.value)
                elif isinstance(sketch, HeavyHittersVerifier):
                    out.append((sketch.root, sketch.n % P))
                else:
                    out.append(sketch.root)
    return out


def touched(log):
    """Per vector, the keys whose net count the service holds nonzero —
    each delta as the wire delivered it."""
    nets = ({}, {})
    for vector, key, delta in log:
        nets[vector][key] = (nets[vector].get(key, 0)
                             + sp.decode_signed(F, delta % P))
    return [sorted(key for key, net in counts.items() if net)
            for counts in nets]


def test_an_interleaved_replay_feeds_each_vector_once_per_block(
        server, backend_name, monkeypatch):
    """Defect (k)'s log — 2 000 frames of 8 updates alternating vectors —
    replies in at most ⌈touched keys / DEFAULT_BLOCK⌉ frames per vector,
    one stacked feed each, and the joiner ends equal mod p to a client
    that watched from the start."""
    u = 1 << 12
    pools = {("range-sum",): 2, ("batch",): 1, ("tree",): 1}
    dataset = next(_DATASETS)
    with ServiceClient(*server.address, F, u, dataset_id=dataset,
                       rng=random.Random(5), provision=pools) as watcher:
        keys = touched(interleaved_log(watcher, u))
        fed = counted_feeds(monkeypatch)
        with ServiceClient(*server.address, F, u, dataset_id=dataset,
                           rng=random.Random(5), provision=pools) as joiner:
            frames = joiner.frames_received
            assert joiner.replay_missed() == 16_000
            assert joiner.updates_streamed == 16_000
            assert values(client_pools(joiner)) == values(
                client_pools(watcher))
            most = sum(-(-len(k) // DEFAULT_BLOCK) for k in keys)
            assert joiner.frames_received - frames <= most + 1  # + END
            # Each copy folded one entry per touched key of its lanes.
            batch = client_pools(joiner)[1][0]
            assert [lde.updates_processed
                    for lde in batch.stream_sketches] == list(map(len, keys))
    assert sum(fed) == sum(map(len, keys))
    assert len(fed) <= most


#: Per vector, a stream whose net counts hold every shape: keys that
#: cancel to 0 (the reply leaves them out), negative nets, a delta
#: outside int64 on the client, and a net the service holds outside
#: int64 (its count column turns to Python ints).
HALF_P = (P - 1) // 2
SHAPED = [
    (vector, key, delta)
    for vector in (0, 1)
    for key, delta in (
        [(k, 5) for k in range(10)] + [(k, -5) for k in range(10)]
        + [(10 + k, -1 - k - vector) for k in range(10)]
        + [(40 + vector, 1 << 63)] + [(60, HALF_P)] * 10
        + [(100 + k, 3 - k % 7) for k in range(60)])
]


def test_a_joiner_equals_a_watcher_for_every_pool_kind(
        server, backend_name, monkeypatch):
    dataset = next(_DATASETS)
    with ServiceClient(*server.address, F, U, dataset_id=dataset,
                       rng=random.Random(3), provision=POOLS) as watcher:
        for vector, run in itertools.groupby(SHAPED, key=lambda e: e[0]):
            watcher.send_updates([entry[1:] for entry in run],
                                 vector=vector)
        keys = touched(SHAPED)
        assert not set(range(10)) & (set(keys[0]) | set(keys[1]))
        held = server.listener.registry.datasets[dataset]
        assert held.freq_a[60] == held.freq_b[60] == 10 * HALF_P >= 1 << 63
        fed = counted_feeds(monkeypatch)
        with ServiceClient(*server.address, F, U, dataset_id=dataset,
                           rng=random.Random(3), provision=POOLS) as joiner:
            assert joiner.replay_missed() == len(SHAPED)
            assert values(client_pools(joiner)) == values(
                client_pools(watcher))
    assert fed == list(map(len, keys))


#: One request per pool of :data:`POOLS`, answered after catch-up.
PROBES = {
    ("range-sum",): (range_sum(5, 150),),
    ("batch",): (range_sum(0, 99), inner_product()),
    ("tree",): (point_lookup(60),),
    ("f2",): (f2(),),
    ("fk", 3): (fk(3),),
    ("inner-product",): (inner_product(),),
    ("heavy-hitters", 1, 10): (heavy_hitters(1, 10),),
}


def churned_blocks(seed=9):
    """Same-vector blocks, the vectors interleaved: vector 0 strict (heavy
    hitters answers it) with every insert above key 99 deleted again,
    vector 1 with negative nets."""
    rng = random.Random(seed)
    inserts = [60 if rng.random() < 0.3 else rng.randrange(U)
               for _ in range(2000)]
    a = ([(key, 1) for key in inserts]
         + [(key, -1) for key in inserts if key > 99])
    b = [(rng.randrange(U), rng.randrange(-3, 4)) for _ in range(800)]
    return [block for t in range(0, len(a), 97)
            for block in ((0, a[t:t + 97]), (1, b[t // 2:t // 2 + 53]))]


def inproc_pools():
    """Two copies per pool of :data:`POOLS`, provisioned as the
    benchmark's in-process session does, reproducibly."""
    rng = random.Random(4)
    return {
        key: ([QueryRouter.make_verifier(key, F, U, rng) for _ in range(2)]
              if key[0] in ("inner-product", "batch") else
              IndependentCopies(2, lambda r, key=key: QueryRouter.
                                make_verifier(key, F, U, r), rng=rng))
        for key in POOLS
    }


def inproc_feed(pools, pairs, vector):
    """What the benchmark's in-process session does with one block."""
    for copies in pools.values():
        if isinstance(copies, list):
            apply_stream_batched(
                [v.lde_a if vector == 0 else v.lde_b for v in copies],
                pairs, strict_u=U)
        elif vector == 0:
            copies.process_stream_batched(pairs)


def copies_of(pools, key):
    copies = pools[key]
    return getattr(copies, "_fresh", copies)


@pytest.mark.parametrize("block", [REPLAY_BLOCK, 7])
def test_an_in_process_joiner_equals_a_watcher_for_every_pool_kind(
        backend_name, block):
    """``Dataset.replay_slice`` read in the benchmark's loop — ``start``
    over ``range(0, n_updates, block)``, each slice's entries grouped by
    vector — leaves every copy where a watcher's is, mod p, and each
    copy's proof accepts with the watcher's answer."""
    registry = SessionRegistry(F)
    session = registry.connect(U, 1)
    dataset = session.dataset
    watcher, joiner = inproc_pools(), inproc_pools()
    for vector, pairs in churned_blocks():
        inproc_feed(watcher, pairs, vector)
        dataset.apply(vector, pairs)
    assert len(list(dataset.replay_slice(0, dataset.n_updates))) < (
        dataset.n_updates // 2)
    for start in range(0, dataset.n_updates, block):
        by_vector = {}
        for vector, key, count in dataset.replay_slice(start, block):
            by_vector.setdefault(vector, []).append((key, count))
        for vector, pairs in sorted(by_vector.items()):
            inproc_feed(joiner, pairs, vector)
    assert values([copies_of(joiner, key) for key in POOLS]) == values(
        [copies_of(watcher, key) for key in POOLS])
    for key in POOLS:
        (unit,) = QueryRouter.plan(list(PROBES[key]))
        assert unit.pool_key == key
        answers = []
        for pools in (joiner, watcher):
            for verifier in copies_of(pools, key):
                active = registry.open_query(
                    session.session_id, list(unit.descriptors), unit.batched)
                results = QueryRouter.run(unit, active.prover, verifier)
                session.close_query(active.ref)
                if not isinstance(results, list):
                    results = [results]
                assert all(result.accepted for result in results), key
                answers.append([result.value for result in results])
        assert all(answer == answers[0] for answer in answers)


class DropAfter(FaultSchedule):
    """Drops the frame at ``index`` once, after running ``meanwhile``."""

    def __init__(self, index, meanwhile):
        self.index, self.meanwhile = index, meanwhile

    def decide(self, direction, index, global_index, frame_type):
        if global_index != self.index:
            return None
        self.meanwhile()
        return Fault(KIND_DROP)


def test_a_write_during_a_cut_replay_is_not_folded(
        server, backend_name, monkeypatch):
    """A drop mid-reply resumes at ``skip`` = entries fed, so each entry
    is fed once; a write landing between the drop and the resume is not
    folded, since the reply stands for the log as the joiner found it."""
    u = 1 << 16
    wide = DEFAULT_BLOCK + 7  # vector 0's entries: two frames
    log = ([(0, key, 1 + key % 3) for key in range(wide)]
           + [(1, 5 * key, -2) for key in range(40)])
    pools = {("inner-product",): 1, ("tree",): 1}
    dataset = next(_DATASETS)
    with ServiceClient(*server.address, F, u, dataset_id=dataset,
                       rng=random.Random(6), provision=pools) as watcher:
        for vector, run in itertools.groupby(log, key=lambda e: e[0]):
            watcher.send_updates([entry[1:] for entry in run],
                                 vector=vector)
        seen = values(client_pools(watcher))

        def write():
            watcher.send_updates([(3, 1), (u - 1, 4)])

        # HELLO(0) ACK(1) REQUEST(2) DATA(3) DATA(4) DATA(5) END(6): the
        # write lands, then the second vector-0 frame is dropped.
        proxy = ChaosProxy(*server.address, schedule=DropAfter(4, write))
        handle = proxy.serve_in_thread()
        try:
            with ServiceClient(*handle.address, F, u, dataset_id=dataset,
                               rng=random.Random(6), provision=pools,
                               retry=RetryPolicy(base_delay=0.001)
                               ) as joiner:
                fed = counted_feeds(monkeypatch, only=joiner._stack)
                assert joiner.replay_missed() == len(log)
                assert joiner.retries == 1 and proxy.faults_injected == 1
                assert joiner._server_updates == len(log) + 2
                assert values(client_pools(joiner)) == seen
                assert seen != values(client_pools(watcher))
        finally:
            handle.stop()
    assert fed == [DEFAULT_BLOCK, 7, 40]


def test_a_replay_past_the_log_is_refused_on_a_live_connection(
        server, backend_name):
    with connect(server.address, provision={("f2",): 1}) as writer:
        writer.send_updates([(1, 2), (7, -1), (1, 3)])
        joiner = ServiceClient(*server.address, F, U,
                               dataset_id=writer.dataset_id,
                               rng=random.Random(3), retry=NO_RETRY,
                               provision={("f2",): 1})
        with joiner:
            before = states(client_pools(joiner))
            joiner.missed_updates = 4
            with pytest.raises(ServiceClientError,
                               match="replay stop 4 outside") as info:
                joiner.replay_missed()
            assert type(info.value) is ServiceClientError  # not retryable
            assert states(client_pools(joiner)) == before
            assert joiner.updates_streamed == 0
            joiner.missed_updates = 3
            assert joiner.replay_missed() == 3
            assert joiner.reconnects == 0
            assert values(client_pools(joiner)) == values(
                client_pools(writer))


@pytest.mark.parametrize("block", [0, -3])
def test_send_updates_refuses_a_non_positive_block(server, block):
    """block=-3 used to stream nothing without an error, block=0 died
    inside range()."""
    with connect(server.address, provision={("f2",): 1}) as client:
        before = states(client_pools(client))
        with pytest.raises(ValueError, match="block size must be positive"):
            client.send_updates([(1, 1), (2, 2)], block=block)
        assert client.updates_streamed == 0 and client.frames_sent == 1
        assert states(client_pools(client)) == before


def test_a_refused_frame_moves_no_copy(backend_name):
    # One token, refilled once an hour: the first UPDATES frame (HELLO
    # is exempt).
    handle = ProverServer(F, rate_limit=(1 / 3600, 1)).serve_in_thread()
    try:
        with connect(handle.address, provision=POOLS,
                     retry=NO_RETRY) as client:
            client.send_updates([(1, 1)])
            before = states(client_pools(client))
            # A bad key anywhere refuses the call before block one flies.
            with pytest.raises(ValueError, match="key 200 outside"):
                client.send_updates([(2, 1)] * 5 + [(200, 1)], block=2)
            assert client.frames_sent == 2
            # The service refuses the next frame: it fed nothing.
            with pytest.raises(ServiceBusyError):
                client.send_updates([(3, 1), (4, 1)])
            assert client.frames_sent == 3
            assert states(client_pools(client)) == before
            assert client.updates_streamed == 1
    finally:
        handle.stop()


class ReplayStub:
    """A one-dataset service that replays a scripted list of blocks —
    the service's own range check is exactly what it lacks."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.connections = 0
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                try:
                    self._talk(conn)
                except (OSError, EOFError):
                    pass

    @staticmethod
    def _read(conn, count):
        data = b""
        while len(data) < count:
            chunk = conn.recv(count - len(data))
            if not chunk:
                raise EOFError
            data += chunk
        return data

    def _talk(self, conn):
        total = sum(len(pairs) for _v, pairs in self.blocks)
        while True:
            header = self._read(conn, sp.HEADER_LEN)
            frame_type, _sid, length = sp.unpack_header(header)
            self._read(conn, sp.header_ext_len(header))
            payload = self._read(conn, length)
            if frame_type == sp.T_HELLO:
                conn.sendall(sp.pack_frame(
                    sp.T_HELLO_ACK, 1, sp.words_payload(F, [total])))
            elif frame_type == sp.T_REPLAY_REQUEST:
                self.requests.append(sp.parse_words(F, payload))
                conn.sendall(b"".join(
                    [sp.pack_frame(sp.T_REPLAY_DATA, 1,
                                   sp.updates_payload(F, vector, pairs))
                     for vector, pairs in self.blocks]
                    + [sp.pack_frame(sp.T_REPLAY_END, 1,
                                     sp.words_payload(F, [total]))]))
            elif frame_type == sp.T_UPDATES:
                total += 1
                conn.sendall(sp.pack_frame(
                    sp.T_UPDATES_ACK, 1, sp.words_payload(F, [total])))
            elif frame_type == sp.T_BYE:
                conn.sendall(sp.pack_frame(sp.T_BYE_ACK, 1))
                return


def test_a_bad_replayed_block_is_refused_whole_and_not_retried(
        backend_name):
    # The joiner feeds each frame as it arrives: the good frames before
    # the bad one are fed, the bad one — valid entries and all — is not.
    good = [(1, 2), (5, -1), (2, 1)]
    stub = ReplayStub([(0, good), (1, [(8, 1)]),
                       (0, [(3, 1), (4, 1), (U, 9), (6, 1)]),
                       (1, [(9, 2)])])
    try:
        client = connect(stub.address, provision=POOLS,
                         retry=RetryPolicy(base_delay=0.001))
        with client:
            pools = client_pools(client)
            reference = copy.deepcopy(pools)
            with pytest.raises(ServiceClientError,
                               match="key %d outside universe" % U) as info:
                client.replay_missed()
            assert type(info.value) is ServiceClientError  # not retryable
            assert (client.retries, stub.connections) == (0, 1)
            # The net form, from the length the HELLO reported.
            assert stub.requests == [[9, 0]]
            loop_feed(reference, good)
            loop_feed(reference, [(8, 1)], vector=1)
            assert states(pools) == states(reference)
            assert client.updates_streamed == len(good) + 1
            # The rest of that replay was still in flight, so the socket
            # is gone: the next operation re-dials instead of reading a
            # stale REPLAY_DATA frame as its reply.
            assert client._link is None
            client.send_updates([(2, 1)])
            assert (client.reconnects, stub.connections) == (1, 2)
            loop_feed(reference, [(2, 1)])
            assert states(pools) == states(reference)
    finally:
        stub.stop()
