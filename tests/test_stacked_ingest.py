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
from repro.service import ProverServer, ServiceClient
from repro.service import client as service_client
from repro.service import protocol as sp
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
    replays as one frame per run."""
    rng = random.Random(seed)
    for frame in range(frames):
        client.send_updates(
            [(rng.randrange(u), rng.randrange(-3, 9)) for _ in range(size)],
            vector=frame & 1)


def counted_feeds(monkeypatch):
    """The update count of every ``SketchStack.feed`` from now on."""
    fed = []
    feed = SketchStack.feed

    def counted(stack, block, vector=0, live=None):
        fed.append(block.count)
        feed(stack, block, vector, live)

    monkeypatch.setattr(SketchStack, "feed", counted)
    return fed


def test_an_interleaved_replay_feeds_each_vector_once_per_block(
        server, backend_name, monkeypatch):
    """2 000 frames of 8 updates alternating vectors: the joiner ends
    equal to a client that watched from the start, in at most two
    stacked feeds (one per vector) per replay block."""
    u = 1 << 12
    pools = {("range-sum",): 2, ("batch",): 1, ("tree",): 1}
    dataset = next(_DATASETS)
    with ServiceClient(*server.address, F, u, dataset_id=dataset,
                       rng=random.Random(5), provision=pools) as watcher:
        interleaved_log(watcher, u)
        fed = counted_feeds(monkeypatch)
        with ServiceClient(*server.address, F, u, dataset_id=dataset,
                           rng=random.Random(5), provision=pools) as joiner:
            assert joiner.replay_missed() == 16_000
            assert states(client_pools(joiner)) == states(
                client_pools(watcher))
    assert sum(fed) == 16_000
    assert len(fed) <= 2 * -(-16_000 // DEFAULT_BLOCK)


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
            self._read(conn, length)
            if frame_type == sp.T_HELLO:
                conn.sendall(sp.pack_frame(
                    sp.T_HELLO_ACK, 1, sp.words_payload(F, [total])))
            elif frame_type == sp.T_REPLAY_REQUEST:
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
        backend_name, monkeypatch):
    # A replay block of three updates: the good run is one block, then a
    # vector-1 run and a vector-0 run with a bad key share the next.
    monkeypatch.setattr(service_client, "DEFAULT_BLOCK", 3)
    good = [(1, 2), (5, -1), (1, 1)]
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
            # The good block before it was fed; the bad one moved no
            # copy of any pool, not even by its valid runs.
            loop_feed(reference, good)
            assert states(pools) == states(reference)
            assert client.updates_streamed == len(good)
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
