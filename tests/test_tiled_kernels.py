"""The tiled prover kernels against exact Python-int arithmetic.

``fold_pairs``, ``f2_round_sums``, ``moment_round_sums``, ``pair_moments``,
``inner_product_round_sums`` and ``pair_prefix_sums`` /
``prefix_segment_sums`` work a Mersenne-61 table a tile at a time in
per-thread scratch, over only the 22-bit limbs the data reaches.  Every
table length around a tile and a prefix block,
every value class at a limb edge, every segment class, and every
overflow bound the in-place arithmetic leans on is pinned here on both
backends; only what needs two backends or NumPy itself is skipped when
NumPy is absent.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multiquery import (
    BatchedSumcheckEngine,
    batch_f2,
    batch_fk,
    batch_inner_product,
)
from repro.core.subvector import SubVectorProver
from repro.field import vectorized as vec
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    HAVE_NUMPY,
    ScalarBackend,
    VectorizedField,
    f2_round_sums,
    fold_pairs,
    frozen_table,
    get_backend,
    inner_product_round_sums,
    moment_round_sums,
    pair_moments,
)
from repro.lde.streaming import TILE_ELEMENTS, StreamingLDE

P = F.p
TILE = 2 * vec._TILE_PAIRS  # table entries per tile
BLOCK = 2 * vec._PREFIX_BLOCK  # table entries per prefix block

BACKENDS = [ScalarBackend(F)] + ([VectorizedField(F)] if HAVE_NUMPY else [])
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

LIMB_EDGES = [(1 << 22) - 1, 1 << 22, (1 << 44) - 1, 1 << 44, P - 1, P - 3,
              0, 1]
CHALLENGES = [0, 1, 2, P - 1, (P + 1) // 2, 0x1234_5678_9ABC_DEF % P]


@pytest.fixture(params=BACKENDS, ids=lambda be: be.name)
def backend(request):
    return request.param


def pattern(name: str, length: int, seed: int = 0):
    rng = random.Random(length * 31 + seed)
    if name == "zeros":
        return [0] * length
    if name == "one_nonzero":
        return [0] * (length - 1) + [P - 1]
    if name == "limb_edges":
        return [LIMB_EDGES[(t + seed) % len(LIMB_EDGES)]
                for t in range(length)]
    if name == "counts":
        return [rng.randrange(1000) for _ in range(length)]
    if name == "full":
        return [rng.randrange(P) for _ in range(length)]
    if name == "negative_counts":
        return [(-rng.randrange(1, 5)) % P if t % 97 == 0
                else rng.randrange(1000) for t in range(length)]
    if name == "tilewise":
        # One tile of one-limb counts, one of two-limb values, one full:
        # the limb count is chosen tile by tile.
        tops = [(1 << 22) - 1, (1 << 44) - 1, P - 1]
        return [tops[(t // TILE) % 3] for t in range(length)]
    return [int(name)] * length  # a constant table


def fold_oracle(table, r, w0=None):
    w0 = (1 - r) % P if w0 is None else w0
    return [(w0 * table[t] + r * table[t + 1]) % P
            for t in range(0, len(table), 2)]


def product_oracle(table_a, table_b):
    out = []
    for c in range(3):
        total = 0
        for t in range(0, len(table_a), 2):
            total += (((1 - c) * table_a[t] + c * table_a[t + 1])
                      * ((1 - c) * table_b[t] + c * table_b[t + 1]))
        out.append(total % P)
    return out


def check_all_kernels(backend, values, other, challenges=CHALLENGES[-1:],
                      segments=None):
    """Every kernel on ``values`` (and ``other`` as the second operand)
    equals plain integer arithmetic; the inputs come back unchanged."""
    table = backend.asarray(values)
    table_b = backend.asarray(other)
    for r in challenges:
        assert backend.to_list(fold_pairs(backend, F, table, r)) == \
            fold_oracle(values, r)
        assert backend.to_list(
            fold_pairs(backend, F, table, r, zero_weight=1)) == \
            fold_oracle(values, r, 1)
    assert f2_round_sums(backend, F, table) == product_oracle(values, values)
    assert inner_product_round_sums(backend, F, table, table_b) == \
        product_oracle(values, other)
    pairs = len(values) // 2
    even = [0]
    odd = [0]
    for t in range(pairs):
        even.append(even[-1] + values[2 * t])
        odd.append(odd[-1] + values[2 * t + 1])
    state = backend.pair_prefix_sums(table)
    if segments is None:
        cuts = sorted({0, 1, pairs // 2, pairs - 1, pairs,
                       *(k for k in (vec._PREFIX_BLOCK - 1,
                                     vec._PREFIX_BLOCK,
                                     vec._COLUMN_SUM_PAIRS - 1,
                                     vec._COLUMN_SUM_PAIRS,
                                     vec._TILE_PAIRS,
                                     vec._TILE_PAIRS + 1) if k <= pairs)})
        segments = [(s, e) for s in cuts for e in cuts if s <= e]
    for start, end in segments:
        want = (even[end] - even[start]) % P, (odd[end] - odd[start]) % P
        assert backend.prefix_segment_sums(state, start, end) == want
        assert backend.pair_segment_sums(table, start, end) == want
    assert backend.to_list(table) == values
    assert backend.to_list(table_b) == other


# -- table lengths × value classes ------------------------------------------------

SMALL_LENGTHS = [2, 4, BLOCK - 2, BLOCK, BLOCK + 2]
TILE_LENGTHS = [TILE - 2, TILE, TILE + 2]
PATTERNS = ["zeros", "one_nonzero", "limb_edges", "counts", "full",
            "negative_counts", str((1 << 22) - 1), str(1 << 22),
            str((1 << 44) - 1), str(1 << 44), str(P - 1)]


@pytest.mark.parametrize("name", PATTERNS)
@pytest.mark.parametrize("length", SMALL_LENGTHS)
def test_kernels_on_small_tables(backend, length, name):
    check_all_kernels(backend, pattern(name, length),
                      pattern("limb_edges", length, seed=3), CHALLENGES)


@pytest.mark.parametrize("name", ["limb_edges", "full", "counts",
                                  str(P - 1)])
@pytest.mark.parametrize("length", TILE_LENGTHS)
def test_kernels_around_one_tile(backend, length, name):
    check_all_kernels(backend, pattern(name, length),
                      pattern("full", length, seed=5))


@pytest.mark.parametrize("name", ["tilewise", "negative_counts"])
@pytest.mark.parametrize("length", [3 * TILE + 6, 1 << 17])
def test_kernels_across_tiles(backend, length, name):
    """Several tiles and a ragged last one; each tile picks its own limb
    count, and a negative count (p - small) costs that tile all three."""
    check_all_kernels(backend, pattern(name, length),
                      pattern("limb_edges", length, seed=1))


def test_fold_with_a_general_zero_weight(backend):
    values = pattern("limb_edges", TILE + 6)
    table = backend.asarray(values)
    for w0 in (0, 5, P - 1):
        for r in CHALLENGES:
            assert backend.to_list(
                fold_pairs(backend, F, table, r, zero_weight=w0)) == \
                fold_oracle(values, r, w0)


# -- every (start, end) class of a prefix lookup ----------------------------------


def test_prefix_segments_of_every_class(backend):
    """Empty, inside one block, block-aligned, ragged at one end or both,
    the whole table: all (start, end) over two blocks and a ragged tail."""
    length = 2 * BLOCK + 6
    pairs = length // 2
    check_all_kernels(
        backend, pattern("limb_edges", length), pattern("full", length),
        segments=[(s, e) for s in range(pairs + 1)
                  for e in range(s, pairs + 1)])


def test_prefix_segments_on_a_table_shorter_than_a_block(backend):
    check_all_kernels(
        backend, pattern("full", 10), pattern("counts", 10),
        segments=[(s, e) for s in range(6) for e in range(s, 6)])


# -- a sweep ----------------------------------------------------------------------

residues = st.one_of(
    st.sampled_from(LIMB_EDGES + [(1 << 22) + 1, (1 << 44) + 1, P - 2]),
    st.integers(0, P - 1),
    st.integers(0, 1 << 22),
)


@needs_numpy
@given(st.lists(st.tuples(residues, residues), min_size=1, max_size=40),
       st.lists(residues, min_size=80, max_size=80),
       st.integers(0, P - 1))
def test_vectorized_kernels_equal_the_scalar_backend(pairs, more, r):
    sb, be = BACKENDS
    values = [v for pair in pairs for v in pair]
    other = more[: len(values)]
    assert be.to_list(fold_pairs(be, F, be.asarray(values), r)) == \
        fold_pairs(sb, F, values, r)
    assert be.to_list(
        fold_pairs(be, F, be.asarray(values), r, zero_weight=1)) == \
        fold_pairs(sb, F, values, r, zero_weight=1)
    assert f2_round_sums(be, F, be.asarray(values)) == \
        f2_round_sums(sb, F, values)
    assert inner_product_round_sums(
        be, F, be.asarray(values), be.asarray(other)) == \
        inner_product_round_sums(sb, F, values, other)
    v_state = be.pair_prefix_sums(be.asarray(values))
    s_state = sb.pair_prefix_sums(values)
    for start in range(len(pairs) + 1):
        for end in range(start, len(pairs) + 1):
            assert be.prefix_segment_sums(v_state, start, end) == \
                sb.prefix_segment_sums(s_state, start, end) == \
                be.pair_segment_sums(be.asarray(values), start, end) == \
                sb.pair_segment_sums(values, start, end)
    for k in range(1, 8):
        assert moment_round_sums(be, F, be.asarray(values), (k,))[k] == \
            moment_round_sums(sb, F, values, (k,))[k]


# -- round messages from pair moments --------------------------------------------

ORDERS = [1, 2, 3, 4, 5, 8, 64]


def moment_oracle(values, k, p=P):
    """[g(0), ..., g(k)] one pair-line and one ``pow`` at a time."""
    return [
        sum(pow((1 - c) * values[t] + c * values[t + 1], k, p)
            for t in range(0, len(values), 2)) % p
        for c in range(k + 1)
    ]


def check_moments(backend, values, orders):
    table = frozen_table(backend, F, values)
    got = moment_round_sums(backend, F, table, orders)
    assert sorted(got) == sorted(set(orders))
    for k in got:
        assert got[k] == moment_oracle(values, k), k
        assert all(type(word) is int for word in got[k])
    assert backend.to_list(table) == values


@pytest.mark.parametrize("k", ORDERS)
def test_moments_around_the_tile_each_order_gets(backend, k):
    """Lengths 2, 4, 6, one pair short of a tile, a tile, a tile and a
    pair, and three tiles with a ragged fourth — for the tile of this
    order: 2^13 pairs at k = 2, 7447 at k = 3, 422 at k = 64."""
    tile = vec._moment_tile(k)[1]
    for length in (2, 4, 6, 2 * (tile - 1), 2 * tile, 2 * tile + 2):
        check_moments(backend, pattern("full", length, seed=k), [k])
    for name in ("counts", "limb_edges", "negative_counts"):
        check_moments(backend, pattern(name, 6 * tile + 10, seed=k), [k])


def test_raw_pair_moments_take_any_order_across_tiles(backend):
    """The raw moments the frequency-based prover combines: orders past
    the engine's 64 in one call, over two tiles and a ragged third of
    that top order, each ``Σ_t E_t^(k-j)·O_t^j`` mod p."""
    orders = [1, 2, 3, 65, 100]
    values = pattern("full", 2 * (2 * vec._moment_tile(100)[1] + 3))
    evens, odds = values[0::2], values[1::2]
    got = pair_moments(backend, backend.asarray(values), orders)
    assert sorted(got) == orders
    for k in orders:
        assert [m % P for m in got[k]] == [
            sum(pow(e, k - j, P) * pow(o, j, P)
                for e, o in zip(evens, odds)) % P
            for j in range(k + 1)], k


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_moments_on_either_side_of_the_unreduced_product(backend, k):
    """A power is a plain uint64 product while top^e < p and a Mersenne
    product from the first e with top^e >= p: for every e up to k - 1,
    the largest top still unreduced at e, the smallest reduced there,
    and a tile where only one entry decides."""
    for e in range(2, max(k, 3)):
        top = round(P ** (1 / e))
        top -= top ** e >= P
        assert top ** e < P <= (top + 1) ** e
        for values in ([top] * 8, [top + 1] * 8, [top, top + 1, 1, 0, 3, top],
                       [2] * 6 + [top + 1, 1]):
            check_moments(backend, values, [k])


@pytest.mark.parametrize("k", ORDERS)
def test_moments_at_the_limb_edges(backend, k):
    for top in LIMB_EDGES:
        check_moments(backend, [top] * 6, [k])
        check_moments(backend, [top, 0, 1, top, top - 1 if top else 0, 2],
                      [k])
    check_moments(backend, pattern("tilewise", 3 * TILE + 6), [k])


def test_order_two_alone_is_the_direct_f2_body_at_the_limb_edges(
        backend, monkeypatch):
    """An ``orders == [2]`` request — every F2-only engine round — takes
    the three direct limb products on a Mersenne-61 table, never the
    general moment pass, and equals the scalar reference at every limb
    edge, one tile and across tiles."""

    def general_pass(*_args):
        raise AssertionError("order 2 alone took the general moment pass")

    monkeypatch.setattr(vec, "_pair_moments_m61", general_pass)
    reference = ScalarBackend(F)
    cases = [pattern("tilewise", 3 * TILE + 6),
             pattern("limb_edges", TILE + 2, seed=5)]
    for top in LIMB_EDGES:
        cases += [[top] * 6, [top, 0, 1, top, top - 1 if top else 0, 2]]
    for values in cases:
        got = moment_round_sums(backend, F, frozen_table(backend, F, values),
                                [2])[2]
        assert got == moment_round_sums(reference, F, values, [2])[2] \
            == moment_oracle(values, 2)
        assert all(type(word) is int for word in got)


def test_a_set_of_orders_is_the_one_order_calls(backend):
    """The engine's one pass per round: shared powers and limb splits
    change nothing, in any order, with repeats, down to no order."""
    for name in ("counts", "full"):
        values = pattern(name, 2 * vec._moment_tile(5)[1] + 6)
        table = backend.asarray(values)
        together = moment_round_sums(backend, F, table, [5, 2, 3, 2])
        assert together == {
            k: moment_round_sums(backend, F, table, (k,))[k]
            for k in (2, 3, 5)}
        assert together[2] == f2_round_sums(backend, F, table)
        check_moments(backend, values, [2, 3, 5])
    assert moment_round_sums(backend, F, table, []) == {}
    with pytest.raises(ValueError, match="k must be >= 1"):
        moment_round_sums(backend, F, table, [3, 0])


@pytest.mark.parametrize("p", [P, 97, (1 << 89) - 1])
def test_fk_messages_equal_the_scalar_backend(p):
    """Same values mod p for k = 1..7 on both bodies — limb tiles at
    2^61 - 1, the scalar loop at every modulus — down to a single pair,
    and the per-pair reference's."""
    field = PrimeField(p, check_prime=False)
    sb, be = ScalarBackend(field), get_backend(field)
    rng = random.Random(p % 1000)
    for length in (2, 4, 64):
        values = [0, p - 1] + [rng.randrange(p) for _ in range(length - 2)]
        for k in range(1, 8):
            assert moment_round_sums(be, field, be.asarray(values),
                                     (k,))[k] == \
                moment_round_sums(sb, field, values, (k,))[k] == \
                moment_oracle(values, k, p)


@given(st.integers(1, 9), st.sampled_from([P, 97, (1 << 89) - 1]),
       st.lists(st.tuples(st.integers(0, 1 << 89), st.integers(0, 1 << 23)),
                min_size=1, max_size=24))
def test_moments_agree_on_every_execution_path(k, p, pairs):
    """The scalar loop and the Mersenne-61 tiles — the backend each
    modulus gets — compute one function, the per-pair reference."""
    field = PrimeField(p, check_prime=False)
    sb, be = ScalarBackend(field), get_backend(field)
    values = [v % p for pair in pairs for v in pair]
    want = moment_oracle(values, k, p)
    assert moment_round_sums(sb, field, values, (k,))[k] == want
    assert moment_round_sums(be, field, be.asarray(values), (k,))[k] == want
    orders = [k, 2, max(1, k - 2)]
    assert moment_round_sums(be, field, be.asarray(values), orders) == \
        moment_round_sums(sb, field, values, orders)


# -- the overflow bounds the in-place arithmetic relies on -----------------------


def test_fold_takes_the_largest_relaxed_residue(backend):
    """E = 0, O = p - 1 makes O + (p - E) = 2p - 1, the largest relaxed
    residue (< 2^62) the limb product meets; with r = p - 1 every partial
    product is at its bound too.  A whole tile of them, and its mirror."""
    for values in ([0, P - 1] * (TILE // 2 + 1), [P - 1, 0] * (TILE // 2 + 1),
                   [P - 1, P - 1] * 3):
        table = backend.asarray(values)
        for r in (P - 1, P - 2, (1 << 32) - 1, 1 << 32, ((1 << 29) - 1) << 32):
            assert backend.to_list(fold_pairs(backend, F, table, r)) == \
                fold_oracle(values, r)
            assert backend.to_list(
                fold_pairs(backend, F, table, r, zero_weight=1)) == \
                fold_oracle(values, r, 1)


def test_limb_dots_are_exact_on_a_full_tile_of_maximal_limbs(backend):
    """A 22-bit limb dot is exact in uint64 up to 2^19 terms; a tile is
    far inside that, and a tile whose every limb is 2^22 - 1 (and the
    largest residue, p - 1) sums without wrapping."""
    assert vec._TILE_PAIRS <= vec._DOT_CHUNK == 1 << 19
    assert ((1 << 22) - 1) ** 2 * vec._DOT_CHUNK < 1 << 63
    for top in ((1 << 22) - 1, (1 << 44) - 1, P - 1):
        values = [top] * (TILE + 2)
        check_all_kernels(backend, values, values, segments=[])


def test_block_totals_are_exact_for_maximal_residues(backend):
    """32-bit half totals stay below 2^63 for tables of up to 2^31 pairs;
    the largest residue everywhere is the worst case per pair."""
    assert (1 << 31) * ((1 << 32) - 1) < 1 << 63
    pairs = 3 * vec._PREFIX_BLOCK + 1
    table = backend.asarray([P - 1] * (2 * pairs))
    state = backend.pair_prefix_sums(table)
    for start, end in ((0, pairs), (1, pairs - 1),
                       (vec._PREFIX_BLOCK, 2 * vec._PREFIX_BLOCK)):
        want = (end - start) * (P - 1) % P
        assert backend.prefix_segment_sums(state, start, end) == (want, want)
        assert backend.pair_segment_sums(table, start, end) == (want, want)


def test_a_moment_tile_fits_the_scratch_and_its_dots_fit_a_word():
    """3k + 2 rows of one tile inside the 5 × 2^15 scratch entries at
    every order, never more pairs than the other kernels' tile, and a
    limb dot over the largest tile below 2^63."""
    assert [vec._moment_tile(k) for k in (1, 2, 3, 5, 8, 64)] == [
        (8, 8192), (8, 8192), (11, 7447), (17, 4818), (26, 3150), (194, 422)]
    for k in range(1, 200):
        rows, pairs = vec._moment_tile(k)
        assert rows >= 3 * k + 2 and 1 <= pairs <= vec._TILE_PAIRS
        assert rows * 2 * pairs <= 5 * TILE_ELEMENTS == 163840
        assert ((1 << 22) - 1) ** 2 * pairs < 1 << 63


@needs_numpy
def test_the_prover_tiles_live_in_the_ingest_scratch():
    """No second buffer pool: the kernels carve their rows out of the one
    1.25 MiB set of rows per thread the stacked ingest already holds —
    the moment kernel too, whatever its order."""
    be = BACKENDS[1]
    assert 4 * vec._TILE_PAIRS == TILE_ELEMENTS
    held = be.tile_scratch(TILE_ELEMENTS)
    values = pattern("full", 3 * TILE + 6)
    check_all_kernels(be, values, values, segments=[])
    check_moments(be, values[: TILE + 6], [2, 3, 8, 64])
    assert be.tile_scratch(TILE_ELEMENTS) is held
    assert held.nbytes == 5 * TILE_ELEMENTS * 8 == 1280 * 1024


# -- inputs are never written, scratch carries no state --------------------------


@pytest.mark.parametrize("name", ["counts", "full"])
def test_a_frozen_table_is_never_written(backend, name):
    """The aliasing contract of tests/test_dataset_tables.py for the raw
    kernels, tree-hash fold included: a shared read-only table survives
    every kernel bit for bit (a one-limb tile is dotted in place)."""
    values = pattern(name, TILE + 6)
    table = frozen_table(backend, F, values)
    other = frozen_table(backend, F, pattern("counts", TILE + 6, seed=9))
    r = CHALLENGES[-1]
    assert backend.to_list(fold_pairs(backend, F, table, r)) == \
        fold_oracle(values, r)
    assert backend.to_list(fold_pairs(backend, F, table, r, zero_weight=1)) \
        == fold_oracle(values, r, 1)
    f2_round_sums(backend, F, table)
    inner_product_round_sums(backend, F, table, other)
    inner_product_round_sums(backend, F, other, table)
    state = backend.pair_prefix_sums(table)
    backend.prefix_segment_sums(state, 3, len(values) // 2 - 1)
    moment_round_sums(backend, F, table, (3,))[3]
    assert backend.to_list(table) == values
    if backend.vectorized:
        assert not table.flags.writeable
    prover = SubVectorProver(F, len(values) - 6, backend=backend, freq=table)
    prover.receive_query(5, 9)
    prover.receive_challenge(r)
    assert backend.to_list(table) == values


def proof_steps(prover, query, challenges):
    """The prover's side of a one-query sum-check, one generator step per
    round."""
    prover.receive_batch([query])
    for r in challenges:
        (message,) = prover.round_messages()
        prover.receive_challenge(r)
        yield [int(word) for word in message]


def test_interleaved_provers_and_an_ingest_between_rounds(backend):
    """Scratch carries nothing from one call to the next: three provers
    advanced round by round in turn, with a stacked verifier ingest
    (which works in the same per-thread rows) between any two rounds,
    send what each sends when run alone."""
    u = 2 * TILE
    rng = random.Random(77)
    counts = frozen_table(backend, F, pattern("counts", u))
    full = frozen_table(backend, F, pattern("full", u))
    challenges = [rng.randrange(P) for _ in range(u.bit_length() - 1)]
    updates = [(rng.randrange(u), rng.randrange(-3, 4)) for _ in range(3000)]

    def provers():
        return ((BatchedSumcheckEngine(F, u, backend=backend, freq_a=counts),
                 batch_f2()),
                (BatchedSumcheckEngine(F, u, backend=backend, freq_a=full),
                 batch_fk(4)),
                (BatchedSumcheckEngine(F, u, backend=backend, freq_a=full,
                                       freq_b=counts),
                 batch_inner_product()))

    alone = [list(proof_steps(prover, query, challenges))
             for prover, query in provers()]
    running = [proof_steps(prover, query, challenges)
               for prover, query in provers()]
    # The ingest runs vectorized whenever NumPy is there, whichever
    # backend proves: that is the kernel that shares the scratch.
    lde = StreamingLDE(F, u, rng=random.Random(5), backend=BACKENDS[-1])
    together = [[] for _ in running]
    for _ in challenges:
        for steps, sent in zip(running, together):
            sent.append(next(steps))
            lde.process_stream_batched(updates)
    assert together == alone


@needs_numpy
def test_two_threads_proving_at_once_do_not_share_scratch():
    """More provers than cores, a short switch interval, NumPy releasing
    the GIL inside every pass: each thread's messages equal the ones it
    sends alone, and each thread held rows of its own."""
    import numpy as np

    be = BACKENDS[1]
    u = 4 * TILE
    challenges = [random.Random(3).randrange(P) for _ in range(u.bit_length() - 1)]
    tables = [frozen_table(be, F, pattern("full", u, seed=s)) for s in range(4)]
    want = [list(proof_steps(BatchedSumcheckEngine(F, u, backend=be,
                                                   freq_a=t),
                             batch_f2(), challenges))
            for t in tables]
    got = [None] * len(tables)
    held = [None] * len(tables)
    start = threading.Barrier(len(tables))

    def prove(k):
        start.wait(timeout=30)
        rounds = None
        for _ in range(3):
            rounds = list(proof_steps(
                BatchedSumcheckEngine(F, u, backend=be, freq_a=tables[k]),
                batch_f2(), challenges))
        got[k] = rounds
        held[k] = be.tile_scratch(TILE_ELEMENTS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=prove, args=(k,))
                   for k in range(len(tables))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    for k, rows in enumerate(held):
        for other in held[k + 1:]:
            assert not np.shares_memory(rows, other)
