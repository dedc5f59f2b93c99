"""Property-style equivalence: the backend of every modulus agrees with
PrimeField.

Every backend op is checked against the scalar reference on random
batches — including negative values (stream deletions), values >= p, and
the edge residues {0, 1, p-1} — on the backend ``get_backend`` picks for
each prime: the Mersenne-61 limb arithmetic of :class:`VectorizedField`
for 2^61 - 1, :class:`ScalarBackend` for every other modulus.  What only
:class:`VectorizedField` has (the in-place tile kernels, ``net_columns``,
the limb dot's chunking and the prefix sums' word path) runs at
2^61 - 1.
"""

from __future__ import annotations

import random

import pytest

from repro.field.modular import PrimeField
from repro.field.primes import MERSENNE_61, MERSENNE_127
from repro.field.vectorized import (
    HAVE_NUMPY,
    ScalarBackend,
    VectorizedField,
    get_backend,
)

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: Mersenne-61 (the NumPy backend), then moduli the scalar backend
#: serves: small, 32-bit, mid-size and the Section 5 footnote field
#: 2^127 - 1.
PRIMES = [MERSENNE_61, 97, (1 << 31) - 1, (1 << 89) - 1, MERSENNE_127]


def sample_values(p: int, rng: random.Random, n: int = 400):
    edge = [0, 1, p - 1, p, p + 1, 2 * p - 1, -1, -p, -(p - 1)]
    body = [rng.randrange(-3 * p, 3 * p) for _ in range(n - len(edge))]
    return edge + body


def prime_id(p: int) -> str:
    return "p=%d" % p


#: The cases of what only VectorizedField has: 2^61 - 1 alone.
m61_only = pytest.mark.parametrize("p", [MERSENNE_61], ids=prime_id)


@pytest.fixture(params=PRIMES, ids=prime_id)
def setup(request):
    p = request.param
    field = PrimeField(p, check_prime=False)
    rng = random.Random(p % 1009)
    xs = sample_values(p, rng)
    ys = sample_values(p, random.Random(p % 2003 + 1))
    return field, get_backend(field), xs, ys


def test_asarray_canonicalizes(setup):
    field, be, xs, _ = setup
    assert be.to_list(be.asarray(xs)) == [x % field.p for x in xs]


def test_elementwise_ops_match_scalar(setup):
    field, be, xs, ys = setup
    ax, ay = be.asarray(xs), be.asarray(ys)
    assert be.to_list(be.add(ax, ay)) == [field.add(x, y) for x, y in zip(xs, ys)]
    assert be.to_list(be.sub(ax, ay)) == [field.sub(x, y) for x, y in zip(xs, ys)]
    assert be.to_list(be.mul(ax, ay)) == [field.mul(x, y) for x, y in zip(xs, ys)]


def test_scalar_broadcast_operands(setup):
    field, be, xs, _ = setup
    ax = be.asarray(xs)
    for c in [0, 1, field.p - 1, -7, field.p + 3]:
        assert be.to_list(be.mul(ax, c)) == [field.mul(x, c) for x in xs]
        assert be.to_list(be.add(ax, c)) == [field.add(x, c) for x in xs]
        assert be.to_list(be.sub(ax, c)) == [field.sub(x, c) for x in xs]


def test_aggregates_match_scalar(setup):
    field, be, xs, ys = setup
    ax, ay = be.asarray(xs), be.asarray(ys)
    assert be.sum(ax) == field.sum(xs)
    assert be.dot(ax, ay) == field.dot(xs, ys)


def test_mersenne_mul_exhaustive_near_boundary():
    """Dense check of the limb arithmetic around the 32-bit split points."""
    p = MERSENNE_61
    field = PrimeField(p, check_prime=False)
    be = VectorizedField(field)
    specials = [0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
                (1 << 61) - 2, p - 1, (1 << 30), (1 << 59) + 12345]
    xs = [a for a in specials for _ in specials]
    ys = [b for _ in specials for b in specials]
    assert be.to_list(be.mul(be.asarray(xs), be.asarray(ys))) == [
        a * b % p for a, b in zip(xs, ys)
    ]


def test_scalar_backend_mirror_api():
    field = PrimeField(MERSENNE_61, check_prime=False)
    sb = ScalarBackend(field)
    xs = [-5, 0, 1, field.p, 123456789]
    assert sb.asarray(xs) == [x % field.p for x in xs]
    assert sb.mul(xs[:3], 7) == [field.mul(x, 7) for x in xs[:3]]
    assert sb.sum(xs) == field.sum(xs)
    assert sb.take([10, 20, 30], [2, 0]) == [30, 10]


def test_get_backend_selection(monkeypatch):
    field = PrimeField(MERSENNE_61, check_prime=False)
    assert get_backend(field, "scalar").vectorized is False
    assert get_backend(field, "vectorized").vectorized is True
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    assert get_backend(field).vectorized is False
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    assert get_backend(field).vectorized is True
    monkeypatch.setenv("REPRO_BACKEND", "auto")
    assert get_backend(field).vectorized is True
    with pytest.raises(ValueError):
        get_backend(field, "no-such-backend")
    # NumPy has no path for any other modulus, whatever is asked for.
    for p in (97, (1 << 31) - 1, MERSENNE_127):
        other = PrimeField(p, check_prime=False)
        for name in ("scalar", "vectorized", "auto"):
            assert type(get_backend(other, name)) is ScalarBackend
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert type(get_backend(other)) is ScalarBackend
    with pytest.raises(ValueError, match="p = 97"):
        VectorizedField(PrimeField(97))


def test_prime_field_batch_inv_empty_and_single():
    """Regression: batch_inv([]) must return [] (no dangling-tail bug)."""
    field = PrimeField(MERSENNE_61, check_prime=False)
    assert field.batch_inv([]) == []
    assert field.batch_inv([7]) == [field.inv(7)]
    assert field.batch_inv([field.p - 1]) == [field.p - 1]


# -- PR 2 primitives: select / nonzero / scatter / stacks / limb dot ----------


def test_select_nonzero_concat(setup):
    field, be, xs, ys = setup
    sb = ScalarBackend(field)
    bits = [v % 2 for v in range(40)]
    a = [x % field.p for x in xs[:40]]
    b = [y % field.p for y in ys[:40]]
    expected = [a[t] if bits[t] else b[t] for t in range(40)]
    assert be.to_list(be.select(be.index_array(bits), be.asarray(a),
                                be.asarray(b))) == expected
    assert sb.select(bits, a, b) == expected
    # Scalar branches.
    assert be.to_list(be.select(be.index_array(bits), 7, 0)) == \
        [7 if v else 0 for v in bits]
    assert sb.select(bits, 7, 0) == [7 if v else 0 for v in bits]
    assert list(be.nonzero(be.index_array(bits))) == sb.nonzero(bits)
    assert be.to_list(be.concat(be.asarray(a[:5]), be.asarray(b[:3]))) == \
        sb.concat(a[:5], b[:3])


def test_scatter_sum_matches_scalar(setup):
    field, be, xs, _ = setup
    sb = ScalarBackend(field)
    rng = random.Random(field.p % 503)
    size = 32
    idx = [rng.randrange(size) for _ in range(len(xs))]
    weights = [x % field.p for x in xs]
    expected = sb.scatter_sum(idx, weights, size)
    got = be.to_list(be.scatter_sum(be.index_array(idx),
                                    be.asarray(weights), size))
    assert got == expected
    # Empty scatter yields zeros.
    assert be.to_list(be.scatter_sum(be.index_array([]), be.asarray([]),
                                     4)) == [0, 0, 0, 0]


def test_scatter_sum_chunking(monkeypatch):
    """Bucket sums stay exact across the chunk boundary."""
    field = PrimeField(MERSENNE_61, check_prime=False)
    be = VectorizedField(field)
    monkeypatch.setattr(VectorizedField, "_SCATTER_CHUNK", 16)
    rng = random.Random(1)
    idx = [rng.randrange(3) for _ in range(100)]
    weights = [rng.randrange(field.p) for _ in range(100)]
    expected = ScalarBackend(field).scatter_sum(idx, weights, 3)
    assert be.to_list(be.scatter_sum(be.index_array(idx),
                                     be.asarray(weights), 3)) == expected


def test_stack_row_ops_match_scalar(setup):
    field, be, xs, ys = setup
    sb = ScalarBackend(field)
    p = field.p
    rows = [[x % p for x in xs[k * 16:(k + 1) * 16]] for k in range(4)]
    r = xs[7] % p
    rs = [y % p for y in ys[:4]]

    def fold(w0, r):
        return [[(w0 * row[t] + r * row[t + 1]) % p
                 for t in range(0, len(row), 2)] for row in rows]

    assert [be.to_list(row) for row in be.row_fold(be.stack(rows), r)] == \
        sb.row_fold(sb.stack(rows), r) == fold(1 - r, r)
    assert [be.to_list(row) for row in be.row_fold(be.stack(rows), r,
                                                   zero_weight=1)] == \
        sb.row_fold(sb.stack(rows), r, zero_weight=1) == fold(1, r)
    assert [be.to_list(row) for row in be.rows_fold(be.stack(rows), rs)] == \
        sb.rows_fold(sb.stack(rows), rs) == [
            fold(1 - q, q)[k] for k, q in enumerate(rs)]


@m61_only
def test_in_place_tile_kernels_match_python_ints(p):
    """mul_into and row_int_dots — the stacked ingest kernel's two
    passes — against exact integer arithmetic, with and without the
    shared scratch rows, for signed int64 and for canonical operands."""
    import numpy as np

    field = PrimeField(p, check_prime=False)
    be = VectorizedField(field)
    xs = sample_values(p, random.Random(p % 1009))
    ys = sample_values(p, random.Random(p % 2003 + 1))
    rows = [[x % p for x in xs[k * 40:(k + 1) * 40]] for k in range(5)]
    other = [[y % p for y in ys[k * 40:(k + 1) * 40]] for k in range(5)]
    scratch = be.tile_scratch(5 * 40)
    assert scratch is be.tile_scratch(100)  # reused, never shrunk
    a, b, *work = (buf[:200].reshape(5, 40) for buf in scratch)
    a[...] = be.stack(rows)
    b[...] = be.stack(other)
    be.mul_into(a, b, work)
    assert [be.to_list(row) for row in a] == [
        [x * y % p for x, y in zip(r, o)] for r, o in zip(rows, other)]

    stack = be.stack(rows)
    edge = [0, 1, -1, (1 << 22) - 1, -(1 << 22), 1 << 44, -(1 << 62) - 1,
            (1 << 63) - 1, -(1 << 63)]
    rng = random.Random(p % 77)
    signed = edge + [rng.randrange(-9, 10) for _ in range(40 - len(edge))]
    for ints in (np.array(signed, dtype=np.int64),
                 np.array([3, -2] * 20, dtype=np.int64),
                 be.asarray(signed)):
        want = [sum(x * int(d) for x, d in zip(row, ints)) % p
                for row in rows]
        assert be.row_int_dots(stack, ints) == want
        assert be.row_int_dots(stack, ints, work) == want


@m61_only
def test_net_columns_sums_runs_exactly(p):
    import numpy as np

    be = VectorizedField(PrimeField(p, check_prime=False))
    rng = random.Random(5)
    keys = [rng.randrange(12) for _ in range(300)] + [40, 40, 41]
    deltas = [rng.randrange(-(1 << 50), 1 << 50) for _ in range(300)]
    deltas += [7, -7, (1 << 54)]
    want = {}
    for key, delta in zip(keys, deltas):
        want[key] = want.get(key, 0) + delta
    want = {key: net for key, net in want.items() if net}
    got_keys, got_nets = be.net_columns(
        np.array(keys, dtype=np.int64), np.array(deltas, dtype=np.int64))
    assert dict(zip(got_keys.tolist(), got_nets.tolist())) == want
    assert got_keys.tolist() == sorted(want) and 40 not in want
    one_key, one_net = be.net_columns(
        np.array([3, 3, 3], dtype=np.int64),
        np.array([1, 1, -5], dtype=np.int64))
    assert (one_key.tolist(), one_net.tolist()) == ([3], [-3])


def test_dot_limb_path_matches_reference(setup):
    field, be, xs, ys = setup
    a = [x % field.p for x in xs]
    b = [y % field.p for y in ys]
    expected = sum(x * y for x, y in zip(a, b)) % field.p
    assert be.dot(be.asarray(a), be.asarray(b)) == expected
    arr = be.asarray(a)
    assert be.dot(arr, arr) == sum(x * x for x in a) % field.p


def test_dot_chunking_is_exact(monkeypatch):
    import repro.field.vectorized as vec

    field = PrimeField(MERSENNE_61, check_prime=False)
    be = VectorizedField(field)
    monkeypatch.setattr(vec, "_DOT_CHUNK", 8)
    rng = random.Random(2)
    a = [rng.randrange(field.p) for _ in range(100)]
    b = [rng.randrange(field.p) for _ in range(100)]
    assert be.dot(be.asarray(a), be.asarray(b)) == \
        sum(x * y for x, y in zip(a, b)) % field.p


def test_f2_round_sums_matches_scalar(setup):
    from repro.field.vectorized import f2_round_sums

    field, be, xs, _ = setup
    sb = ScalarBackend(field)
    p = field.p
    table = [x % p for x in xs[:64]]
    want = [sum(((1 - c) * table[t] + c * table[t + 1]) ** 2
                for t in range(0, 64, 2)) % p for c in range(3)]
    assert f2_round_sums(be, field, be.asarray(table)) == \
        f2_round_sums(sb, field, table) == want


def test_fold_pairs_fast_path_edges():
    """The relaxed-operand m61 fold must agree with the reference at the
    challenge edges {0, 1, p-1} and on max-residue tables."""
    from repro.field.vectorized import fold_pairs

    field = PrimeField(MERSENNE_61, check_prime=False)
    be = VectorizedField(field)
    sb = ScalarBackend(field)
    p = field.p
    table = [0, p - 1, p - 1, 0, 1, p - 1, 123456789, p - 2]
    for r in (0, 1, p - 1, 2, (p + 1) // 2):
        assert be.to_list(fold_pairs(be, field, be.asarray(table), r)) == \
            fold_pairs(sb, field, list(table), r)
        assert be.to_list(fold_pairs(be, field, be.asarray(table), r,
                                     zero_weight=1)) == \
            fold_pairs(sb, field, list(table), r, zero_weight=1)


def test_interpolation_weights_match_single_evaluation():
    """One weight vector per (length, point) evaluates every message of
    that length — the batched driver's shared check — and at a node
    x < m it is the indicator of x."""
    from repro.field.polynomial import (
        evaluate_from_evals,
        interpolation_weights,
    )

    field = PrimeField(MERSENNE_61, check_prime=False)
    rng = random.Random(3)
    tables = [[rng.randrange(field.p) for _ in range(4)] for _ in range(9)]
    for x in (0, 2, 3, rng.randrange(field.p)):
        weights = interpolation_weights(field, 4, x)
        assert [sum(e * w for e, w in zip(t, weights)) % field.p
                for t in tables] \
            == [evaluate_from_evals(field, t, x) for t in tables]
    assert interpolation_weights(field, 4, 2) == [0, 0, 1, 0]


def _reference_pair_sums(field, table, start, end):
    p = field.p
    even = sum(table[2 * i] for i in range(start, end)) % p
    odd = sum(table[2 * i + 1] for i in range(start, end)) % p
    return even, odd


def test_pair_prefix_sums_segments_match_reference(setup):
    field, be, xs, _ = setup
    n = 1 << 6
    table_vals = [x % field.p for x in xs[:n]]
    table = be.asarray(table_vals)
    prefix = be.pair_prefix_sums(table)
    pairs = n // 2
    rng = random.Random(field.p % 4099)
    segments = [(0, pairs), (0, 0), (pairs, pairs), (0, 1), (pairs - 1, pairs)]
    segments += [tuple(sorted(rng.sample(range(pairs + 1), 2))) for _ in range(20)]
    for start, end in segments:
        assert be.prefix_segment_sums(prefix, start, end) == \
            be.pair_segment_sums(table, start, end) == \
            _reference_pair_sums(field, table_vals, start, end)


def test_pair_prefix_sums_scalar_backend_matches(setup):
    field, be, xs, _ = setup
    sb = ScalarBackend(field)
    n = 1 << 5
    table_vals = [x % field.p for x in xs[:n]]
    v_prefix = be.pair_prefix_sums(be.asarray(table_vals))
    s_prefix = sb.pair_prefix_sums(sb.asarray(table_vals))
    for start in range(n // 2 + 1):
        for end in range(start, n // 2 + 1):
            assert be.prefix_segment_sums(v_prefix, start, end) == \
                sb.prefix_segment_sums(s_prefix, start, end) == \
                _reference_pair_sums(field, table_vals, start, end)


def test_pair_prefix_sums_uint64_path_is_exact_at_scale():
    # The word path sums 32-bit word columns in uint64 to dodge
    # overflow; stress it with every entry at p-1, all words but the
    # top one full, so a raw residue cumsum would wrap.
    p = MERSENNE_61
    field = PrimeField(p, check_prime=False)
    be = VectorizedField(field)
    n = 1 << 12
    table_vals = [p - 1] * n
    prefix = be.pair_prefix_sums(be.asarray(table_vals))
    pairs = n // 2
    assert be.prefix_segment_sums(prefix, 0, pairs) == \
        be.pair_segment_sums(be.asarray(table_vals), 0, pairs) == \
        ((pairs * (p - 1)) % p, (pairs * (p - 1)) % p)
