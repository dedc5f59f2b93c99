"""Sum-check provers for the GKR layer polynomial.

* :class:`LayerSumcheck` — the prover the protocol runs, for the GKR
  summand ``add̃(z,x,y)(W(x)+W(y)) + mult̃(z,x,y)W(x)W(y)``.  Because the
  wiring predicates are sums of per-gate indicator products, the free
  suffix variables collapse through ``Σ_b eq(bit, b) = 1``: each phase
  reduces to a two-table sum-check whose tables the gates populate once
  (O(G + 2^b) per phase) instead of the brute-force O(G · 4^b) total.
  It is written once over the backend API (scatter, fold, dot), so both
  backends run the same algorithm and send the same words; a fold that
  leaves a small table hands the phase to Python ints
  (:func:`~repro.field.vectorized.small_tables`), as in the engine.
* :func:`boolean_sum` / :func:`round_message` — a generic driver over an
  evaluation closure that recomputes sums by brute force.  O(2^n)
  evaluations per round, kept as the obviously-correct test reference.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.field.modular import PrimeField
from repro.field.vectorized import (
    fold_pairs,
    get_backend,
    inner_product_round_sums,
    small_tables,
)
from repro.gkr.circuits import Gate, layer_wiring

#: A multivariate polynomial presented as an evaluation closure.
#: The point argument is a *reused* buffer (see :func:`boolean_sum` /
#: :func:`round_message`): read it synchronously and copy (e.g. slice)
#: anything you retain past the call.
Evaluator = Callable[[Sequence[int]], int]


def _suffix_sum(f: Evaluator, point: List[int], offset: int, count: int) -> int:
    """Sum of ``f`` over all 0/1 settings of ``point[offset:offset+count]``.

    The boolean suffix is enumerated as a binary counter directly into the
    caller's ``point`` buffer: per step only the bits that flip are
    rewritten (amortised 2 writes), so no per-evaluation list is
    allocated.  ``point[offset:offset+count]`` must be all zeros on entry
    and is restored to zeros on exit.
    """
    total = f(point)
    for mask in range(1, 1 << count):
        flipped = mask ^ (mask - 1)
        t = 0
        while flipped:
            point[offset + t] = (mask >> t) & 1
            flipped >>= 1
            t += 1
        total += f(point)
    for t in range(count):
        point[offset + t] = 0
    return total


def boolean_sum(field: PrimeField, f: Evaluator, num_vars: int) -> int:
    """Σ over {0,1}^num_vars of f — the quantity sum-check certifies.

    ``f`` receives one shared point buffer across all ``2^num_vars``
    evaluations; it must not retain the list without copying it.
    """
    point = [0] * num_vars
    return _suffix_sum(f, point, 0, num_vars) % field.p


def round_message(
    field: PrimeField,
    f: Evaluator,
    num_vars: int,
    prefix: Sequence[int],
    degree: int,
) -> List[int]:
    """Evaluations [g_j(0), ..., g_j(degree)] of the j-th round polynomial

        g_j(c) = Σ_{suffix ∈ {0,1}^{num_vars-j-1}} f(prefix, c, suffix)

    where j = len(prefix).  As in :func:`boolean_sum`, ``f`` sees one
    shared point buffer; copy before retaining.
    """
    p = field.p
    j = len(prefix)
    remaining = num_vars - j - 1
    if remaining < 0:
        raise ValueError("prefix longer than the variable count")
    point = list(prefix) + [0] * (1 + remaining)
    out = []
    for c in range(degree + 1):
        point[j] = c
        out.append(_suffix_sum(f, point, j + 1, remaining) % p)
    return out


class LayerSumcheck:
    """Prover for one GKR layer's 2b-variable sum-check.

    The layer polynomial over (x, y) ∈ {0,1}^{2b} is

        F(x, y) = Σ_g eq(z, g) · eq(wl_g, x) · eq(wr_g, y) · C_g(W(x), W(y))

    with C_g addition or multiplication.  Summing y out (each free eq
    factor sums to 1 over {0,1}) shows the x phase is the *two-table*
    sum-check of

        G(x) = Ã(x) · W̃(x) + B̃(x),
        A[x] = Σ_{add: wl=x} eq_z[g] + Σ_{mul: wl=x} eq_z[g]·W(wr_g),
        B[x] = Σ_{add: wl=x} eq_z[g]·W(wr_g),

    i.e. exactly the Appendix B.1 shape: gate contributions scatter into
    assignment-indexed tables once (the paper's "inner product of the
    input with a public function"), then every round is three pairwise
    products over tables that *halve* — O(G + 2^b) per phase.  The y
    phase repeats the construction over wr with x bound, with W(rx) a
    scalar lifted out of the arrays; its final folded tables are exactly
    ``add̃(z, rx, ry)`` and ``mult̃(z, rx, ry)``, so the wiring check
    costs nothing extra (:meth:`wiring_values`).

    ``eq_z`` is the indicator table of z over the layer's gate indices
    (:func:`repro.gkr.mle.eq_table`); ``table`` is the padded layer-below
    value table, canonical for the chosen backend; ``wiring`` optionally
    supplies the cached index arrays of
    :meth:`repro.gkr.circuits.LayeredCircuit.wiring_arrays`.
    """

    def __init__(
        self,
        field: PrimeField,
        gates: Sequence[Gate],
        b_next: int,
        eq_z,
        table,
        backend=None,
        wiring=None,
    ):
        self.field = field
        self.b = b_next
        self.be = be = backend if backend is not None else get_backend(field)
        if len(table) != 1 << b_next:
            raise ValueError(
                "layer-below table of %d values needs size %d"
                % (len(table), 1 << b_next)
            )
        self._table0 = table
        # The backend this phase's tables are on: ``be`` until a fold
        # leaves them small (small_tables), ``be`` again for the y phase.
        self._fold_be = be
        self._j = 0
        self._rx: List[int] = []
        self._wxf: Optional[int] = None
        self._wyf: Optional[int] = None
        self._add_v: Optional[int] = None
        self._mul_v: Optional[int] = None
        if wiring is None:
            wiring = layer_wiring(be, gates)
        left, right, _add_mask, sel_add, sel_mul = wiring
        self._wl_add = be.take(left, sel_add)
        self._wr_add = be.take(right, sel_add)
        self._wl_mul = be.take(left, sel_mul)
        self._wr_mul = be.take(right, sel_mul)
        self._w_add = be.take(eq_z, sel_add)  # eq_z over the add gates
        self._w_mul = be.take(eq_z, sel_mul)
        if b_next == 0:
            self._wxf = self._wyf = int(table[0]) % field.p
            self._add_v = be.sum(self._w_add)
            self._mul_v = be.sum(self._w_mul)
            return
        size = len(table)
        wr0_add = be.take(table, self._wr_add)
        wr0_mul = be.take(table, self._wr_mul)
        h_add = be.scatter_sum(self._wl_add, self._w_add, size)
        h_mul = be.scatter_sum(
            self._wl_mul, be.mul(self._w_mul, wr0_mul), size
        )
        self._A = be.add(h_add, h_mul)
        self._B = be.scatter_sum(
            self._wl_add, be.mul(self._w_add, wr0_add), size
        )
        self._W = table

    def _setup_y(self) -> None:
        """Rebuild the (A, B) tables over wr with x bound to rx."""
        from repro.gkr.mle import eq_table

        be = self.be
        size = len(self._table0)
        eqx = eq_table(self.field, self._rx, backend=be)
        self._Aa = be.scatter_sum(
            self._wr_add,
            be.mul(self._w_add, be.take(eqx, self._wl_add)),
            size,
        )
        self._Am = be.scatter_sum(
            self._wr_mul,
            be.mul(self._w_mul, be.take(eqx, self._wl_mul)),
            size,
        )
        self._Ay = be.add(self._Aa, be.mul(self._Am, self._wxf))
        self._Wy = self._table0
        self._fold_be = be

    # -- round messages ------------------------------------------------------

    def round_message(self) -> List[int]:
        """Evaluations [g_j(0), g_j(1), g_j(2)] of the round polynomial."""
        j = self._j
        if j >= 2 * self.b:
            raise RuntimeError(
                "all %d sum-check rounds already played" % (2 * self.b)
            )
        if j < self.b:
            return self._message(self._A, self._B, self._W, 1)
        return self._message(self._Ay, self._Aa, self._Wy, self._wxf)

    def _message(self, A, B, W, lift: int) -> List[int]:
        """Two-table round message for G = Ã·W̃ + lift·B̃: the shared
        inner-product kernel over (A, W), plus lift times B's even/odd
        sums."""
        be = self._fold_be
        p = self.field.p
        g0, g1, g2 = inner_product_round_sums(be, self.field, A, W)
        sb_even = be.sum(B[0::2])
        sb_odd = be.sum(B[1::2])
        return [(g0 + lift * sb_even) % p, (g1 + lift * sb_odd) % p,
                (g2 + lift * (2 * sb_odd - sb_even)) % p]

    # -- challenges ----------------------------------------------------------

    def receive_challenge(self, r: int) -> None:
        field = self.field
        p = field.p
        r %= p
        if self._j >= 2 * self.b:
            raise RuntimeError(
                "all %d sum-check rounds already played" % (2 * self.b)
            )
        be = self._fold_be
        if self._j < self.b:
            self._fold_be, self._A, self._B, self._W = small_tables(
                be, field, fold_pairs(be, field, self._A, r),
                fold_pairs(be, field, self._B, r),
                fold_pairs(be, field, self._W, r))
            self._rx.append(r)
            self._j += 1
            if self._j == self.b:
                self._wxf = int(self._W[0]) % p
                self._setup_y()
            return
        self._fold_be, self._Ay, self._Aa, self._Am, self._Wy = small_tables(
            be, field, fold_pairs(be, field, self._Ay, r),
            fold_pairs(be, field, self._Aa, r),
            fold_pairs(be, field, self._Am, r),
            fold_pairs(be, field, self._Wy, r))
        self._j += 1
        if self._j == 2 * self.b:
            self._wyf = int(self._Wy[0]) % p
            self._add_v = int(self._Aa[0]) % p
            self._mul_v = int(self._Am[0]) % p

    # -- results -------------------------------------------------------------

    def final_claims(self) -> Tuple[int, int]:
        """(W(rx), W(ry)) after all 2b challenges — the claims message."""
        if self._wxf is None or self._wyf is None:
            raise RuntimeError(
                "final claims need all %d rounds played" % (2 * self.b)
            )
        return self._wxf, self._wyf

    def wiring_values(self) -> Tuple[int, int]:
        """(add̃, mult̃) at (z, rx, ry) — free from the folded eq tables.

        The y-phase per-op tables fold to exactly
        ``Σ_g eq(z,g)·eq(wl_g, rx)·eq(wr_g, ry)``, which is the wiring
        predicate the verifier's final layer check needs.
        """
        if self._add_v is None or self._mul_v is None:
            raise RuntimeError(
                "wiring values need all %d rounds played" % (2 * self.b)
            )
        return self._add_v, self._mul_v
