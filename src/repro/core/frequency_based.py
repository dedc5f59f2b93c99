"""Frequency-based functions ``F(a) = Σ_i h(a_i)`` — Section 6.2, Theorem 6.

The obstacle: a sum-check over ``h ∘ f_a`` costs deg(h) words per round and
deg(h) can be as large as the largest frequency.  The fix: run the
heavy-hitters protocol with φ ≈ u^{-1/2} first, let the verifier account
for the heavy keys directly (F' = Σ_{i∈H} h(a_i)) and *remove* them from
its streamed LDE value (f̃_a(r) = f_a(r) − Σ_{v∈H} a_v χ_v(r)); then run
the sum-check against ``h̃ ∘ f̃_a`` where ``h̃`` is the degree-(τ-1)
interpolant of h on {0..τ-1} and τ = φ-heaviness threshold bounds every
remaining frequency.  Both parties hold h̃ as its τ values h(0..τ-1): the
verifier evaluates that table at f̃_a(r), the prover turns it into
coefficients once per proof.

Total: log u rounds, O(√u log u) communication, O(log u) verifier space.
Applications (Corollary 2): F0, Fmax, inverse-distribution point queries.
Strict (non-negative) streams only.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.comm.channel import Channel
from repro.core.base import (
    VerificationResult,
    accepted,
    pow2_dimension,
    rejected,
)
from repro.core.heavy_hitters import (
    HeavyHittersProver,
    HeavyHittersVerifier,
    heavy_threshold,
    run_heavy_hitters,
)
from repro.core.reporting import index_query
from repro.core.subvector import SubVectorProver, TreeHashVerifier
from repro.core.sumcheck import run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.field.polynomial import coefficients_from_evals, evaluate_from_evals
from repro.field.vectorized import (
    canonical_table,
    fold_pairs,
    get_backend,
    pair_moments,
    small_tables,
)
from repro.lde.chi import multilinear_chi
from repro.lde.streaming import StreamingLDE


def default_phi(u: int) -> float:
    """The paper's choice φ = u^(-1/2) (assuming n = Θ(u))."""
    return 1.0 / math.sqrt(max(u, 1))


class FrequencyBasedProver:
    """Composite prover: heavy hitters + the h̃ ∘ f̃_a sum-check."""

    def __init__(self, field: PrimeField, u: int, phi: float, backend=None):
        self.field = field
        self.u = u
        self.phi = phi
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = backend if backend is not None else get_backend(field)
        self.hh = HeavyHittersProver(field, u, phi, backend=self.backend)

    def process(self, i: int, delta: int) -> None:
        self.hh.process(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.hh.process(i, delta)

    @property
    def freq(self) -> List[int]:
        return self.hh.freq

    # -- sum-check phase ------------------------------------------------------

    def begin_sumcheck(self, evals: Sequence[int], heavy: Dict[int, int],
                       num_evals: int) -> None:
        """Start the h̃ ∘ f̃_a sum-check: h̃ given as ``evals`` = h(0..τ-1),
        the heavy keys' slots zeroed."""
        p = self.field.p
        coeffs = coefficients_from_evals(self.field, evals)
        # weights[b][a] = coef_(a+b)·C(a+b, b), the weight of the pair
        # moment S_(a,b) in the coefficient of c^b (round_message).
        self._weights = [
            [coeffs[a + b] * math.comb(a + b, b) % p
             for a in range(len(coeffs) - b)]
            for b in range(len(coeffs))
        ]
        self._num_evals = num_evals
        table = canonical_table(self.backend, self.field, self.freq)
        for idx in heavy:
            table[idx] = 0
        # This proof's backend: small_tables moves it to the scalar
        # mirror once the table is small; self.backend never changes.
        self._be, self._table = self.backend, table

    def round_message(self) -> List[int]:
        """[g(0), ..., g(num_evals-1)] with
        g(c) = Σ_t h̃((1-c)·A[2t] + c·A[2t+1]).

        With E_t = A[2t] and Δ_t = A[2t+1] - E_t the line is E_t + c·Δ_t,
        so g(c) = Σ_b c^b·Σ_(m>=b) coef_m·C(m,b)·S_(m-b,b) over the pair
        moments S_(a,b) = Σ_t E_t^a·Δ_t^b of the interleaved (E, Δ)
        table: one :func:`pair_moments` pass on either backend.
        """
        p = self.field.p
        be, table = self._be, self._table
        even = table[0::2]
        pairs_table = be.zeros(len(table))
        pairs_table[0::2] = even
        pairs_table[1::2] = be.sub(table[1::2], even)
        top = len(self._weights) - 1
        moments = pair_moments(be, pairs_table, range(1, top + 1)) \
            if top else {}
        moments[0] = [len(table) // 2]  # S_(0,0): every pair counts once
        by_power = [
            sum(w * moments[a + b][b] for a, w in enumerate(row)) % p
            for b, row in enumerate(self._weights)
        ]
        out = []
        for c in range(self._num_evals):
            acc = 0
            for coef in reversed(by_power):
                acc = (acc * c + coef) % p
            out.append(acc)
        return out

    def receive_challenge(self, r: int) -> None:
        self._be, self._table = small_tables(
            self._be, self.field,
            fold_pairs(self._be, self.field, self._table, r))


class FrequencyBasedVerifier:
    """Streaming state: HH verifier (r, s, t, n) + an LDE at a fresh point."""

    def __init__(
        self,
        field: PrimeField,
        u: int,
        phi: float,
        rng: Optional[random.Random] = None,
    ):
        self.field = field
        self.u = u
        self.phi = phi
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        rng = rng or random.Random()
        self.hh = HeavyHittersVerifier(field, u, phi, rng=rng)
        self.lde = StreamingLDE(field, self.size, ell=2, rng=rng)
        self.r = self.lde.point

    def process(self, i: int, delta: int) -> None:
        self.hh.process(i, delta)
        self.lde.update(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    @property
    def n(self) -> int:
        return self.hh.n

    @property
    def space_words(self) -> int:
        tau = heavy_threshold(self.phi, max(self.n, 1))
        # HH state + LDE state + the h̃ evaluation table (tau words) + one
        # round message (tau words).
        return self.hh.space_words + self.lde.space_words + 2 * tau


def run_frequency_based(
    prover: FrequencyBasedProver,
    verifier: FrequencyBasedVerifier,
    h: Callable[[int], int],
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Verify ``F(a) = Σ_{i∈[u]} h(a_i)`` for a strict stream.

    Runs the heavy-hitters sub-protocol, then the bounded-degree sum-check.
    The value returned is F(a) mod p.
    """
    ch = channel or Channel()
    field = verifier.field
    p = field.p
    d = verifier.d
    if prover.d != d:
        return rejected(ch.transcript, "prover/verifier dimension mismatch")

    # Phase 1: identify and verify the heavy hitters.
    hh_result = run_heavy_hitters(prover.hh, verifier.hh, ch)
    if not hh_result.accepted:
        return rejected(
            ch.transcript,
            "heavy-hitters sub-protocol rejected: %s" % hh_result.reason,
            verifier.space_words,
        )
    heavy: Dict[int, int] = hh_result.value
    tau = heavy_threshold(verifier.phi, verifier.n)

    # The verifier's direct contribution from the heavy keys, and the
    # removal of those keys from its streamed LDE value.
    f_prime = sum(h(c) for c in heavy.values()) % p
    f_tilde_at_r = verifier.lde.value
    for idx, count in heavy.items():
        bits = [(idx >> j) & 1 for j in range(d)]
        chi = multilinear_chi(field, bits, verifier.r)
        f_tilde_at_r = (f_tilde_at_r - count * chi) % p

    # h̃ as its values on [0, τ-1], where every light frequency lies.
    evals = [h(i) % p for i in range(tau)]
    num_evals = max(tau, 2)  # at least degree 1 so g(0)+g(1) is defined

    # Phase 2: the sum-check over h̃ ∘ f̃_a, on rounds d .. 2d-1.
    prover.begin_sumcheck(evals, heavy, num_evals)
    sumcheck = run_sumcheck_rounds(
        prover, verifier, ch, message_len=num_evals,
        target=evaluate_from_evals(field, evals, f_tilde_at_r),
        target_name="h̃(f̃_a(r))", round_offset=d,
    )
    if not sumcheck.accepted:
        return sumcheck

    # F(a) = sum-check total + F' - h(0)·(#heavy + padding), since the
    # zeroed heavy slots and the padded slots each contributed h(0).
    correction = (len(heavy) + (verifier.size - verifier.u)) * (h(0) % p)
    value = (sumcheck.value + f_prime - correction) % p
    return accepted(ch.transcript, value, verifier.space_words)


def frequency_based_protocol(
    stream,
    h: Callable[[int], int],
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """End-to-end Σ h(a_i) over a strict :class:`repro.streams.Stream`."""
    phi = phi if phi is not None else default_phi(stream.u)
    rng = rng or random.Random(0)
    verifier = FrequencyBasedVerifier(field, stream.u, phi, rng=rng)
    prover = FrequencyBasedProver(field, stream.u, phi)
    for i, delta in stream.updates():
        verifier.process(i, delta)
        prover.process(i, delta)
    return run_frequency_based(prover, verifier, h, channel)


def f0_protocol(
    stream,
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """F0 (distinct count): h(0) = 0, h(x) = 1 otherwise (Corollary 2)."""
    return frequency_based_protocol(
        stream, lambda x: 0 if x == 0 else 1, field, phi, rng, channel
    )


def inverse_distribution_protocol(
    stream,
    k: int,
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Number of keys occurring exactly ``k`` times: h = 1 at k, else 0."""
    if k < 1:
        raise ValueError("inverse-distribution point must be >= 1")
    return frequency_based_protocol(
        stream, lambda x: 1 if x == k else 0, field, phi, rng, channel
    )


def inverse_distribution_range_protocol(
    stream,
    k_lo: int,
    k_hi: int,
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Number of keys occurring between ``k_lo`` and ``k_hi`` times —
    "the number of items which occurred between k and k' times" (Sec 6.2)."""
    if not 1 <= k_lo <= k_hi:
        raise ValueError("need 1 <= k_lo <= k_hi")
    return frequency_based_protocol(
        stream, lambda x: 1 if k_lo <= x <= k_hi else 0, field, phi, rng,
        channel,
    )


def inverse_distribution_median_protocol(
    stream,
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> VerificationResult:
    """The median of the inverse distribution (Sec 6.2's "the median of
    this distribution"): the smallest frequency m such that at least half
    of the distinct keys occur <= m times.

    Composition: verify F0, let the prover claim m, then verify the two
    counting inequalities with inverse-distribution range queries.
    """
    rng = rng or random.Random(0)
    ch = Channel()
    f0_result = f0_protocol(stream, field, phi, rng, ch)
    if not f0_result.accepted:
        return f0_result
    distinct = f0_result.value
    if distinct == 0:
        return rejected(ch.transcript, "median of an empty distribution")
    half = (distinct + 1) // 2

    claimed = 0
    seen = 0
    histogram: Dict[int, int] = {}
    for f in stream.sparse_frequencies().values():
        if f > 0:
            histogram[f] = histogram.get(f, 0) + 1
    for freq in sorted(histogram):
        seen += histogram[freq]
        if seen >= half:
            claimed = freq
            break
    ch.prover_says(0, "median-claim", [claimed])
    if claimed < 1:
        return rejected(ch.transcript, "claimed median out of range")

    at_most_m = inverse_distribution_range_protocol(
        stream, 1, claimed, field, phi, rng, ch
    )
    if not at_most_m.accepted:
        return at_most_m
    if at_most_m.value < half:
        return rejected(
            ch.transcript,
            "fewer than half the keys occur <= the claimed median",
        )
    if claimed > 1:
        below_m = inverse_distribution_range_protocol(
            stream, 1, claimed - 1, field, phi, rng, ch
        )
        if not below_m.accepted:
            return below_m
        if below_m.value >= half:
            return rejected(
                ch.transcript,
                "the claimed median is not minimal",
            )
    return accepted(ch.transcript, claimed,
                    at_most_m.verifier_space_words)


def fmax_protocol(
    stream,
    field: PrimeField,
    phi: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> VerificationResult:
    """Fmax = max_i a_i (Corollary 2).

    The prover exhibits a lower bound: an index whose frequency is Fmax,
    verified with INDEX; then the frequency-based protocol with
    h(x) = [x > lb] certifies no frequency exceeds it.
    """
    rng = rng or random.Random(0)
    ch = Channel()

    # Step 1: the prover claims (index, lb); INDEX verifies a_index = lb.
    sub_prover = SubVectorProver(field, stream.u)
    sub_verifier = TreeHashVerifier(field, stream.u, rng=rng)
    for i, delta in stream.updates():
        sub_prover.process(i, delta)
        sub_verifier.process(i, delta)
    freq = sub_prover.freq
    lb = max(freq[: stream.u]) if stream.u else 0
    witness = freq.index(lb) if lb > 0 else 0
    ch.prover_says(0, "fmax-claim", [witness, lb])
    index_result = index_query(sub_prover, sub_verifier, witness, ch)
    if not index_result.accepted:
        return index_result
    if index_result.value != lb % field.p:
        return rejected(ch.transcript, "claimed witness frequency is wrong")

    # Step 2: certify that no frequency exceeds lb.
    upper_result = frequency_based_protocol(
        stream, lambda x: 1 if x > lb else 0, field, phi, rng, ch
    )
    if not upper_result.accepted:
        return upper_result
    if upper_result.value != 0:
        return rejected(
            ch.transcript,
            "some frequency exceeds the claimed maximum",
        )
    return accepted(ch.transcript, lb, upper_result.verifier_space_words)
