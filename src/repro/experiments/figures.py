"""Regenerators for every figure of the paper's evaluation (Section 5).

Each ``figure_*`` function sweeps the same quantities the paper plots and
returns a :class:`repro.experiments.harness.FigureData` whose series can
be printed or asserted on.  Default sizes are laptop-Python scale; pass
larger ``sizes`` to push further (everything is O(u) or O(u^1.5)).

Paper shapes being reproduced:

* 2(a) — both verifiers stream in linear time; the one-round verifier is a
  small constant factor faster.
* 2(b) — multi-round prover is linear in u; one-round prover grows ~u^1.5
  and loses badly at scale.
* 2(c) — multi-round space/communication are O(log u) words (≤ 1KB);
  one-round are Θ(√u).
* 3(a) — SUB-VECTOR verifier and prover times are both ~linear and close.
* 3(b) — SUB-VECTOR space/communication ≤ ~1KB beyond the k answer words.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary import (
    AdaptiveF2Cheater,
    AlteringSubVectorProver,
    ConcealingHeavyHittersProver,
    ModifiedStreamF2Prover,
    OffsetClaimF2Prover,
    OmittingSubVectorProver,
    flip_word,
)
from repro.comm.channel import Channel
from repro.core.f2 import F2Verifier, run_f2
from repro.core.heavy_hitters import HeavyHittersVerifier, run_heavy_hitters
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2
from repro.core.single_round import (
    SingleRoundF2Prover,
    SingleRoundF2Verifier,
    run_single_round_f2,
)
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.experiments.harness import FigureData, throughput, time_call
from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.vectorized import ScalarBackend, get_backend
from repro.lde.streaming import StreamingLDE, dimension_for
from repro.streams.generators import uniform_frequency_stream, zipf_stream

DEFAULT_SIZES = [1 << 8, 1 << 10, 1 << 12, 1 << 14]
SUBVECTOR_RANGE_LENGTH = 1000  # the paper's reported experiments use 1000


def _stream_for(u: int, seed: int = 0):
    """The Section 5 workload: u = n, counts uniform in [0, 1000]."""
    return uniform_frequency_stream(u, max_frequency=1000,
                                    rng=random.Random(seed))


def figure_2a(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
) -> FigureData:
    """Verifier stream-processing time vs input size (Figure 2(a))."""
    fig = FigureData("fig2a", "Verifier's time (s) vs n")
    for u in sizes:
        stream = _stream_for(u, seed)
        rng = random.Random(seed + 1)
        multi = F2Verifier(field, u, rng=rng)
        single = SingleRoundF2Verifier(field, u, rng=rng)
        t_multi, _ = time_call(lambda: multi.process_stream(stream.updates()))
        t_single, _ = time_call(lambda: single.process_stream(stream.updates()))
        fig.series_named("multi-round").add(u, t_multi)
        fig.series_named("one-round").add(u, t_single)
        fig.series_named("multi-round ups").add(u, throughput(len(stream), t_multi))
        fig.series_named("one-round ups").add(u, throughput(len(stream), t_single))
    fig.note("both linear; one-round verifier ahead by a constant factor "
             "(lookup table within its O(sqrt u) budget), as in the paper")
    return fig


def _time_multi_round_prover(field: PrimeField, u: int, stream,
                             seed: int) -> float:
    prover = BatchedSumcheckEngine(field, u)
    prover.process_stream(stream.updates())
    rng = random.Random(seed)
    challenges = field.rand_vector(rng, prover.d)

    def produce_proof():
        prover.receive_batch([batch_f2()])
        for j in range(prover.d):
            prover.round_messages()
            if j < prover.d - 1:
                prover.receive_challenge(challenges[j])

    elapsed, _ = time_call(produce_proof)
    return elapsed


def _time_single_round_prover(field: PrimeField, u: int, stream) -> float:
    prover = SingleRoundF2Prover(field, u)
    prover.process_stream(stream.updates())
    elapsed, _ = time_call(prover.proof_message)
    return elapsed


def figure_2b(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
    single_round_cap: int = 1 << 14,
) -> FigureData:
    """Prover proof-generation time vs universe size (Figure 2(b)).

    The one-round prover's u^{3/2} cost makes large sizes prohibitive (in
    the paper too: "minutes ... at u = 2^22"); ``single_round_cap`` bounds
    where it is still run.
    """
    fig = FigureData("fig2b", "Prover's time (s) vs u")
    for u in sizes:
        stream = _stream_for(u, seed)
        fig.series_named("multi-round").add(
            u, _time_multi_round_prover(field, u, stream, seed + 2)
        )
        if u <= single_round_cap:
            fig.series_named("one-round").add(
                u, _time_single_round_prover(field, u, stream)
            )
    fig.note("multi-round ~linear (slope ~1); one-round ~u^1.5 "
             "(slope ~1.5): doubling u multiplies its cost by ~2.8")
    return fig


def figure_2c(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
) -> FigureData:
    """Verifier space and communication (bytes) vs u (Figure 2(c))."""
    fig = FigureData("fig2c", "Space and communication (bytes) vs u")
    wb = field.word_bytes
    for u in sizes:
        stream = _stream_for(u, seed)
        rng = random.Random(seed + 3)

        verifier = F2Verifier(field, u, rng=rng)
        prover = BatchedSumcheckEngine(field, u)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        result = run_f2(prover, verifier)
        assert result.accepted
        fig.series_named("multi-round space").add(
            u, result.verifier_space_words * wb
        )
        fig.series_named("multi-round comm").add(
            u, result.transcript.total_words * wb
        )

        sr_verifier = SingleRoundF2Verifier(field, u, rng=rng)
        sr_prover = SingleRoundF2Prover(field, u)
        sr_verifier.process_stream(stream.updates())
        sr_prover.process_stream(stream.updates())
        sr_result = run_single_round_f2(sr_prover, sr_verifier)
        assert sr_result.accepted
        fig.series_named("one-round space").add(
            u, sr_result.verifier_space_words * wb
        )
        fig.series_named("one-round comm").add(
            u, sr_result.transcript.total_words * wb
        )
    fig.note("multi-round stays O(log u) words (< 1KB); one-round grows "
             "as sqrt(u)")
    return fig


def figure_3a(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
    range_length: int = SUBVECTOR_RANGE_LENGTH,
) -> FigureData:
    """SUB-VECTOR verifier and prover time vs u (Figure 3(a))."""
    fig = FigureData("fig3a", "SUB-VECTOR verifier and prover time (s) vs u")
    for u in sizes:
        stream = _stream_for(u, seed)
        rng = random.Random(seed + 4)
        verifier = TreeHashVerifier(field, u, rng=rng)
        prover = SubVectorProver(field, u)
        t_verify_stream, _ = time_call(
            lambda: verifier.process_stream(stream.updates())
        )
        prover.process_stream(stream.updates())
        lo = 0
        hi = min(u - 1, lo + max(range_length, 1) - 1)

        def run_query():
            return run_subvector(prover, verifier, lo, hi)

        t_proof, result = time_call(run_query)
        assert result.accepted
        fig.series_named("verifier").add(u, t_verify_stream)
        fig.series_named("prover").add(u, t_proof)
    fig.note("verifier's streaming time ~linear and similar to F2; the "
             "prover's work is about the same as the verifier's")
    return fig


def figure_3b(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
    range_length: int = SUBVECTOR_RANGE_LENGTH,
) -> FigureData:
    """SUB-VECTOR space and communication vs u (Figure 3(b))."""
    fig = FigureData("fig3b", "SUB-VECTOR space and communication (bytes) vs u")
    wb = field.word_bytes
    for u in sizes:
        stream = _stream_for(u, seed)
        rng = random.Random(seed + 5)
        verifier = TreeHashVerifier(field, u, rng=rng)
        prover = SubVectorProver(field, u)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        lo = 0
        hi = min(u - 1, lo + max(range_length, 1) - 1)
        result = run_subvector(prover, verifier, lo, hi)
        assert result.accepted
        answer_words = 2 * result.value.k
        fig.series_named("space").add(u, result.verifier_space_words * wb)
        fig.series_named("comm").add(u, result.transcript.total_words * wb)
        fig.series_named("comm minus answer").add(
            u, (result.transcript.total_words - answer_words) * wb
        )
    fig.note("communication is dominated by the k reported values; the "
             "protocol overhead beyond the answer stays ~O(log u) words")
    return fig


def tamper_study(
    u: int = 1 << 10,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
) -> Dict[str, bool]:
    """The Section 5 robustness experiment.

    Returns {strategy name: rejected?}; every entry must be True, while
    'honest' (included as a control) must be False.
    """
    stream = _stream_for(u, seed)
    outcomes: Dict[str, bool] = {}

    def f2_run(prover_cls, **kwargs) -> bool:
        rng = random.Random(seed + 6)
        verifier = F2Verifier(field, u, rng=rng)
        prover = prover_cls(field, u, **kwargs)
        verifier.process_stream(stream.updates())
        prover.process_stream(stream.updates())
        return not run_f2(prover, verifier).accepted

    outcomes["honest"] = f2_run(BatchedSumcheckEngine)
    outcomes["f2-modified-stream"] = f2_run(ModifiedStreamF2Prover,
                                            corrupt_key=3)
    outcomes["f2-offset-claim"] = f2_run(OffsetClaimF2Prover)
    outcomes["f2-adaptive-cheat"] = f2_run(AdaptiveF2Cheater)

    rng = random.Random(seed + 7)
    verifier = F2Verifier(field, u, rng=rng)
    prover = BatchedSumcheckEngine(field, u)
    verifier.process_stream(stream.updates())
    prover.process_stream(stream.updates())
    channel = Channel(tamper=flip_word(round_index=2, position=1))
    outcomes["f2-bitflip-in-flight"] = not run_f2(prover, verifier,
                                                  channel).accepted

    present = [i for i, f in enumerate(stream.frequency_vector()) if f][:3]
    lo, hi = 0, min(u - 1, 255)

    def subvector_run(prover_cls, **kwargs) -> bool:
        rng = random.Random(seed + 8)
        v = TreeHashVerifier(field, u, rng=rng)
        pr = prover_cls(field, u, **kwargs)
        v.process_stream(stream.updates())
        pr.process_stream(stream.updates())
        return not run_subvector(pr, v, lo, hi).accepted

    outcomes["subvector-omit"] = subvector_run(
        OmittingSubVectorProver, omit_key=present[0]
    )
    outcomes["subvector-alter"] = subvector_run(
        AlteringSubVectorProver, alter_key=present[1]
    )

    z = zipf_stream(u, 8 * u, rng=random.Random(seed + 9))
    heavy = sorted(z.heavy_hitters(0.01))
    if heavy:
        rng = random.Random(seed + 10)
        v = HeavyHittersVerifier(field, u, 0.01, rng=rng)
        pr = ConcealingHeavyHittersProver(field, u, 0.01,
                                          conceal_key=heavy[0])
        v.process_stream(z.updates())
        pr.process_stream(z.updates())
        outcomes["hh-conceal"] = not run_heavy_hitters(pr, v).accepted
    return outcomes


def figure_vectorized(
    sizes: Sequence[int] = DEFAULT_SIZES,
    field: PrimeField = DEFAULT_FIELD,
    seed: int = 0,
) -> FigureData:
    """Verifier updates/sec: scalar per-update loop vs batched backend.

    Extension figure (not in the paper): the same Theorem 1 maintenance,
    run once through ``StreamingLDE.process_stream`` on the scalar
    backend and once through ``process_stream_batched`` on the
    auto-selected backend.  Without NumPy both series coincide.
    """
    fig = FigureData(
        "fig-vec", "LDE updates/sec: scalar loop vs batched backend"
    )
    for u in sizes:
        stream = _stream_for(u, seed)
        updates = list(stream.updates())
        point = field.rand_vector(random.Random(seed + 2), dimension_for(u, 2))
        scalar = StreamingLDE(field, u, point=point,
                              backend=ScalarBackend(field))
        t_scalar, _ = time_call(lambda: scalar.process_stream(updates))
        batched = StreamingLDE(field, u, point=point)
        t_batched, _ = time_call(
            lambda: batched.process_stream_batched(updates)
        )
        if batched.value != scalar.value:  # pragma: no cover - correctness guard
            raise AssertionError("batched LDE diverged from the scalar loop")
        fig.series_named("scalar").add(u, throughput(len(updates), t_scalar))
        fig.series_named("batched").add(u, throughput(len(updates), t_batched))
    fig.note("backend: %s" % get_backend(field).name)
    fig.note("paper shape: both linear; batched higher by a constant factor")
    return fig


def ipv6_extrapolation(
    measured_updates_per_second: float,
    field: PrimeField = DEFAULT_FIELD,
) -> Dict[str, float]:
    """The paper's closing extrapolation, with our measured throughput.

    1TB of IPv6 addresses ≈ 6×10^10 values over a log u = 128-bit domain.
    The prover's cost scales with n · (log u ratio); the paper scales its
    500s measurement (10^10 updates, log u ≈ 33) by 6 × ~4 ≈ 24×.
    """
    n_ipv6 = 6e10
    logu_ratio = 128 / 33.0
    seconds = n_ipv6 / measured_updates_per_second * logu_ratio
    return {
        "updates": n_ipv6,
        "log_u_ratio": logu_ratio,
        "estimated_prover_seconds": seconds,
        "estimated_prover_hours": seconds / 3600.0,
    }


ALL_FIGURES: Dict[str, Callable[..., FigureData]] = {
    "fig2a": figure_2a,
    "fig2b": figure_2b,
    "fig2c": figure_2c,
    "fig3a": figure_3a,
    "fig3b": figure_3b,
    "fig-vec": figure_vectorized,
}


def run_all(sizes: Optional[Sequence[int]] = None) -> List[FigureData]:
    """Regenerate every figure (used by `python -m repro.experiments`)."""
    out = []
    for name, fn in ALL_FIGURES.items():
        fig = fn(sizes) if sizes else fn()
        out.append(fig)
    return out
