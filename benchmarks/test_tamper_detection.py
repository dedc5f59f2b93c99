"""The Section 5 robustness experiment, plus the IPv6 extrapolation.

Paper: "When the prover was honest, both protocols always accepted ... In
all cases, the protocols caught the error, and rejected the proof."
"""

from __future__ import annotations

import random

from repro.experiments.figures import ipv6_extrapolation, tamper_study
from repro.experiments.harness import throughput, time_call
from benchmarks.conftest import section5_stream
from repro.core.multiquery import BatchedSumcheckEngine, batch_f2


def test_tamper_study_bench(benchmark):
    outcomes = benchmark.pedantic(
        lambda: tamper_study(u=512), rounds=1, iterations=1
    )
    honest = outcomes.pop("honest")
    assert honest is False, "honest prover must be accepted"
    assert outcomes and all(outcomes.values()), (
        "every cheating strategy must be rejected: %r" % outcomes
    )
    benchmark.extra_info["figure"] = "Sec5-robustness"
    benchmark.extra_info["strategies_caught"] = len(outcomes)


def test_ipv6_extrapolation_bench(benchmark, field):
    """Measure our multi-round prover throughput and extrapolate to 1TB of
    IPv6 addresses, mirroring the paper's closing arithmetic."""
    u = 1 << 14
    prover = BatchedSumcheckEngine(field, u)
    prover.process_stream(section5_stream(u).updates())
    challenges = field.rand_vector(random.Random(20), prover.d)

    def produce():
        prover.receive_batch([batch_f2()])
        for j in range(prover.d):
            prover.round_messages()
            if j < prover.d - 1:
                prover.receive_challenge(challenges[j])

    benchmark.pedantic(produce, rounds=2, iterations=1)
    elapsed, _ = time_call(produce)
    ups = throughput(u, elapsed)
    estimate = ipv6_extrapolation(ups)
    benchmark.extra_info["figure"] = "Sec5-ipv6-extrapolation"
    benchmark.extra_info["measured_updates_per_second"] = round(ups)
    benchmark.extra_info["estimated_prover_hours"] = round(
        estimate["estimated_prover_hours"], 1
    )
    # The estimate must at least be finite and positive; the paper's own
    # number (C++: ~200 minutes) scales with the throughput ratio.
    assert estimate["estimated_prover_seconds"] > 0
