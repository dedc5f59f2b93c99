"""Tests for the experiment harness and figure regenerators."""

from __future__ import annotations

import math

import pytest

from repro.experiments.figures import (
    figure_2a,
    figure_2b,
    figure_2c,
    figure_3a,
    figure_3b,
    ipv6_extrapolation,
    tamper_study,
)
from repro.experiments.harness import (
    FigureData,
    format_table,
    loglog_slope,
    throughput,
    time_call,
)

SMALL_SIZES = [1 << 6, 1 << 8, 1 << 10]


def test_time_call_returns_result():
    elapsed, value = time_call(lambda: 41 + 1)
    assert value == 42
    assert elapsed >= 0


def test_loglog_slope_known_powers():
    xs = [2.0**k for k in range(4, 10)]
    assert loglog_slope(xs, [x for x in xs]) == pytest.approx(1.0)
    assert loglog_slope(xs, [x**1.5 for x in xs]) == pytest.approx(1.5)
    assert loglog_slope(xs, [math.sqrt(x) for x in xs]) == pytest.approx(0.5)
    assert loglog_slope(xs, [7.0 for _ in xs]) == pytest.approx(0.0)


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        loglog_slope([2.0, 2.0], [1.0, 2.0])


def test_series_and_figure_render():
    fig = FigureData("figX", "demo")
    s = fig.series_named("line")
    s.add(2, 4)
    s.add(4, 16)
    fig.note("quadratic")
    text = fig.render()
    assert "figX" in text and "slope(line) = 2.000" in text
    assert "quadratic" in text


def test_format_table_alignment():
    table = format_table(["a", "bb"], [["1", "2"], ["10", "20"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)


def test_throughput_guards_zero():
    assert throughput(100, 0.0) > 0


def test_figure_2a_shapes():
    # Timer noise dominates below ~1ms, so measure at slightly larger
    # sizes and accept a generous linearity band.
    sizes = [1 << 9, 1 << 11, 1 << 13]
    fig = figure_2a(sizes)
    multi = fig.series_named("multi-round")
    single = fig.series_named("one-round")
    assert len(multi.xs) == len(sizes)
    # Both verifiers stream in roughly linear time.
    assert 0.5 < multi.slope() < 1.7
    assert 0.5 < single.slope() < 1.7


def test_figure_2b_shapes():
    # Larger sizes than the other shape tests: at u <= 1024 the one-round
    # prover's fixed overhead still masks its u^1.5 asymptotics.
    fig = figure_2b([1 << 8, 1 << 10, 1 << 12])
    multi = fig.series_named("multi-round")
    single = fig.series_named("one-round")
    # Multi-round prover ~linear, one-round clearly super-linear.
    assert multi.slope() < 1.4
    assert single.slope() > 1.25
    assert single.slope() > multi.slope()


def test_figure_2c_shapes():
    fig = figure_2c(SMALL_SIZES)
    # One-round costs grow like sqrt(u); multi-round stays ~flat (log u).
    assert fig.series_named("one-round space").slope() == pytest.approx(
        0.5, abs=0.2
    )
    assert fig.series_named("one-round comm").slope() == pytest.approx(
        0.5, abs=0.2
    )
    assert fig.series_named("multi-round space").slope() < 0.25
    assert fig.series_named("multi-round comm").slope() < 0.25
    # Multi-round stays under 1KB at every measured size (paper's claim).
    assert max(fig.series_named("multi-round comm").ys) < 1024
    assert max(fig.series_named("multi-round space").ys) < 1024


def test_figure_3a_runs_and_accepts():
    fig = figure_3a(SMALL_SIZES, range_length=16)
    assert len(fig.series_named("verifier").xs) == len(SMALL_SIZES)
    assert len(fig.series_named("prover").xs) == len(SMALL_SIZES)


def test_figure_3b_overhead_logarithmic():
    fig = figure_3b(SMALL_SIZES, range_length=16)
    overhead = fig.series_named("comm minus answer")
    # Protocol overhead beyond the reported answer stays under 1KB.
    assert max(overhead.ys) < 1024
    assert fig.series_named("space").slope() < 0.3


def test_tamper_study_catches_everything():
    outcomes = tamper_study(u=256)
    assert outcomes.pop("honest") is False
    assert outcomes  # at least one adversary ran
    assert all(outcomes.values())


def test_ipv6_extrapolation_arithmetic():
    # The paper's own numbers: 20M updates/s -> ~12,000 s for 1TB of IPv6.
    result = ipv6_extrapolation(20e6)
    assert result["estimated_prover_seconds"] == pytest.approx(
        6e10 / 20e6 * (128 / 33.0)
    )
    assert result["estimated_prover_hours"] == pytest.approx(
        result["estimated_prover_seconds"] / 3600
    )
