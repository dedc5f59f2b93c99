"""Experiment harness and figure regenerators (Section 5)."""

from repro.experiments.figures import (
    ALL_FIGURES,
    DEFAULT_SIZES,
    figure_2a,
    figure_2b,
    figure_2c,
    figure_3a,
    figure_3b,
    figure_vectorized,
    ipv6_extrapolation,
    run_all,
    tamper_study,
)
from repro.experiments.harness import (
    FigureData,
    Series,
    format_table,
    loglog_slope,
    throughput,
    time_call,
)

__all__ = [
    "ALL_FIGURES",
    "DEFAULT_SIZES",
    "FigureData",
    "Series",
    "figure_2a",
    "figure_2b",
    "figure_2c",
    "figure_3a",
    "figure_3b",
    "figure_vectorized",
    "format_table",
    "ipv6_extrapolation",
    "loglog_slope",
    "run_all",
    "tamper_study",
    "throughput",
    "time_call",
]
