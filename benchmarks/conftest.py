"""Shared fixtures for the benchmark suite.

Run with:  pytest benchmarks/ --benchmark-only

Each benchmark mirrors one figure (or extension claim) of the paper; the
measured quantity and the paper's expected shape are recorded in
``benchmark.extra_info`` and printed at the end of the run.  Absolute
numbers are pure-Python scale.  The BENCH_*.json trajectory files are
rewritten only under ``--bench-record``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random

import pytest

from repro.field.modular import DEFAULT_FIELD
from repro.field.vectorized import HAVE_NUMPY
from repro.streams.generators import uniform_frequency_stream

#: Scalar-vs-vectorized trajectory file; regenerate with
#:   PYTHONPATH=src python -m pytest benchmarks/test_vectorized_speedup.py \
#:       -q --bench-record
BENCH_VECTORIZED_JSON = pathlib.Path(__file__).resolve().parent / (
    "BENCH_vectorized.json"
)

#: CI smoke knob: when set, the speedup benchmarks run at tiny sizes,
#: keep all transcript-equality assertions, skip the wall-clock speedup
#: bars (meaningless at toy sizes), and never record, even under
#: ``--bench-record``.  This keeps the perf plumbing exercised on every
#: push.
BENCH_SMOKE_ENV_VAR = "REPRO_BENCH_SMOKE"


def bench_smoke() -> bool:
    return bool(os.environ.get(BENCH_SMOKE_ENV_VAR, "").strip())


def bench_sizes(full, smoke):
    """Benchmark sizes honouring the smoke knob."""
    return smoke if bench_smoke() else full


@pytest.fixture(scope="session")
def field():
    return DEFAULT_FIELD


@pytest.fixture(scope="session")
def vectorized_bench_recorder(request):
    """Collects scalar-vs-vectorized timing records for the session.

    Append dicts (one per measurement); under ``--bench-record`` they are
    written to ``BENCH_vectorized.json`` at session end so later PRs can
    track the speedup trajectory.
    """
    records = []
    yield records
    if (records and request.config.getoption("--bench-record")
            and not bench_smoke()):
        numpy_version = None
        if HAVE_NUMPY:
            import numpy

            numpy_version = numpy.__version__
        # Merge with any existing file so a partial run (one test, or a
        # no-numpy leg) never clobbers series it did not re-measure.
        merged = {}
        if BENCH_VECTORIZED_JSON.exists():
            try:
                previous = json.loads(BENCH_VECTORIZED_JSON.read_text())
                for record in previous.get("results", []):
                    merged[(record["measure"], record["u"])] = record
            except (ValueError, KeyError):
                pass  # corrupt/legacy file: rewrite from this session
        for record in records:
            # Field-wise merge: a scalar-only leg (no numpy) refreshes the
            # scalar timings without deleting the vectorized series.
            key = (record["measure"], record["u"])
            base = dict(merged.get(key, {}))
            base.update(record)
            merged[key] = base
        payload = {
            "workload": "uniform counts in [0,1000], u = n (Section 5)",
            "python": platform.python_version(),
            "numpy": numpy_version,
            "results": sorted(
                merged.values(), key=lambda r: (r["measure"], r["u"])
            ),
        }
        # sort_keys + the key-sorted merge above give a stable byte
        # layout: a rerun only diffs the records it actually re-measured.
        BENCH_VECTORIZED_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def section5_stream(u: int, seed: int = 0):
    """The paper's workload: u = n, counts uniform in [0, 1000]."""
    return uniform_frequency_stream(u, max_frequency=1000,
                                    rng=random.Random(seed))


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["workload"] = "uniform counts in [0,1000], u = n"
