"""Observability primitives: metrics registry, tracer, structured logs.

These are the unit-level guarantees the end-to-end suites
(``test_obs_service.py`` / ``test_obs_cluster.py``) build on: exact
histogram accounting, quantiles that agree with the benchmark
percentile, span trees that reconstruct offline, log lines that carry
trace correlation — and a source lint holding the line the structured
logger exists to hold (no bare ``print(`` or stdlib root logger in
``src/`` outside the CLI entry points).
"""

from __future__ import annotations

import ast
import io
import json
import os

from repro import obs
from repro.obs import logging as obs_logging


def _reset_logging():
    """Fully detach the structured-log sink (configure_logging with no
    sink is deliberately node-only, so tests reset the state directly)."""
    with obs_logging._state.lock:
        obs_logging._state.sink = None
        obs_logging._state.own_sink = False
        obs_logging._state.node = ""
        obs_logging._state.loaded = True


# -- metrics -------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = obs.MetricsRegistry(enabled=True)
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(7)
    reg.gauge("g").dec(2)
    for v in (1.0, 3.0, 2.0):
        reg.histogram("h").observe(v)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 5
    hist = snap["histograms"]["h"]
    assert hist["count"] == 3
    assert hist["sum"] == 6.0
    assert hist["min"] == 1.0 and hist["max"] == 3.0


def test_labelled_series_are_distinct_and_get_or_create():
    reg = obs.MetricsRegistry(enabled=True)
    reg.counter("ops", kind="a").inc()
    reg.counter("ops", kind="b").inc(2)
    # Same (name, labels) returns the same instrument.
    assert reg.counter("ops", kind="a") is reg.counter("ops", kind="a")
    snap = reg.snapshot()
    assert snap["counters"]['ops{kind="a"}'] == 1
    assert snap["counters"]['ops{kind="b"}'] == 2


def _quantile(h, q):
    """The quantile a snapshot and the text exposition report."""
    return h.summary()["p%g" % (q * 100)]


def test_histogram_count_and_sum_stay_exact_past_sample_cap():
    reg = obs.MetricsRegistry(enabled=True)
    h = reg.histogram("big")
    n = obs.metrics.DEFAULT_MAX_SAMPLES + 50
    for i in range(n):
        h.observe(1.0)
    summary = h.summary()
    assert summary["count"] == n
    assert summary["sum"] == float(n)
    assert len(h.samples()) == obs.metrics.DEFAULT_MAX_SAMPLES


def test_histogram_retention_is_windowed_past_the_cap():
    """Past max_samples the histogram keeps the *latest* window, oldest
    first — a long-run p95/p99 reflects current latencies, not whatever
    the first N observations at startup happened to be (the old first-N
    retention silently dropped every later sample)."""
    h = obs.metrics.Histogram("w", (), True, max_samples=8)
    for i in range(20):
        h.observe(float(i))
    assert h.samples() == [float(i) for i in range(12, 20)]
    assert h.count == 20
    assert h.sum == float(sum(range(20)))
    # Quantiles are nearest-rank over the retained window.
    window = [float(i) for i in range(12, 20)]
    for q in (0.5, 0.9, 0.95, 0.99):
        assert _quantile(h, q) == obs.nearest_rank(window, q)
    # A regime change after the cap is visible (first-N retention froze
    # the distribution at startup and would still report ~startup p99).
    for _ in range(8):
        h.observe(1000.0)
    assert _quantile(h, 0.99) == 1000.0
    assert h.samples() == [1000.0] * 8


def test_histogram_windowed_retention_fills_ring_in_order():
    h = obs.metrics.Histogram("w2", (), True, max_samples=4)
    for i in range(6):  # partial second lap of the ring
        h.observe(float(i))
    assert h.samples() == [2.0, 3.0, 4.0, 5.0]
    # Below the cap retention is exact, so quantiles are nearest-rank
    # over the full sample set.
    fresh = obs.metrics.Histogram("w3", (), True, max_samples=100)
    values = [float(v) for v in (5, 1, 9, 2, 2, 7)]
    for v in values:
        fresh.observe(v)
    for q in (0.5, 0.9, 0.95, 0.99):
        assert _quantile(fresh, q) == obs.nearest_rank(values, q)


def test_windowed_histogram_rotation_never_touches_transcripts():
    """Drive a real batched sum-check with the engine's round histogram
    capped at a 2-sample window (so the ring rotates every round) and
    assert the transcript is byte-identical to a metrics-off run — the
    retention policy is invisible to the protocol."""
    import random as _random

    from repro.comm.channel import Channel
    from repro.core.multiquery import (
        BatchedSumcheckEngine,
        BatchedSumcheckVerifier,
        batch_f2,
        batch_range_sum,
        run_batched_sumcheck,
    )
    from repro.field.modular import DEFAULT_FIELD as F

    u = 64
    updates = [(i % u, 1 + i % 3) for i in range(40)]
    point = F.rand_vector(_random.Random(3), 6)

    def run(reg):
        old = obs.set_registry(reg)
        try:
            engine = BatchedSumcheckEngine(F, u)
            verifier = BatchedSumcheckVerifier(F, u, point=point)
            for i, delta in updates:
                engine.process(i, delta)
                verifier.process_a(i, delta)
            ch = Channel()
            results = run_batched_sumcheck(
                engine, verifier, [batch_range_sum(3, 40), batch_f2()], ch
            )
            assert all(r.accepted for r in results)
            return ch.transcript.messages
        finally:
            obs.set_registry(old)

    reg = obs.MetricsRegistry(enabled=True)
    capped = reg._get(
        "histogram", obs.metrics.Histogram, "repro_sumcheck_round_seconds",
        {}, max_samples=2,
    )
    on = run(reg)
    assert capped.count == 6  # one observation per round, d = 6
    assert len(capped.samples()) == 2  # ...retained through the window
    off = run(obs.MetricsRegistry(enabled=False))
    assert on == off


def test_disabled_registry_is_a_cheap_noop():
    reg = obs.MetricsRegistry(enabled=False)
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    reg.gauge("g").set(3)
    # Instruments still hand out, but nothing records.
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 0
    assert snap["gauges"]["g"] == 0.0
    assert snap["histograms"]["h"]["count"] == 0


def test_metrics_env_var_disables(monkeypatch):
    monkeypatch.setenv(obs.METRICS_ENV_VAR, "0")
    assert not obs.metrics_enabled()
    monkeypatch.setenv(obs.METRICS_ENV_VAR, "off")
    assert not obs.metrics_enabled()
    monkeypatch.delenv(obs.METRICS_ENV_VAR, raising=False)
    assert obs.metrics_enabled()


def test_global_registry_swap_and_convenience_helpers():
    reg = obs.MetricsRegistry(enabled=True)
    old = obs.set_registry(reg)
    try:
        obs.counter("swap_test").inc()
        obs.histogram("swap_hist", kind="x").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["swap_test"] == 1
        assert snap["histograms"]['swap_hist{kind="x"}']["count"] == 1
    finally:
        obs.set_registry(old)


def test_to_text_is_prometheus_parseable():
    reg = obs.MetricsRegistry(enabled=True)
    reg.counter("req_total", code="200").inc(3)
    reg.gauge("inflight").set(2)
    reg.histogram("lat_seconds").observe(0.25)
    text = reg.to_text()
    lines = text.splitlines()
    assert '# TYPE req_total counter' in lines
    assert 'req_total{code="200"} 3' in lines
    assert "inflight 2" in lines
    # Histogram summary exposes quantiles and _count/_sum.
    assert any(l.startswith('lat_seconds{quantile="0.5"}') for l in lines)
    assert "lat_seconds_count 1" in lines
    # Every non-comment line is "name_or_labels value".
    for line in lines:
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(None, 1)
        float(value)
        assert name


# -- tracing -------------------------------------------------------------------


def _spans(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def test_span_tree_reconstructs_with_parents_and_fields():
    sink = io.StringIO()
    tracer = obs.Tracer(sink=sink, node="n-test", enabled=True)
    with tracer.span("root_op", kind="outer") as root:
        with tracer.span("child_op"):
            pass
        root.set(extra=1)
    spans = {s["name"]: s for s in _spans(sink)}
    assert set(spans) == {"root_op", "child_op"}
    root, child = spans["root_op"], spans["child_op"]
    assert root["parent"] is None
    assert child["parent"] == root["span"]
    assert child["trace"] == root["trace"]
    assert root["kind"] == "outer" and root["extra"] == 1
    assert all(s["node"] == "n-test" for s in spans.values())
    assert all(s["dur"] >= 0 for s in spans.values())


def test_root_span_starts_a_fresh_trace_even_under_an_open_span():
    sink = io.StringIO()
    tracer = obs.Tracer(sink=sink, enabled=True)
    with tracer.span("session_a"):
        with tracer.span("session_b", root=True):
            pass
    spans = {s["name"]: s for s in _spans(sink)}
    assert spans["session_b"]["parent"] is None
    assert spans["session_b"]["trace"] != spans["session_a"]["trace"]


def test_explicit_parent_context_crosses_process_boundaries():
    """A received (trace id, span id) pair parents a local span — the
    wire-propagation contract."""
    sink = io.StringIO()
    tracer = obs.Tracer(sink=sink, enabled=True)
    trace_id, span_id = obs.new_id(), obs.new_id()
    ctx = obs.TraceContext(trace_id, span_id)
    with tracer.span("server_side", parent=ctx):
        pass
    (span,) = _spans(sink)
    assert span["trace"] == "%016x" % trace_id
    assert span["parent"] == "%016x" % span_id


def test_disabled_tracer_returns_shared_noop():
    tracer = obs.Tracer(enabled=False)
    span = tracer.span("anything")
    assert span is obs.NOOP_SPAN
    with span:
        span.set(x=1)
    span.end()  # idempotent, no sink, no error


def test_new_id_is_nonzero_64bit():
    for _ in range(100):
        value = obs.new_id()
        assert 0 < value < 1 << 64


# -- structured logging --------------------------------------------------------


def test_log_lines_are_json_with_trace_correlation():
    sink = io.StringIO()
    obs.configure_logging(sink=sink, node="n-log")
    try:
        tracer = obs.Tracer(sink=io.StringIO(), enabled=True)
        logger = obs.get_logger("test.subsystem")
        logger.info("plain.event", a=1)
        with tracer.span("op") as span:
            logger.warning("traced.event", b="x")
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert lines[0]["event"] == "plain.event"
        assert lines[0]["level"] == "info"
        assert lines[0]["logger"] == "test.subsystem"
        assert lines[0]["node"] == "n-log"
        assert lines[0]["a"] == 1
        assert "trace" not in lines[0]
        assert lines[1]["event"] == "traced.event"
        assert lines[1]["trace"] == "%016x" % span.ctx.trace_id
        assert lines[1]["span"] == "%016x" % span.ctx.span_id
    finally:
        _reset_logging()


def test_configure_logging_node_only_keeps_existing_sink():
    sink = io.StringIO()
    obs.configure_logging(sink=sink, node="before")
    try:
        obs.configure_logging(node="after")
        obs.get_logger("test.keep").info("still.here")
        (line,) = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert line["node"] == "after"
    finally:
        _reset_logging()


def test_logging_disabled_by_default_is_noop(monkeypatch):
    monkeypatch.delenv(obs.LOG_ENV_VAR, raising=False)
    _reset_logging()
    logger = obs.get_logger("test.off")
    assert not logger.enabled
    logger.info("dropped.event")  # nowhere to go, must not raise


# -- source lint: no bare print / root logger in src/ --------------------------


#: CLI entry points announce addresses on stdout by design.
_PRINT_ALLOWED = {
    os.path.join("repro", "service", "__main__.py"),
    os.path.join("repro", "experiments", "__main__.py"),
}


def _src_files():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "src")
    for dirpath, _dirs, files in os.walk(src):
        for fname in files:
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname), src


def test_src_has_no_bare_print_outside_cli_entry_points():
    offenders = []
    for path, src in _src_files():
        rel = os.path.relpath(path, src)
        if rel in _PRINT_ALLOWED:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                offenders.append("%s:%d" % (rel, node.lineno))
    assert not offenders, (
        "bare print() in src/ — use repro.obs.get_logger: %s" % offenders
    )


def test_src_never_imports_the_stdlib_root_logger():
    offenders = []
    for path, src in _src_files():
        rel = os.path.relpath(path, src)
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "logging"
                       for a in node.names):
                    offenders.append("%s:%d" % (rel, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module \
                        and node.module.split(".")[0] == "logging":
                    offenders.append("%s:%d" % (rel, node.lineno))
    assert not offenders, (
        "stdlib logging import in src/ — use repro.obs structured "
        "logging: %s" % offenders
    )


def test_nearest_rank_edge_cases():
    assert obs.nearest_rank([], 0.99) == 0.0
    assert obs.nearest_rank([5.0], 0.5) == 5.0
    assert obs.nearest_rank([1.0, 2.0], 0.99) == 2.0
