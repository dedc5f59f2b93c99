"""End-to-end observability: metrics, traces, structured logs.

Three stdlib-only planes, all off the transcript path:

- :mod:`repro.obs.metrics` — process-global registry of counters,
  gauges and exact-sample histograms (nearest-rank quantiles); snapshot
  to a JSON-ready dict (the ``H_STATS`` wire frame) or Prometheus-style
  text (the ``--stats`` endpoint).  Knob: ``REPRO_METRICS=0`` disables
  recording.
- :mod:`repro.obs.tracing` — 64-bit trace/span ids (``os.urandom``,
  never a seeded RNG) propagated in the version-2 frame-header
  extension and emitted as JSONL span records.  Knob:
  ``REPRO_TRACE=<path>|stderr``.
- :mod:`repro.obs.logging` — structured JSON log lines with automatic
  trace-id correlation from the open span.  Knob:
  ``REPRO_LOG=<path>|stderr``.

**Invariant:** enabling any of these changes zero transcript bytes —
ids never draw from the verifier RNGs, instrumentation never writes a
word payload, and the differential tests in
``tests/test_obs_service.py`` enforce it across the plain service
and cluster failover.
"""

from repro.obs.metrics import (  # noqa: F401
    METRICS_ENV_VAR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    metrics_enabled,
    nearest_rank,
    set_registry,
)
from repro.obs.tracing import (  # noqa: F401
    TRACE_ENV_VAR,
    NOOP_SPAN,
    Span,
    TraceContext,
    Tracer,
    configure_tracing,
    current,
    get_tracer,
    new_id,
    set_tracer,
)
from repro.obs.logging import (  # noqa: F401
    LOG_ENV_VAR,
    StructuredLogger,
    configure_logging,
    get_logger,
)
from repro.obs.exposition import (  # noqa: F401
    read_stats,
    start_stats_server,
)

__all__ = [
    "METRICS_ENV_VAR", "TRACE_ENV_VAR", "LOG_ENV_VAR",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "counter", "gauge", "histogram", "get_registry", "set_registry",
    "metrics_enabled", "nearest_rank",
    "NOOP_SPAN", "Span", "TraceContext", "Tracer",
    "configure_tracing", "current", "get_tracer", "new_id", "set_tracer",
    "StructuredLogger", "configure_logging", "get_logger",
    "read_stats", "start_stats_server",
]
