"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is the service's live view of the paper's cost accounting:
per-query transcript words, per-round prover wall time, retry and
failover counts — the numbers the benchmark records offline become
queryable at runtime through :meth:`MetricsRegistry.snapshot` (a plain
dict, JSON-ready for the ``H_STATS`` frame) and
:meth:`MetricsRegistry.to_text` (Prometheus-style text exposition for
the ``--stats`` endpoint).

Everything here is stdlib-only and thread-safe: instruments are
get-or-created under the registry lock and then mutate under their own
lock, so hot paths (one ``inc`` per retry, one ``observe`` per round)
never contend with snapshot readers for long.  Histogram quantiles use
the same nearest-rank definition as ``repro.service.loadgen``, so a
metric-reported p99 and a benchmark-reported p99 agree on identical
samples.

Recording is disabled (every mutation a no-op, the instruments still
hand out) when ``REPRO_METRICS=0`` — the differential observability
tests flip this knob to prove instrumentation never touches a
transcript byte.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment knob: metrics record by default; ``REPRO_METRICS=0`` (or
#: ``off``/``false``/``no``) turns every mutation into a no-op.
METRICS_ENV_VAR = "REPRO_METRICS"

_FALSEY = frozenset(["0", "off", "false", "no"])

#: Histograms keep exact samples up to this many observations (enough
#: for every test and smoke workload); beyond it they keep exact
#: count/sum/min/max and retention goes *windowed* — a ring buffer of
#: the latest ``max_samples`` observations — so long-run quantiles track
#: current behaviour instead of freezing on startup latencies.
DEFAULT_MAX_SAMPLES = 65536

#: Quantiles reported by snapshots and the text exposition.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def metrics_enabled(default: bool = True) -> bool:
    """The ``REPRO_METRICS`` knob, read at registry construction."""
    raw = os.environ.get(METRICS_ENV_VAR)
    if raw is None or raw.strip() == "":
        return default
    return raw.strip().lower() not in _FALSEY


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the sample of rank ⌈q·n⌉ (rounded half
    up) in sorted order; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    parts = []
    for name, value in key:
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n"))
        parts.append('%s="%s"' % (name, escaped))
    return "{%s}" % ",".join(parts)


class _Instrument:
    """Shared shape: a name, a frozen label set, a lock."""

    def __init__(self, name: str, label_key: Tuple[Tuple[str, str], ...],
                 enabled: bool) -> None:
        self.name = name
        self.label_key = label_key
        self._enabled = enabled
        self._lock = threading.Lock()

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self.label_key)


class Counter(_Instrument):
    """Monotonically increasing count."""

    def __init__(self, name, label_key, enabled):
        super().__init__(name, label_key, enabled)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that goes up and down (inflight connections)."""

    def __init__(self, name, label_key, enabled):
        super().__init__(name, label_key, enabled)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Exact-sample histogram with nearest-rank quantiles.

    Below ``max_samples`` observations every sample is retained, so
    quantiles are exact and agree with the loadgen percentile to the
    number.  Past the cap, retention is windowed: a ring buffer keeps
    the *latest* ``max_samples`` observations (deterministic — no
    sampling randomness), so a long-running service reports current
    tail latency rather than whatever the first N observations were.
    ``count``/``sum``/``min``/``max`` stay exact over the full history
    regardless.
    """

    def __init__(self, name, label_key, enabled,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        super().__init__(name, label_key, enabled)
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._next = 0  # ring cursor, meaningful once the window is full
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._max_samples

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> List[float]:
        """The retained observations, oldest first (exact for test-sized
        workloads — the metrics-vs-accounting cross-check reads these;
        the latest-``max_samples`` window past the cap)."""
        with self._lock:
            if len(self._samples) < self._max_samples or self._next == 0:
                return list(self._samples)
            return self._samples[self._next:] + self._samples[: self._next]

    def summary(self) -> Dict[str, float]:
        with self._lock:
            out = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
            }
            for q in SNAPSHOT_QUANTILES:
                out["p%g" % (q * 100)] = nearest_rank(self._samples, q)
            return out


class MetricsRegistry:
    """Get-or-create home for every instrument in one process."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = metrics_enabled() if enabled is None else enabled
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]],
                            _Instrument] = {}

    def _get(self, kind: str, cls, name: str, labels: Dict[str, str],
             **kwargs) -> _Instrument:
        key = (kind, name, _label_key(labels))
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(name, key[2], self.enabled, **kwargs)
                self._metrics[key] = inst
            return inst

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def _sorted_items(self):
        with self._lock:
            items = list(self._metrics.items())
        return sorted(items, key=lambda kv: (kv[0][1], kv[0][2], kv[0][0]))

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dict: the ``H_STATS`` reply body."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for (kind, name, key), inst in self._sorted_items():
            label = name + _label_text(key)
            if kind == "counter":
                out["counters"][label] = inst.value  # type: ignore[attr-defined]
            elif kind == "gauge":
                out["gauges"][label] = inst.value  # type: ignore[attr-defined]
            else:
                out["histograms"][label] = inst.summary()  # type: ignore[attr-defined]
        return out

    def to_text(self) -> str:
        """Prometheus-style text exposition (the ``--stats`` body)."""
        lines: List[str] = []
        typed = set()
        for (kind, name, key), inst in self._sorted_items():
            suffix = _label_text(key)
            if name not in typed:
                lines.append("# TYPE %s %s"
                             % (name, kind if kind != "histogram"
                                else "summary"))
                typed.add(name)
            if kind in ("counter", "gauge"):
                lines.append("%s%s %s" % (name, suffix, inst.value))  # type: ignore[attr-defined]
                continue
            summary = inst.summary()  # type: ignore[attr-defined]
            base = key
            for q in SNAPSHOT_QUANTILES:
                qkey = base + (("quantile", "%g" % q),)
                lines.append("%s%s %s"
                             % (name, _label_text(tuple(sorted(qkey))),
                                summary["p%g" % (q * 100)]))
            lines.append("%s_count%s %d" % (name, suffix, summary["count"]))
            lines.append("%s_sum%s %s" % (name, suffix, summary["sum"]))
        return "\n".join(lines) + ("\n" if lines else "")


# -- process-global registry ---------------------------------------------------

_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry (created lazily, env-gated)."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _registry
    with _registry_lock:
        old = _registry if _registry is not None else MetricsRegistry()
        _registry = registry
        return old


def counter(name: str, **labels: str) -> Counter:
    return get_registry().counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return get_registry().gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    return get_registry().histogram(name, **labels)
