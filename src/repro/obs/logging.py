"""Structured JSON logging with trace-id correlation.

One log line is one JSON object::

    {"ts": 1699999999.5, "level": "info", "logger": "service.registry",
     "node": "node-1", "event": "admission.refused", "trace": "…16 hex…",
     "kind": "query", "session": 7, "inflight": 4}

``event`` is a stable machine-matchable name (the tests grep for these);
free-form prose goes in a ``msg`` field.  When a span is open on the
current thread (:func:`repro.obs.tracing.current`), its trace and span
ids are stamped on the line automatically — that is the whole
correlation story: grep a trace id across the span JSONL and the log
stream and you see one conversation.

Disabled by default (a recovery decision point costs one ``if``).
Enable with ``REPRO_LOG=<path>`` (append JSONL file),
``REPRO_LOG=stderr``/``1``, or :func:`configure_logging`.  Never uses
the stdlib root logger — the CI lint enforces that ``src/`` stays free
of bare ``print(``/root-logger calls outside the CLI entry points.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, Optional

from repro.obs import tracing

#: Environment knob: unset/empty/``0`` → logging off; ``stderr``/``1``
#: → JSONL on stderr; anything else → append-mode JSONL file path.
LOG_ENV_VAR = "REPRO_LOG"


class _LogState:
    """Shared sink state: reconfiguring retargets every live logger."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sink = None
        self.node = ""
        self.own_sink = False
        self.loaded = False

    def load_env(self) -> None:
        if self.loaded:
            return
        self.loaded = True
        raw = os.environ.get(LOG_ENV_VAR, "").strip()
        if not raw or raw == "0":
            return
        if raw in ("1", "stderr"):
            self.sink = sys.stderr
        else:
            self.sink = open(raw, "a", encoding="utf-8")
            self.own_sink = True


_state = _LogState()


def configure_logging(path: Optional[str] = None, sink=None,
                      node: str = "") -> None:
    """Point every structured logger at a sink (tests, CLI).

    With neither ``path`` nor ``sink``, only the node tag changes — the
    env-configured (``REPRO_LOG``) sink stays in place, so a CLI can
    stamp its node name without deciding where logs go.
    """
    with _state.lock:
        if path is None and sink is None:
            _state.load_env()
            _state.node = node
            return
        if _state.own_sink and _state.sink is not None:
            try:
                _state.sink.close()
            except OSError:
                pass
        _state.loaded = True
        _state.own_sink = False
        _state.node = node
        if path is not None:
            _state.sink = open(path, "a", encoding="utf-8")
            _state.own_sink = True
        else:
            _state.sink = sink


class StructuredLogger:
    """Per-subsystem logger; cheap no-op while no sink is configured."""

    def __init__(self, name: str, node: Optional[str] = None) -> None:
        self.name = name
        self.node = node

    @property
    def enabled(self) -> bool:
        with _state.lock:
            _state.load_env()
            return _state.sink is not None

    def _emit(self, level: str, event: str,
              fields: Dict[str, object]) -> None:
        with _state.lock:
            _state.load_env()
            sink = _state.sink
            if sink is None:
                return
            record = {
                "ts": time.time(),
                "level": level,
                "logger": self.name,
                "node": self.node if self.node is not None else _state.node,
                "event": event,
            }
            ctx = tracing.current()
            if ctx is not None:
                record["trace"] = "%016x" % ctx.trace_id
                record["span"] = "%016x" % ctx.span_id
            record.update(fields)
            try:
                sink.write(json.dumps(record, sort_keys=True) + "\n")
                sink.flush()
            except ValueError:
                pass

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)


_loggers: Dict[str, StructuredLogger] = {}
_loggers_lock = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    """The (cached) structured logger for a dotted subsystem name."""
    with _loggers_lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = StructuredLogger(name)
            _loggers[name] = logger
        return logger
