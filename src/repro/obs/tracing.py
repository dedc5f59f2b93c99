"""Trace-context propagation and JSONL span emission.

A *trace* covers one client conversation end to end — session open,
update blocks, every proof round, the verify — across every hop it
touches: client, cluster router, fan-out legs, the primary, and (after
a failover) the next primary incarnation.  Trace and
span ids are 64-bit and ride the wire in the version-2 frame-header
extension (:mod:`repro.service.protocol`), so a receiving node parents
its spans under the sender's active span and the whole conversation
stitches into one tree offline.

Ids come from :func:`os.urandom` — **never** from any seeded RNG.  The
client's verifier pool and retry jitter draw from deterministic seeded
streams; tracing consuming either would shift verifier challenges and
break the transcript-equality invariant this repo is built on.  The
differential tests (obs on vs. off → byte-identical transcripts) pin
that down.

Span records are emitted as JSON lines on close::

    {"trace": "…16 hex…", "span": "…", "parent": "…"|null,
     "name": "client.round", "node": "node-0", "ts": <wall clock>,
     "dur": <seconds>, …user fields…}

Enable with ``REPRO_TRACE=<path>`` (append JSONL to a file),
``REPRO_TRACE=stderr``/``1`` (stderr), or programmatically via
:func:`configure_tracing`.  Disabled (the default), every span is a
shared no-op and nothing touches a contextvar.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from typing import Dict, Optional, Tuple

#: Environment knob: unset/empty/``0`` → tracing off; ``stderr``/``1``
#: → JSONL on stderr; anything else → append-mode JSONL file path.
TRACE_ENV_VAR = "REPRO_TRACE"

_current: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_ctx", default=None))


def new_id() -> int:
    """A fresh nonzero 64-bit id from the OS entropy pool."""
    value = 0
    while value == 0:
        value = int.from_bytes(os.urandom(8), "big")
    return value


def _hex(value: Optional[int]) -> Optional[str]:
    return None if value is None else "%016x" % value


class TraceContext:
    """An active (trace id, span id) pair — what a frame carries."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return "TraceContext(%s, %s)" % (_hex(self.trace_id),
                                         _hex(self.span_id))

    def pair(self) -> Tuple[int, int]:
        return self.trace_id, self.span_id


def current() -> Optional[TraceContext]:
    """The context of the innermost open span on this thread/task."""
    return _current.get()


class Span:
    """One timed operation; emits a JSON line when it ends."""

    def __init__(self, tracer: "Tracer", name: str,
                 ctx: TraceContext, parent_id: Optional[int],
                 fields: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.ctx = ctx
        self.parent_id = parent_id
        self.fields = fields
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._token: Optional[contextvars.Token] = None
        self._done = False

    def set(self, **fields: object) -> None:
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self._token = _current.set(self.ctx)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.fields.setdefault("error", exc_type.__name__)
        self.end()

    def end(self) -> None:
        if self._done:
            return
        self._done = True
        if self._token is not None:
            try:
                _current.reset(self._token)
            except ValueError:
                # Ended from a different context than it was entered in
                # (e.g. a long-lived session span closed by another
                # thread); the record still emits.
                pass
            self._token = None
        record = {
            "trace": _hex(self.ctx.trace_id),
            "span": _hex(self.ctx.span_id),
            "parent": _hex(self.parent_id),
            "name": self.name,
            "node": self._tracer.node,
            "ts": self._ts,
            "dur": time.perf_counter() - self._t0,
        }
        record.update(self.fields)
        self._tracer.emit(record)


class _NoopSpan:
    """Shared do-nothing span: tracing off costs one attribute check."""

    __slots__ = ()
    ctx = None
    parent_id = None

    def set(self, **fields: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def end(self) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span factory + JSONL sink for one process (or one test)."""

    def __init__(self, sink=None, path: Optional[str] = None,
                 node: str = "", enabled: Optional[bool] = None) -> None:
        self.node = node
        self._own_sink = False
        if sink is None and path is None:
            raw = os.environ.get(TRACE_ENV_VAR, "").strip()
            if raw and raw != "0":
                if raw in ("1", "stderr"):
                    sink = sys.stderr
                else:
                    path = raw
        if path is not None:
            sink = open(path, "a", encoding="utf-8")
            self._own_sink = True
        self._sink = sink
        self.enabled = (sink is not None) if enabled is None else enabled
        self._lock = threading.Lock()

    def span(self, name: str, parent: Optional[object] = None,
             trace_id: Optional[int] = None, root: bool = False,
             **fields: object):
        """Open a span.

        ``parent`` may be a :class:`TraceContext`, a bare span id (with
        ``trace_id`` naming the trace), or ``None`` — in which case the
        innermost open span on this thread is the parent, and a fresh
        trace starts if there is none.  ``root=True`` ignores any open
        span and starts a brand-new trace (one client session = one
        trace, even when sessions share a thread).  Entering the span
        (``with``) makes it the current context so child spans and
        outgoing frames pick it up.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent_id: Optional[int] = None
        if root:
            pass
        elif isinstance(parent, TraceContext):
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif isinstance(parent, int):
            parent_id = parent
        else:
            ctx = current()
            if ctx is not None:
                trace_id = ctx.trace_id if trace_id is None else trace_id
                parent_id = ctx.span_id
        if trace_id is None:
            trace_id = new_id()
        return Span(self, name, TraceContext(trace_id, new_id()),
                    parent_id, dict(fields))

    def emit(self, record: Dict[str, object]) -> None:
        sink = self._sink
        if sink is None:
            return
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            try:
                sink.write(line + "\n")
                sink.flush()
            except ValueError:
                # Sink closed underneath us (interpreter teardown).
                pass

    def close(self) -> None:
        if self._own_sink and self._sink is not None:
            try:
                self._sink.close()
            finally:
                self._sink = None
        self.enabled = False


# -- process-global tracer -----------------------------------------------------

_tracer: Optional[Tracer] = None
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (lazy; env-configured)."""
    global _tracer
    with _tracer_lock:
        if _tracer is None:
            _tracer = Tracer()
        return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _tracer
    with _tracer_lock:
        old = _tracer if _tracer is not None else Tracer()
        _tracer = tracer
        return old


def configure_tracing(path: Optional[str] = None, sink=None,
                      node: str = "") -> Tracer:
    """Install (and return) a global tracer writing JSONL spans."""
    return_value = Tracer(sink=sink, path=path, node=node,
                          enabled=True if (path or sink) else None)
    set_tracer(return_value)
    return return_value
