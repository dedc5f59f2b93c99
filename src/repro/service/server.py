"""The prover service: an asyncio TCP server around the session registry.

One server process plays the paper's *cloud*: it ingests update streams
into shared datasets and answers prover-side protocol steps for any
number of concurrently connected client verifiers.  Handlers are
synchronous between awaits, so every frame is applied atomically —
concurrent sessions interleave at frame granularity and each in-flight
query works on its own frequency snapshot (see
:mod:`repro.service.registry`).

A structurally malformed frame or an impossible request is answered with
a ``T_ERROR`` frame (and, for framing damage, a closed connection) —
never a crash: the service treats its clients exactly as the verifier
treats the prover.

For tests and the CLI the server also runs on a daemon thread
(:meth:`ProverServer.serve_in_thread`), giving synchronous callers a
real listening port without managing an event loop.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.field.modular import PrimeField
from repro.lde.streaming import DEFAULT_BLOCK
from repro.service import protocol as sp
from repro.service.registry import RegistryError, SessionRegistry
from repro.service.router import (
    QueryDescriptor,
    RoutingError,
    to_batch_query,
)
from repro.service.transport import (
    FrameLink,
    FrameListener,
    LinkTimeout,
    ListenerHandle,
    frame_trace,
)

#: Replayed updates per block of T_REPLAY_DATA frames (one frame per
#: same-vector run of the block): the one ingest block size, which a
#: joiner buffers and feeds once per vector.
REPLAY_BLOCK = DEFAULT_BLOCK


def _flatten(rows) -> List[int]:
    return [word for row in rows for word in row]


def _flatten_records(records) -> List[int]:
    out = []
    for rec in records:
        out.extend((rec.index, rec.hash_value, rec.count))
    return out


#: Reply codec -> how a prover step's result becomes P_REPLY words.
_ENCODERS = {
    sp.REPLY_VOID: lambda _nothing: [],
    sp.REPLY_WORDS: list,
    sp.REPLY_PAIRS: _flatten,
    sp.REPLY_RECORDS: _flatten_records,
    sp.REPLY_CLAIM: list,
    sp.REPLY_ROWS: _flatten,
}


class ServiceError(RuntimeError):
    """Server-side rejection delivered to the client as T_ERROR."""

    code = sp.E_GENERIC


class TokenBucket:
    """Classic token-bucket rate limiter (``rate`` tokens/s, ``burst`` cap).

    An exhausted bucket is a *refusal*, not a stall: the server answers
    with an E_RATE_LIMITED frame immediately and the client backs off —
    holding the connection open while rationing server CPU.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = self.burst
        self._last = clock()

    def try_take(self, n: float = 1.0) -> bool:
        now = self.clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class ServerHandle(ListenerHandle):
    """A running threaded server: address, snapshot, synchronous stop."""

    @property
    def server(self) -> "ProverServer":
        return self.listener

    def snapshot(self, path) -> str:
        """Snapshot the registry *on the server's loop* — between frames,
        so no half-applied update block can leak into the file."""
        async def on_loop() -> str:
            return self.server.snapshot(path)

        return self._run(on_loop())


class ProverServer(FrameListener):
    """Prover-as-a-service endpoint.

    Parameters
    ----------
    field:
        The service-wide prime field; sessions whose HELLO carries a
        different modulus are refused.
    host, port:
        Listening address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_sessions, max_inflight_queries:
        Admission control (refused with E_BUSY frames); None = unbounded.
    rate_limit:
        ``(tokens_per_second, burst)`` per-session token bucket; a frame
        arriving on an empty bucket is answered with E_RATE_LIMITED and
        not processed.  None disables rate limiting.
    frame_timeout:
        Seconds a frame's payload may trail its header before the
        conversation is timed out (a stalled or malicious peer must not
        pin a handler forever).
    idle_timeout:
        Seconds a connection may sit silent between frames.
    max_payload:
        Per-frame payload cap enforced on decode, before allocation.
    """

    handle_class = ServerHandle
    thread_name = "repro-prover-server"

    def __init__(self, field: PrimeField, host: str = "127.0.0.1",
                 port: int = 0, prover_wrapper=None,
                 max_universe: int = SessionRegistry.DEFAULT_MAX_UNIVERSE,
                 max_sessions: Optional[int] = None,
                 max_inflight_queries: Optional[int] = None,
                 rate_limit: Optional[Tuple[float, float]] = None,
                 frame_timeout: Optional[float] = None,
                 idle_timeout: Optional[float] = None,
                 max_payload: int = sp.MAX_PAYLOAD,
                 registry: Optional[SessionRegistry] = None,
                 node_name: str = ""):
        super().__init__(host, port)
        self.field = field
        #: Observability tag stamped on this node's spans and H_STATS
        #: (cluster node managers pass the node id; default anonymous).
        self.node_name = node_name
        if registry is None:
            registry = SessionRegistry(
                field, prover_wrapper=prover_wrapper,
                max_universe=max_universe, max_sessions=max_sessions,
                max_inflight_queries=max_inflight_queries,
            )
        self.registry = registry
        self.rate_limit = rate_limit
        self.frame_timeout = frame_timeout
        self.idle_timeout = idle_timeout
        self.max_payload = max_payload
        self.timeouts = 0
        self.rate_limited = 0
        self._buckets: Dict[int, TokenBucket] = {}

    @classmethod
    def from_snapshot(cls, path, field: PrimeField,
                      **kwargs) -> "ProverServer":
        """A server whose registry is restored from a snapshot file."""
        registry_kwargs = {
            key: kwargs.pop(key)
            for key in ("prover_wrapper", "max_universe", "max_sessions",
                        "max_inflight_queries")
            if key in kwargs
        }
        registry = SessionRegistry.restore(path, field, **registry_kwargs)
        return cls(field, registry=registry, **kwargs)

    def snapshot(self, path) -> str:
        """Persist the registry's datasets (see ``SessionRegistry.snapshot``)."""
        return self.registry.snapshot(path)

    # -- connection handling -------------------------------------------------

    def _allow_frame(self, session_id: int) -> bool:
        """Token bucket of the session born on the calling connection
        (never the id a frame header claims, which the peer chooses);
        connections that have not said HELLO share bucket 0."""
        if self.rate_limit is None:
            return True
        bucket = self._buckets.get(session_id)
        if bucket is None:
            rate, burst = self.rate_limit
            bucket = self._buckets[session_id] = TokenBucket(rate, burst)
        if bucket.try_take():
            return True
        self.rate_limited += 1
        obs.counter("repro_server_rate_limited_total",
                    node=self.node_name).inc()
        return False

    _SPAN_NAMES = {
        sp.T_HELLO: "server.session.open",
        sp.T_UPDATES: "server.update.block",
        sp.T_QUERY_OPEN: "server.query.open",
        sp.T_QUERY_CLOSE: "server.query.close",
    }

    def _frame_span(self, frame_type: int, header: bytes, payload: bytes):
        """A server-side span parented under the frame's trace ext."""
        tracer = obs.get_tracer()
        if len(header) == sp.HEADER_LEN or not tracer.enabled:
            return obs.NOOP_SPAN  # the per-frame path of an untraced run
        trace_id, parent_span = frame_trace(header)
        fields: Dict[str, object] = {}
        name = self._SPAN_NAMES.get(frame_type)
        if frame_type == sp.T_P_CALL:
            # A chain is named after its last call, the one that replies.
            try:
                words = sp.parse_words(self.field, payload)
                method = sp.parse_calls(words[1:])[-1][0]
            except sp.ServiceProtocolError:
                method = 0
            name = ("server.proof.round" if method in sp.ROUND_METHODS
                    else "server.proof.step")
            fields["method"] = method
        elif name is None:
            name = "server.frame"
            fields["type"] = frame_type
        if self.node_name:
            fields["node"] = self.node_name
        return tracer.span(name, parent=parent_span, trace_id=trace_id,
                           **fields)

    async def _serve(self, link: FrameLink) -> None:
        session_id = 0
        inflight = obs.gauge("repro_server_inflight_connections",
                             node=self.node_name)
        inflight.inc()
        try:
            while True:
                try:
                    frame_type, frame_session, header, payload = \
                        await link.read_frame()
                except LinkTimeout as exc:
                    self.timeouts += 1
                    obs.counter("repro_server_timeouts_total",
                                kind="frame" if exc.mid_frame else "idle",
                                node=self.node_name).inc()
                    # Idle between frames: shed the connection quietly —
                    # the client reconnects and resumes on its next
                    # request.  A header whose payload never arrives is
                    # a stalled or malicious peer: structured refusal,
                    # then hang up (the stream position is unrecoverable).
                    if exc.mid_frame:
                        await link.send_error(exc.session_id, str(exc),
                                              sp.E_TIMEOUT)
                    break
                if frame_type == sp.T_BYE:
                    await link.send(sp.pack_frame(sp.T_BYE_ACK,
                                                  frame_session))
                    break
                if frame_type not in (sp.T_HELLO, sp.H_PING, sp.H_STATS) \
                        and not self._allow_frame(session_id):
                    await link.send_error(
                        frame_session,
                        "session %d rate limited; retry after backoff"
                        % frame_session, sp.E_RATE_LIMITED)
                    continue
                try:
                    if frame_type == sp.T_HELLO and session_id:
                        # One session per connection: a second HELLO
                        # would orphan the first in the registry.
                        raise ServiceError(
                            "connection already carries session %d"
                            % session_id
                        )
                    with self._frame_span(frame_type, header, payload):
                        replies = self._dispatch(
                            frame_type, frame_session, payload
                        )
                    if frame_type == sp.T_HELLO and replies:
                        # remember the session born on this connection so
                        # a drop cleans it up
                        _t, born, _p = sp.unpack_header(
                            replies[0][: sp.HEADER_LEN]
                        )
                        session_id = born
                except (RegistryError, RoutingError, ServiceError,
                        ValueError, RuntimeError, LookupError) as exc:
                    replies = [
                        sp.pack_frame(
                            sp.T_ERROR,
                            frame_session,
                            sp.error_payload(
                                str(exc) or repr(exc),
                                getattr(exc, "code", sp.E_GENERIC),
                            ),
                        )
                    ]
                await link.send(b"".join(replies))
        finally:
            inflight.dec()
            if session_id:
                self.registry.disconnect(session_id)
                self._buckets.pop(session_id, None)

    # -- frame dispatch ------------------------------------------------------

    def _dispatch(self, frame_type: int, session_id: int,
                  payload: bytes) -> List[bytes]:
        field = self.field
        if frame_type == sp.T_HELLO:
            p, u, dataset_id = sp.parse_hello(payload)
            if p != field.p:
                raise ServiceError(
                    "field mismatch: service runs Z_%d, client asked Z_%d"
                    % (field.p, p)
                )
            session = self.registry.connect(u, dataset_id)
            ack = sp.words_payload(field, [session.dataset.n_updates])
            return [sp.pack_frame(sp.T_HELLO_ACK, session.session_id, ack)]

        if frame_type == sp.H_PING:
            # Health probe: sessionless, rate-limit-exempt, answered
            # even when admission control refuses new sessions — a full
            # node is busy, not dead, and the router must see the
            # difference.  The reply carries the dataset inventory the
            # supervisor's resync loop plans from.
            stats = self.registry.stats()
            return [
                sp.pack_frame(
                    sp.H_STATUS,
                    session_id,
                    sp.status_payload(
                        field,
                        stats["sessions"],
                        stats["open_queries"],
                        stats["queries_served"],
                        self.registry.inventory(),
                    ),
                )
            ]

        if frame_type == sp.H_STATS:
            # Metrics scrape: sessionless and rate-limit-exempt like
            # H_PING; the payload is the whole registry snapshot as
            # JSON — observability data rides outside the word
            # encoding, so it never meets the transcript accounting.
            body = json.dumps(
                {
                    "node": self.node_name,
                    "metrics": obs.get_registry().snapshot(),
                    "server": {
                        "timeouts": self.timeouts,
                        "rate_limited": self.rate_limited,
                    },
                    "registry": self.registry.stats(),
                },
                sort_keys=True,
            ).encode("utf-8")
            return [sp.pack_frame(sp.H_STATS_REPLY, session_id, body)]

        session = self.registry.session(session_id)
        dataset = session.dataset

        if frame_type == sp.T_UPDATES:
            # Socket bytes to the dataset's columns: no object per update.
            total = dataset.apply_columns(
                *sp.parse_updates_columns(dataset.backend, field, payload))
            return [
                sp.pack_frame(
                    sp.T_UPDATES_ACK,
                    session_id,
                    sp.words_payload(field, [total]),
                )
            ]

        if frame_type == sp.T_REPLAY_REQUEST:
            words = sp.parse_words(field, payload)
            if len(words) != 1:
                raise ServiceError("replay request takes one start index")
            # Each block of the log is cut column to column into one
            # frame per run of a single vector, in log order.
            frames = [
                sp.pack_frame(
                    sp.T_REPLAY_DATA, session_id,
                    sp.updates_payload_columns(field, vector, keys, deltas))
                for cursor in range(words[0], dataset.n_updates,
                                    REPLAY_BLOCK)
                for vector, keys, deltas in self.registry.tail_slice(
                    dataset.dataset_id, cursor, REPLAY_BLOCK)
            ]
            frames.append(
                sp.pack_frame(
                    sp.T_REPLAY_END,
                    session_id,
                    sp.words_payload(field, [dataset.n_updates]),
                )
            )
            return frames

        if frame_type == sp.T_QUERY_OPEN:
            words = sp.parse_words(field, payload)
            if not words:
                raise ServiceError("empty query descriptor")
            batched = bool(words[0])
            descriptors = []
            cursor = 1
            while cursor < len(words):
                if cursor + 2 > len(words):
                    raise ServiceError("truncated query descriptor")
                count = words[cursor + 1]
                end = cursor + 2 + count
                if end > len(words):
                    raise ServiceError("truncated query descriptor")
                descriptors.append(
                    QueryDescriptor.from_words(words[cursor:end])
                )
                cursor = end
            # The plan's shape rule (QueryRouter.make_prover) refuses a
            # unit the client's router would never make, before any
            # prover is built.
            active = self.registry.open_query(session_id, descriptors,
                                              batched)
            if batched:
                # The open frame is the batch announcement: the prover
                # (as wrapped) gets its members here, not in a later call.
                try:
                    active.prover.receive_batch(
                        [to_batch_query(q) for q in descriptors]
                    )
                except Exception:
                    # No ack will carry the reference: nobody could
                    # close this query but us.
                    session.close_query(active.ref)
                    raise
            return [
                sp.pack_frame(
                    sp.T_QUERY_ACK,
                    session_id,
                    sp.words_payload(field, [active.ref]),
                )
            ]

        if frame_type == sp.T_P_CALL:
            words = sp.parse_words(field, payload)
            calls = sp.parse_calls(words[1:])
            active = session.queries.get(words[0])
            if active is None:
                raise ServiceError("unknown query reference %d" % words[0])
            try:
                for method, args in calls:
                    result = self._prover_call(active, method, args)
            except AttributeError as exc:
                # A step this query's prover does not have is the
                # client's mistake, not a reason to drop the connection.
                raise ServiceError("no such step for query kind %d: %s"
                                   % (active.kind, exc)) from exc
            return [
                sp.pack_frame(
                    sp.T_P_REPLY,
                    session_id,
                    sp.words_payload(field, result),
                )
            ]

        if frame_type == sp.T_QUERY_CLOSE:
            words = sp.parse_words(field, payload)
            if len(words) != 1:
                raise ServiceError("query close takes one reference")
            session.close_query(words[0])
            return [sp.pack_frame(sp.T_QUERY_CLOSE_ACK, session_id)]

        if frame_type == sp.T_STATS:
            stats = self.registry.stats()
            return [
                sp.pack_frame(
                    sp.T_STATS_REPLY,
                    session_id,
                    sp.words_payload(
                        field,
                        [
                            stats["datasets"],
                            stats["sessions"],
                            stats["updates"],
                            stats["open_queries"],
                            stats["queries_served"],
                        ],
                    ),
                )
            ]

        raise ServiceError("frame type 0x%02x is not a request" % frame_type)

    # -- prover method dispatch ----------------------------------------------

    def _prover_call(self, active, method: int, args: List[int]) -> List[int]:
        """Invoke one prover-side protocol step; returns reply words.

        The step table decides everything: which method the opcode names
        for this query's kind, how many words it takes, how its result
        is laid out.  Nothing off the wire is ever used as a name.
        """
        step = sp.STEPS.get(method)
        if step is None:
            raise ServiceError("unknown prover method 0x%02x" % method)
        if len(args) != step.arity:
            raise ServiceError("prover method 0x%02x takes %d words, got %d"
                               % (method, step.arity, len(args)))
        resolved = step.resolve(active.kind)
        if resolved is None:
            raise ServiceError("query kind %d has no prover method 0x%02x"
                               % (active.kind, method))
        name, reply = resolved
        return _ENCODERS[reply](getattr(active.prover, name)(*args))
