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

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.heavy_hitters import NodeRecord
from repro.field.modular import PrimeField
from repro.service import protocol as sp
from repro.service.registry import RegistryError, SessionRegistry
from repro.service.router import (
    KIND_K_LARGEST,
    KIND_PREDECESSOR,
    KIND_SUCCESSOR,
    QueryDescriptor,
    RoutingError,
    to_batch_query,
)

#: Replayed updates per T_REPLAY_DATA frame.
REPLAY_BLOCK = 4096


def _flatten_pairs(pairs) -> List[int]:
    return [word for pair in pairs for word in pair]


def _flatten_records(records) -> List[int]:
    out = []
    for rec in records:
        out.extend((rec.index, rec.hash_value, rec.count))
    return out


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


class ProverServer:
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
        self.field = field
        self.host = host
        self.port = port
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
        self._server: Optional[asyncio.AbstractServer] = None
        #: The running ``_handle_connection`` tasks, so ``stop`` can end them.
        self._connections: Set["asyncio.Task[None]"] = set()

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

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close every accepted connection, so a peer
        (or a proxy in front of it) reads EOF at once instead of waiting
        out its receive timeout on a server that is gone."""
        if self._server is not None:
            self._server.close()
            await cancel_and_wait(self._connections)
            await self._server.wait_closed()
            self._server = None

    def snapshot(self, path) -> str:
        """Persist the registry's datasets (see ``SessionRegistry.snapshot``)."""
        return self.registry.snapshot(path)

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def serve_in_thread(self) -> "ServerHandle":
        """Boot the server on a daemon thread; returns a stop handle."""
        started = threading.Event()
        loop_holder = {}

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop_holder["loop"] = loop
            loop.run_until_complete(self.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(target=run, name="repro-prover-server",
                                  daemon=True)
        thread.start()
        started.wait()
        return ServerHandle(self, thread, loop_holder["loop"])

    # -- connection handling -------------------------------------------------

    async def _read_exactly(self, reader: asyncio.StreamReader, count: int,
                            timeout: Optional[float]) -> bytes:
        if timeout is None:
            return await reader.readexactly(count)
        return await asyncio.wait_for(reader.readexactly(count), timeout)

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

    def _frame_span(self, frame_type: int,
                    trace_pair: Optional[Tuple[int, int]],
                    payload: bytes):
        """A server-side span parented under the frame's trace ext."""
        tracer = obs.get_tracer()
        if trace_pair is None or not tracer.enabled:
            return obs.NOOP_SPAN
        trace_id, parent_span = trace_pair
        fields: Dict[str, object] = {}
        name = self._SPAN_NAMES.get(frame_type)
        if frame_type == sp.T_P_CALL:
            # A chain is named after its last call, the one that replies.
            try:
                words = sp.parse_words(self.field, payload)
                method = sp.parse_calls(words[1:])[-1][0]
            except sp.ServiceProtocolError:
                method = 0
            name = ("server.proof.round"
                    if method in (sp.M_ROUND_MESSAGE, sp.M_ROUND_MESSAGES)
                    else "server.proof.step")
            fields["method"] = method
        elif name is None:
            name = "server.frame"
            fields["type"] = frame_type
        if self.node_name:
            fields["node"] = self.node_name
        return tracer.span(name, parent=parent_span, trace_id=trace_id,
                           **fields)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        session_id = 0
        inflight = obs.gauge("repro_server_inflight_connections",
                             node=self.node_name)
        inflight.inc()
        handler = asyncio.current_task()
        self._connections.add(handler)
        try:
            while True:
                try:
                    header = await self._read_exactly(
                        reader, sp.HEADER_LEN, self.idle_timeout
                    )
                except asyncio.IncompleteReadError:
                    break  # connection closed between frames
                except asyncio.TimeoutError:
                    # Idle too long: shed the connection quietly — the
                    # client reconnects and resumes on its next request.
                    self.timeouts += 1
                    obs.counter("repro_server_timeouts_total",
                                kind="idle", node=self.node_name).inc()
                    break
                frame_type, frame_session, length = sp.unpack_header(
                    header, max_payload=self.max_payload
                )
                trace_pair: Optional[Tuple[int, int]] = None
                try:
                    ext_len = sp.header_ext_len(header)
                    if ext_len:
                        ext = await self._read_exactly(
                            reader, ext_len, self.frame_timeout
                        )
                        trace_pair = sp.parse_trace_ext(ext)
                    payload = await self._read_exactly(
                        reader, length, self.frame_timeout
                    )
                except asyncio.TimeoutError:
                    # A header whose payload never arrives is a stalled
                    # or malicious peer: structured refusal, then
                    # hang up (the stream position is unrecoverable).
                    self.timeouts += 1
                    obs.counter("repro_server_timeouts_total",
                                kind="frame", node=self.node_name).inc()
                    try:
                        writer.write(sp.pack_frame(
                            sp.T_ERROR, frame_session,
                            sp.error_payload(
                                "frame payload timed out", sp.E_TIMEOUT
                            ),
                        ))
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                if frame_type == sp.T_BYE:
                    writer.write(sp.pack_frame(sp.T_BYE_ACK, frame_session))
                    await writer.drain()
                    break
                if frame_type not in (sp.T_HELLO, sp.H_PING, sp.H_STATS) \
                        and not self._allow_frame(session_id):
                    writer.write(sp.pack_frame(
                        sp.T_ERROR, frame_session,
                        sp.error_payload(
                            "session %d rate limited; retry after backoff"
                            % frame_session,
                            sp.E_RATE_LIMITED,
                        ),
                    ))
                    await writer.drain()
                    continue
                try:
                    if frame_type == sp.T_HELLO and session_id:
                        # One session per connection: a second HELLO
                        # would orphan the first in the registry.
                        raise ServiceError(
                            "connection already carries session %d"
                            % session_id
                        )
                    with self._frame_span(frame_type, trace_pair, payload):
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
                for frame in replies:
                    writer.write(frame)
                await writer.drain()
        except sp.ServiceProtocolError as exc:
            # Framing damage: tell the peer once, then hang up.
            try:
                writer.write(sp.pack_frame(
                    sp.T_ERROR, 0,
                    sp.error_payload(str(exc), sp.E_TRANSPORT),
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            self._connections.discard(handler)
            inflight.dec()
            if session_id:
                self.registry.disconnect(session_id)
                self._buckets.pop(session_id, None)
            # RuntimeError: the loop may already be closed when a handler
            # is garbage-collected during interpreter/test teardown.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

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
            # The trailing TRACE_CAPABLE word advertises version-2
            # (traced) frame support; old clients read only the leading
            # words and keep speaking version 1.
            ack = sp.words_payload(
                field,
                [session.dataset.n_updates,
                 session.dataset.sessions_attached,
                 sp.TRACE_CAPABLE],
            )
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
            vector, pairs = sp.parse_updates(field, payload)
            total = dataset.apply(vector, pairs)
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
            start = words[0]
            frames = []
            cursor = start
            while cursor < dataset.n_updates:
                block = self.registry.tail_slice(
                    dataset.dataset_id, cursor, REPLAY_BLOCK
                )
                by_vector = {}
                for vector, key, delta in block:
                    by_vector.setdefault(vector, []).append((key, delta))
                for vector, pairs in sorted(by_vector.items()):
                    frames.append(
                        sp.pack_frame(
                            sp.T_REPLAY_DATA,
                            session_id,
                            sp.updates_payload(field, vector, pairs),
                        )
                    )
                cursor += len(block)
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
            if not descriptors:
                raise ServiceError("query open carried no descriptors")
            if batched and len(descriptors) < 2:
                raise ServiceError("a batched unit needs >= 2 descriptors")
            if not batched and len(descriptors) > 1:
                raise ServiceError(
                    "a single-shot unit carries one descriptor, got %d"
                    % len(descriptors)
                )
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
        """Invoke one prover-side protocol step; returns reply words."""
        prover = active.prover
        if method == sp.M_BEGIN_PROOF:
            prover.begin_proof()
            return []
        if method == sp.M_ROUND_MESSAGE:
            message = prover.round_message()
            if message and isinstance(message[0], NodeRecord):
                return _flatten_records(message)
            return list(message)
        if method == sp.M_RECEIVE_CHALLENGE:
            if len(args) != 1:
                raise ServiceError("receive_challenge takes one word")
            prover.receive_challenge(args[0])
            return []
        if method == sp.M_RECEIVE_QUERY:
            if len(args) != 2:
                raise ServiceError("receive_query takes (lo, hi)")
            prover.receive_query(args[0], args[1])
            return []
        if method == sp.M_ANSWER_ENTRIES:
            return _flatten_pairs(prover.answer_entries())
        if method == sp.M_LEVEL0_SIBLINGS:
            return _flatten_pairs(prover.level0_siblings())
        if method == sp.M_FOLD_CHALLENGE:
            if len(args) != 1:
                raise ServiceError("fold challenge takes one word")
            return _flatten_pairs(prover.receive_challenge(args[0]))
        if method == sp.M_CLAIM:
            if len(args) != 1:
                raise ServiceError("claim takes one word")
            kind = active.kind
            if kind == KIND_PREDECESSOR:
                flag, key = prover.claim_predecessor(args[0])
            elif kind == KIND_SUCCESSOR:
                flag, key = prover.claim_successor(args[0])
            elif kind == KIND_K_LARGEST:
                flag, key = prover.claim_kth_largest(args[0])
            else:
                raise ServiceError(
                    "query kind %d makes no claims" % kind
                )
            return [flag, key]
        if method == sp.M_RECEIVE_RANDOMNESS:
            if len(args) != 2:
                raise ServiceError("receive_randomness takes (r, s)")
            prover.receive_randomness(args[0], args[1])
            return []
        if method == sp.M_ROUND_MESSAGES:
            out: List[int] = []
            for message in prover.round_messages():
                out.extend(message)
            return out
        raise ServiceError("unknown prover method 0x%02x" % method)


async def cancel_and_wait(tasks) -> None:
    """Cancel the connection tasks a stopping server still runs and wait
    until each has unwound — closed its writers — so the loop can go."""
    tasks = list(tasks)
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


class ServerHandle:
    """A running threaded server: address + synchronous stop."""

    def __init__(self, server: ProverServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def address(self):
        return (self.server.host, self.server.port)

    def snapshot(self, path) -> str:
        """Snapshot the registry *on the server's loop* — between frames,
        so no half-applied update block can leak into the file."""
        import concurrent.futures

        future: "concurrent.futures.Future[str]" = concurrent.futures.Future()

        def run() -> None:
            try:
                future.set_result(self.server.snapshot(path))
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(run)
        return future.result(timeout=30)

    def stop(self) -> None:
        # Idempotent: a test that restarts servers may stop one both at
        # the restart point and again in its cleanup path.
        if not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        self._thread.join(timeout=10)
