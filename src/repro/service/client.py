"""The thin client verifier: blocking sockets, O(log u) state per copy.

A :class:`ServiceClient` plays the paper's data owner.  It connects to a
:class:`~repro.service.server.ProverServer`, *provisions* pools of
independent streaming verifiers before any data flows (Definition 1:
randomness precedes the stream; Section 7: one verified query consumes
one independent copy), streams its updates — feeding every local pool
and the remote dataset from the same blocks — and then asks verified
queries through the :class:`~repro.service.router.QueryRouter`.

The prover never runs locally: its protocol steps cross the wire as
``P_CALL``/``P_REPLY`` frame pairs through the remote proxies below.  A
step that returns nothing (a challenge, a query announcement) waits in
its proxy and rides in front of the next step that returns words, as
one chained frame — so one round of the protocol is one round trip.
The open's ack carries the prover's first messages, which need no
verifier word (g_1; a range's entries and level-0 siblings), and the
server releases the prover after its last reply, so a d-round
sum-check unit, and a point lookup or range scan over a universe of
2^d, costs d round trips; the client closes only a unit it abandons
early (heavy hitters, ``f2(workers=w)``, k-largest and the neighbour
queries still open, run their rounds and close).  The
:class:`~repro.comm.channel.Channel` still records every word in
conversation order, and the client additionally meters raw bytes per
query (:class:`QueryOutcome.cost`).
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.comm.channel import Channel, TamperHook
from repro.comm.transcript import Transcript
from repro.core.base import VerificationResult, pow2_dimension
from repro.core.heavy_hitters import NodeRecord
from repro.field.modular import PrimeField
from repro.field.vectorized import get_backend
from repro.lde.streaming import (
    DEFAULT_BLOCK,
    SketchStack,
    UpdateBlock,
    prepare_block,
    prepare_columns,
)
from repro.service import protocol as sp
from repro.service.router import (
    PlanUnit,
    QueryDescriptor,
    QueryRouter,
    RoutingError,
    to_batch_query,
)
from repro.service.transport import BlockingFrameLink, LinkClosed


class ServiceClientError(RuntimeError):
    """The service refused a request (its T_ERROR message)."""


class ServiceUnavailableError(ServiceClientError):
    """The transport failed mid-conversation (reset, timeout, damage).

    Raised instead of leaking raw OS errors: callers get the session id
    and the last operation the server acknowledged, which is exactly
    what a retry needs to resume idempotently.
    """

    def __init__(self, message: str, session_id: int = 0,
                 last_acked: str = ""):
        detail = message
        if session_id:
            detail += " (session %d" % session_id
            detail += ", last acked: %s)" % last_acked if last_acked else ")"
        super().__init__(detail)
        self.session_id = session_id
        self.last_acked = last_acked


class ServiceBusyError(ServiceClientError):
    """A clean server refusal (admission control or rate limit).

    The connection is healthy; the request should be retried after
    backoff without reconnecting.
    """

    def __init__(self, message: str, code: int = sp.E_BUSY):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and (seeded) jitter.

    Delays follow ``base_delay * multiplier^attempt`` capped at
    ``max_delay``; ``jitter`` subtracts a random fraction of the delay so
    a fleet of clients retrying the same outage does not stampede in
    lockstep.  The jitter draws from the client's own seeded RNG, keeping
    chaos-test runs deterministic.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base_delay * self.multiplier ** attempt,
                  self.max_delay)
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


#: Retries disabled: one attempt, failures surface immediately.
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class QueryCost:
    """What one verified query cost on the wire.

    ``transcript_words`` is the protocol-level (s, t) accounting;
    ``bytes_sent``/``bytes_received``/``frames`` are measured on the
    actual socket traffic of the query (open and ack, every round frame,
    the close handshake where there is one).
    """

    transcript_words: int
    bytes_sent: int
    bytes_received: int
    frames: int


@dataclass(frozen=True)
class QueryOutcome:
    """One verified answer plus its channel/frame cost.

    ``transcript`` is the conversation that produced the verdict — the
    byte-identity anchor of the chaos tests: a query retried across
    connection drops must reproduce the fault-free transcript of the
    verifier copy it ended on exactly.
    """

    descriptor: QueryDescriptor
    result: VerificationResult
    cost: QueryCost
    transcript: Optional[Transcript] = dataclass_field(default=None,
                                                      compare=False)


# -- remote prover proxies -----------------------------------------------------


def _pairs(words: Sequence[int]) -> List[Tuple[int, int]]:
    if len(words) % 2 != 0:
        raise ServiceClientError("malformed pair list from the service")
    return [(words[t], words[t + 1]) for t in range(0, len(words), 2)]


def _records(words: Sequence[int]) -> List[NodeRecord]:
    if len(words) % 3 != 0:
        raise ServiceClientError("malformed heavy-hitters records")
    return [
        NodeRecord(words[t], words[t + 1], words[t + 2])
        for t in range(0, len(words), 3)
    ]


#: Reply codec -> what a proxy makes of a P_REPLY's words.  ``words``
#: and ``rows`` are handed on as they are (the batch proxy splits its
#: rows by member degree); void steps get no reply: they are deferred.
_DECODERS = {
    sp.REPLY_PAIRS: _pairs,
    sp.REPLY_RECORDS: _records,
    sp.REPLY_CLAIM: lambda words: tuple(words[:2]),
}


class RemoteProver:
    """A prover behind the wire: every step in the protocol's step table
    (:data:`repro.service.protocol.STEPS`) as a method, resolved for the
    query kind this proxy was opened for.

    The open ran the unit's opening steps (:func:`~repro.service.
    protocol.unit_shape`), and the ack carried their replies: the
    verifier's first calls are answered from it, in order, and a
    verifier that asks for anything else first gets a
    :class:`RoutingError`.  A
    later step that returns nothing is *deferred*: it waits here and
    rides in front of the next step that returns words, as one chained
    frame.  The server runs a chain in order, so the prover still learns
    r_j only after g_j went out and before it commits g_{j+1}.  The
    buffer is per proxy, and a retry builds a new proxy: nothing
    deferred survives a reconnect.  Once the closing step has replied
    its last time the server has released the prover
    (:attr:`released`).
    """

    #: The tree-hash drivers ask; a remote prover is never normalized.
    normalized = False

    def __init__(self, client: "ServiceClient", unit: PlanUnit,
                 ack: bytes):
        descriptor = unit.descriptors[0]
        self._client = client
        self._steps = sp.steps_for_kind(descriptor.kind)
        self.d = client.d
        self._deferred: List[Tuple[int, Sequence[int]]] = []
        shape = sp.unit_shape(unit.batched, descriptor.kind)
        calls = [] if shape is None else sp.opening_calls(shape, descriptor)
        codecs = dict(self._steps.values())
        replying = [method for method, _args in calls
                    if codecs[method] != sp.REPLY_VOID]
        try:
            self.ref, words = sp.parse_ack(client.field, ack, len(replying))
        except sp.ServiceProtocolError as exc:
            raise ServiceClientError("malformed query ack: %s" % exc) \
                from None
        replies = {method: self._decode(codecs[method], reply)
                   for method, reply in zip(replying, words)}
        #: ``(opcode, args, reply)`` of each opening step, in order.
        self._opened = [(method, tuple(args), replies.get(method))
                        for method, args in calls]
        self._closing: Optional[int] = None
        self._closing_left = 0
        if shape is not None:
            self._closing = shape.closing
            self._closing_left = shape.closing_replies(self.d) \
                - shape.opening.count(shape.closing)

    @property
    def released(self) -> bool:
        """Did the closing step reply its last time?  Until then the
        server holds the prover, and a verifier that stops sooner
        leaves the client a ``T_QUERY_CLOSE`` to send."""
        return self._closing is not None and self._closing_left <= 0

    def _decode(self, reply: str, words: List[int]):
        decode = _DECODERS.get(reply)
        return decode(words) if decode else words

    def _from_ack(self, method: int, args: Sequence[int]):
        """The next opening step's reply, if that is what was asked."""
        expected, expected_args, reply = self._opened[0]
        if (method, tuple(args)) != (expected, expected_args):
            raise RoutingError(
                "the verifier asked for step 0x%02x%r where the open ran "
                "0x%02x%r" % (method, tuple(args), expected, expected_args))
        del self._opened[0]
        return reply

    def _defer(self, method: int, args: Sequence[int] = ()) -> None:
        self._deferred.append((method, args))

    def _call(self, method: int, args: Sequence[int] = ()) -> List[int]:
        deferred, self._deferred = self._deferred, []
        words = self._client._prover_call(self.ref, method, args, deferred)
        if method == self._closing:
            self._closing_left -= 1
        return words


def _step_method(name: str):
    def step(self, *args: int):
        opcode, reply = self._steps[name]
        if self._opened:
            return self._from_ack(opcode, args)
        if reply == sp.REPLY_VOID:
            self._defer(opcode, args)
            return None
        return self._decode(reply, self._call(opcode, args))

    step.__name__ = name
    return step


for _name in sp.STEP_METHODS:
    setattr(RemoteProver, _name, _step_method(_name))


class RemoteBatchedSumcheckProver(RemoteProver):
    """The batched engine behind the wire (direct-sum rounds).

    T_QUERY_OPEN already announced the batch to the server's prover, so
    nothing is re-sent here: the proxy knows the members of the unit
    it opened, only checks that the driver announces that same batch,
    and splits each flattened round message, g_1 from the ack included,
    by their degrees — a degree-2 member reads 3 words, an Fk member
    k+1.
    """

    def __init__(self, client: "ServiceClient", unit: PlanUnit,
                 ack: bytes):
        self._members = [to_batch_query(q) for q in unit.descriptors]
        super().__init__(client, unit, ack)

    def receive_batch(self, queries) -> None:
        if list(queries) != self._members:
            raise RoutingError(
                "the driver announced a batch other than the one opened"
            )

    def _decode(self, reply: str, words: List[int]):
        if reply != sp.REPLY_ROWS:
            return super()._decode(reply, words)
        out: List[List[int]] = []
        cursor = 0
        for member in self._members:
            out.append(words[cursor : cursor + member.degree + 1])
            cursor += member.degree + 1
        if cursor != len(words):
            raise ServiceClientError("malformed batched round message")
        return out


# -- verifier pools ------------------------------------------------------------


class _Pool:
    """One pool key's independent verifier copies.

    A segment of the client's :class:`SketchStack` — which streams
    vector 0 into every copy and vector 1 into the second LDE of the
    two-vector families — consumed from the tail, one copy per query
    conversation.
    """

    def __init__(self, copies: int, pool_key: Tuple, field: PrimeField,
                 u: int, rng: random.Random, stack: SketchStack):
        self.key = pool_key
        self._fresh = [
            QueryRouter.make_verifier(
                pool_key, field, u, random.Random(rng.getrandbits(64))
            )
            for _ in range(copies)
        ]
        stack.add_copies(self._fresh)

    def take(self):
        if not self._fresh:
            raise LookupError(
                "all independent protocol copies of pool %r were consumed"
                % (self.key,))
        return self._fresh.pop()

    def put_back(self, verifier) -> None:
        """Undo the last :meth:`take` of a copy that was never used: it
        is the tail row of its segment again, so the stream feeds it."""
        self._fresh.append(verifier)

    @property
    def remaining(self) -> int:
        return len(self._fresh)


def _pool_key(what) -> Tuple:
    """A descriptor's verifier pool key; a key passes through."""
    if isinstance(what, QueryDescriptor):
        return QueryRouter.verifier_pool_key(what)
    return tuple(what)


# -- the client ----------------------------------------------------------------


class ServiceClient:
    """One session against a prover service.

    Parameters
    ----------
    host, port:
        The service address.
    field, u:
        Field and universe; both must match the service (checked in the
        handshake — a mismatch is an error frame, not silent corruption).
    dataset_id:
        Which server-side dataset to attach to.  Sessions sharing an id
        share one server pass over the data.
    provision:
        ``{descriptor or pool key: copies}`` of verifier pools to create
        *before* streaming.  More pools can be added with
        :meth:`provision` while the stream is still empty (or before
        this session has missed any updates).
    rng:
        Randomness source for every pool's verifier copies.
    tamper:
        Optional :class:`~repro.comm.channel.TamperHook` installed on
        every query channel (models a corrupted network for soundness
        experiments).
    timeout:
        Connect timeout (seconds).
    op_timeout:
        Per-operation deadline: every socket send/recv must complete
        within this many seconds or the operation fails with
        :class:`ServiceUnavailableError` (and, under a retry policy, is
        retried on a fresh connection).
    retry:
        :class:`RetryPolicy` for transparent recovery from transport
        faults and busy refusals.  Pass :data:`NO_RETRY` to surface
        every failure immediately.
    max_payload:
        Frame-size knob enforced on every received header before
        allocating (mirrors the server's).
    """

    def __init__(
        self,
        host: str,
        port: int,
        field: PrimeField,
        u: int,
        dataset_id: int = 0,
        provision: Optional[Dict] = None,
        rng: Optional[random.Random] = None,
        tamper: Optional[TamperHook] = None,
        timeout: float = 30.0,
        op_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        max_payload: int = sp.MAX_PAYLOAD,
    ):
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.dataset_id = dataset_id
        self.tamper = tamper
        self._rng = rng or random.Random()
        self._pools: Dict[Tuple, _Pool] = {}
        #: Every copy of every pool, fed as one: segment s of the stack
        #: is the s-th pool provisioned.
        self._stack = SketchStack(get_backend(field), 2, self.d)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.updates_streamed = 0
        self._host = host
        self._port = port
        self._connect_timeout = timeout
        self.op_timeout = op_timeout
        self.retry = retry or RetryPolicy()
        self.max_payload = max_payload
        #: Jitter draws come from a derived RNG, not ``self._rng``: a
        #: retry must never shift the verifier-pool seed sequence, or the
        #: copy a retried query takes would differ from the same copy in
        #: a fault-free run and byte-identical recovery would be
        #: unfalsifiable.
        self._retry_rng = random.Random(self._rng.getrandbits(64))
        #: Transport retries performed (reconnect + replay of an op).
        self.retries = 0
        #: Busy/rate-limit refusals absorbed by backoff.
        self.refusals = 0
        self.reconnects = 0
        #: Wall-clock seconds spent blocked on the socket (send + recv);
        #: the load generator subtracts this from a query's total to
        #: split wire wait from local verify compute.
        self.wire_seconds = 0.0
        #: Last operation the server acknowledged (for error context).
        self._last_acked = "connect"
        self._link: Optional[BlockingFrameLink] = None
        #: The dataset's server-side update total as last acknowledged —
        #: the idempotence anchor: a resent block whose updates the
        #: server already counted is skipped, not double-applied.
        self._server_updates = 0
        #: Trace propagation: ids ride in version-2 frames whenever the
        #: tracer is on.  Span and trace ids come from ``os.urandom``
        #: (via the tracer) — never from ``self._rng``/``self._retry_rng``,
        #: whose draw sequences the transcript-equality invariant
        #: depends on.
        self._tracer = obs.get_tracer()
        #: One client session = one trace: the root span under which
        #: every update block, query, round and server-side span nests.
        self._session_span = self._tracer.span(
            "client.session", root=True, dataset=dataset_id
        )
        self._session_span.__enter__()

        # The opening dial honours the retry policy too: no state exists
        # yet, so re-dialling after a transport fault is trivially safe.
        dials = 0
        while True:
            try:
                self._connect()
                break
            except ServiceUnavailableError:
                dials += 1
                if dials >= self.retry.max_attempts:
                    raise
                self.retries += 1
                obs.counter("repro_client_retries_total", op="dial").inc()
                time.sleep(self.retry.delay(dials - 1, self._retry_rng))
        #: Updates the dataset already held when this session joined —
        #: fetch them with :meth:`replay_missed` before provisioning can
        #: be considered caught up.
        self.missed_updates = self._server_updates
        if provision:
            for key, copies in provision.items():
                self.provision(key, copies)

    # -- connection lifecycle ------------------------------------------------

    def _connect(self) -> None:
        """Dial the service and open a session on the dataset."""
        self._drop_link()
        try:
            self._link = BlockingFrameLink.dial(
                (self._host, self._port), self._connect_timeout,
                self.op_timeout, self.max_payload,
            )
        except OSError as exc:
            raise self._unavailable("dial failed: %s" % exc) from exc
        with self._tracer.span("client.session.open",
                               host=self._host, port=self._port):
            _t, session_id, payload = self._request(
                sp.T_HELLO, 0,
                sp.hello_payload(self.field, self.u, self.dataset_id),
                expect=sp.T_HELLO_ACK,
            )
        self.session_id = session_id
        words = sp.parse_words(self.field, payload)
        self._server_updates = words[0] if words else 0
        self._last_acked = "hello"

    def reconnect(self) -> None:
        """Re-dial and resume this session.

        The new connection gets a fresh server-side session id attached
        to the *same dataset*; verifier pools, streamed state and
        fingerprints all live client-side, so nothing else changes.
        """
        self._connect()
        self.reconnects += 1
        obs.counter("repro_client_reconnects_total").inc()

    # -- provisioning --------------------------------------------------------

    def provision(self, what, copies: int = 1) -> Tuple:
        """Create ``copies`` independent verifiers for a query family."""
        if copies < 1:
            raise ValueError("need at least one copy")
        key = _pool_key(what)
        if key in self._pools:
            raise ValueError("pool %r is already provisioned" % (key,))
        if self.updates_streamed:
            raise ValueError(
                "pools must be provisioned before the stream starts"
            )
        self._pools[key] = _Pool(
            copies, key, self.field, self.u, self._rng, self._stack
        )
        return key

    def pool_remaining(self, what) -> int:
        return self._pools[_pool_key(what)].remaining

    # -- streaming -----------------------------------------------------------

    def send_updates(self, pairs: Sequence[Tuple[int, int]],
                     vector: int = 0, block: int = DEFAULT_BLOCK) -> None:
        """Stream a batch of ``(key, delta)`` updates.

        Every block is validated, split and pre-aggregated once; it
        travels to the service in one UPDATES frame built from the split
        columns and, once acknowledged, is folded into every provisioned
        verifier copy by one stacked kernel — the single pass both
        parties observe.  A key outside the universe is refused before
        anything is sent or fed, and a block the service refuses moves
        no copy.
        """
        if block < 1:
            raise ValueError("block size must be positive, got %d" % block)
        pairs = list(pairs)
        for prepared in [
            self._prepare(pairs[start : start + block], vector)
            for start in range(0, len(pairs), block)
        ]:
            self._send_block(vector, prepared)
            self._feed(prepared, vector)

    def _live(self) -> List[int]:
        return [pool.remaining for pool in self._pools.values()]

    def _prepare(self, chunk, vector: int) -> UpdateBlock:
        return prepare_block(
            self._stack.backend, self.u, chunk,
            self._stack.copies(vector, self._live()),
        )

    def _feed(self, prepared: UpdateBlock, vector: int) -> None:
        live = self._live()
        with self._tracer.span(
            "client.update.feed", updates=prepared.count,
            keys=prepared.folded, rows=self._stack.copies(vector, live),
        ):
            self._stack.feed(prepared, vector, live)
        self.updates_streamed += prepared.count

    def _send_block(self, vector: int, prepared: UpdateBlock) -> None:
        """One UPDATES frame, retried idempotently.

        If the frame was applied but its ack lost (connection dropped in
        between), the reconnect's HELLO reports a dataset total that
        already covers this block — the retry then *skips* the resend
        instead of double-applying.  The reconciliation assumes this
        session is the dataset's only writer during its own retry
        window (true for per-session datasets; shared datasets have a
        single writer by construction in the load generator).
        """
        count = prepared.count
        target = self._server_updates + count

        def attempt() -> None:
            _t, _s, reply = self._request(
                sp.T_UPDATES, self.session_id, payload,
                expect=sp.T_UPDATES_ACK,
            )
            words = sp.parse_words(self.field, reply)
            self._server_updates = words[0] if words else target
            self._last_acked = "updates@%d" % self._server_updates

        def already_done() -> bool:
            return self._server_updates >= target

        with self._tracer.span("client.update.block",
                               n=count, vector=vector):
            # Encoded once, from the split columns; a delta outside
            # int64 left none and takes the per-pair loop.
            payload = (
                sp.updates_payload(self.field, vector, prepared.pairs)
                if prepared.columns is None
                else sp.updates_payload_columns(self.field, vector,
                                                *prepared.columns)
            )
            self._with_retries(attempt, "updates", already_done=already_done)

    def put(self, key: int, delta: int, vector: int = 0) -> None:
        self.send_updates([(key, delta)], vector=vector)

    def replay_missed(self) -> int:
        """Fetch and locally process the updates this session never saw.

        The service answers with the net counts of its log's first
        ``stop`` updates, ``stop`` being the length this session's HELLO
        reported (:attr:`missed_updates`): one entry per touched key of
        each vector, however many updates built it.  That is all a copy
        needs, since every state it keeps is linear in the net vector
        ``a``: an LDE value f_a(r) = Σ_i a_i·χ_i(r) (Theorem 1), a tree
        hash, heavy hitters' count-augmented root and n = Σ δ depend on
        ``a`` alone, not on how many updates built it or in what order.
        So a late joiner ends, mod p, where a verifier that watched from
        the start ends (``updates_processed`` counts the entries it
        folded).  Trust is unchanged: a joiner never saw the prefix it
        missed, and took the server's replay of the log on trust just as
        much as it takes these counts.

        Each frame is range-checked and fed as it arrives — one
        ``prepare_columns``, one stacked feed — so at most one frame is
        held, and a bad key refuses its frame whole.  Until the reply
        ends :attr:`updates_streamed` counts the entries fed, and a drop
        resumes the reply past them (``skip``); a write landing
        meanwhile is not folded, since the reply stands for ``stop``.
        Returns ``stop``, which :attr:`updates_streamed` then becomes.

        Only valid before this session has streamed anything itself: a
        session that already fed its pools would double-count its own
        updates.
        """
        if self.updates_streamed:
            raise ValueError(
                "replay after streaming would double-count the %d updates "
                "this session already processed" % self.updates_streamed
            )
        stop = self.missed_updates

        def attempt() -> None:
            self._send(self._frame(
                sp.T_REPLAY_REQUEST,
                self.session_id,
                sp.words_payload(self.field, [stop, self.updates_streamed]),
            ))
            while True:
                frame_type, _session, payload = self._recv()
                if frame_type == sp.T_ERROR:
                    code, message = sp.parse_error_struct(payload)
                    if code in sp.RETRYABLE_RECONNECT:
                        raise self._unavailable(message)
                    raise ServiceClientError(message)
                if frame_type == sp.T_REPLAY_END:
                    end = sp.parse_words(self.field, payload)
                    if end != [stop]:
                        raise ServiceClientError(
                            "the service ended a replay of %d updates "
                            "at %r" % (stop, end))
                    return
                if frame_type != sp.T_REPLAY_DATA:
                    raise ServiceClientError(
                        "unexpected frame 0x%02x during replay" % frame_type
                    )
                self._feed_replayed(payload)

        self._with_retries(attempt, "replay")
        self.updates_streamed = stop
        self.missed_updates = 0
        self._last_acked = "replay@%d" % stop
        return stop

    def _feed_replayed(self, payload: bytes) -> None:
        """Range-check one frame of replayed entries, then feed it."""
        backend = self._stack.backend
        vector, keys, counts = sp.parse_updates_columns(
            backend, self.field, payload)
        if not len(keys):
            return
        try:
            # One entry per key already: nothing to sum first.
            prepared = prepare_columns(backend, self.u, keys, counts)
        except ValueError as exc:
            # Nothing was fed.  The rest of the replay is still in
            # flight on this socket: close it, so the next operation
            # re-dials instead of reading stale frames.
            self._drop_link()
            raise ServiceClientError(
                "the service replayed a bad frame: %s" % exc
            ) from exc
        self._feed(prepared, vector)

    # -- queries -------------------------------------------------------------

    def query(self, *descriptors: QueryDescriptor) -> List[QueryOutcome]:
        """Run verified queries; returns one outcome per descriptor.

        The router plans the descriptors first: every sum-check
        descriptor (RANGE-SUM, F2, Fk, INNER-PRODUCT, in any mix, a lone
        one included) runs in one batched direct-sum execution on the
        engine (and one verifier copy); everything else — sharded F2
        too — runs single-shot, each consuming one copy from its
        provisioned pool.
        """
        if not descriptors:
            return []
        outcomes: Dict[QueryDescriptor, QueryOutcome] = {}
        for unit in QueryRouter.plan(list(descriptors)):
            for descriptor, outcome in self._run_unit(unit):
                outcomes[descriptor] = outcome
        return [outcomes[q] for q in descriptors]

    def _run_unit(self, unit: PlanUnit):
        pool = self._pools.get(unit.pool_key)
        if pool is None:
            raise RoutingError(
                "no pool provisioned for %r — pass it to provision() "
                "before streaming" % (unit.pool_key,)
            )
        sent0, recv0 = self.bytes_sent, self.bytes_received
        frames0 = self.frames_sent + self.frames_received
        # One copy per conversation.  An open never acked showed the
        # service only the descriptor, so a retry keeps the copy; once
        # the open is acked the copy is spent and a retry takes the next
        # one: a prover never meets the same secret point twice.
        state = {"verifier": pool.take(), "opened": False, "fault": None,
                 "channel": None, "result": None}

        def attempt() -> None:
            if state["opened"]:
                try:
                    state["verifier"] = pool.take()
                except LookupError as exc:
                    # Name the fault that spent the last copy.
                    raise exc from state["fault"]
                state["opened"] = False
            open_words: List[int] = [1 if unit.batched else 0]
            for q in unit.descriptors:
                open_words.extend(q.to_words())
            _t, _s, payload = self._request(
                sp.T_QUERY_OPEN,
                self.session_id,
                sp.words_payload(self.field, open_words),
                expect=sp.T_QUERY_ACK,
            )
            state["opened"] = True
            try:
                proxy = self._make_proxy(unit, payload)
            except ServiceClientError:
                # Whatever the server opened goes with the connection.
                self._drop_link()
                raise
            self._last_acked = "query-open#%d" % proxy.ref

            channel = Channel(tamper=self.tamper)
            state["channel"] = channel
            try:
                # The interactive verification — every proof round and
                # the final accept/reject decision — runs inside this
                # span; the per-round spans nest under it.
                with self._tracer.span("client.verify"):
                    state["result"] = QueryRouter.run(
                        unit, proxy, state["verifier"], channel
                    )
            except ServiceUnavailableError as exc:
                state["fault"] = exc
                raise
            finally:
                # A unit the verifier left before its closing step is
                # closed, best-effort: a verdict that is in is never
                # re-run for it, and if the transport died the server's
                # disconnect cleanup already released the prover.
                if not proxy.released:
                    try:
                        self._request(
                            sp.T_QUERY_CLOSE,
                            self.session_id,
                            sp.words_payload(self.field, [proxy.ref]),
                            expect=sp.T_QUERY_CLOSE_ACK,
                        )
                    except ServiceClientError:
                        # A late or damaged reply may still be on the
                        # link: drop it, so the next operation re-dials
                        # instead of reading those bytes as its own reply.
                        self._drop_link()

        with self._tracer.span(
            "client.query", batched=unit.batched,
            kinds=[q.name for q in unit.descriptors],
        ):
            try:
                self._with_retries(attempt, "query")
            except Exception:
                if not state["opened"]:
                    # Copies cannot be re-provisioned once the stream
                    # has started, and this one is still unspent.
                    pool.put_back(state["verifier"])
                raise
        result = state["result"]
        channel = state["channel"]

        cost_frames = (self.frames_sent + self.frames_received) - frames0
        out = []
        for index, (descriptor, res) in enumerate(
            zip(unit.descriptors, result if unit.batched else [result])
        ):
            cost = QueryCost(
                # A batch's words are accounted per query; wire bytes
                # are shared.
                transcript_words=channel.query_cost(index) if unit.batched
                else channel.transcript.total_words,
                bytes_sent=self.bytes_sent - sent0,
                bytes_received=self.bytes_received - recv0,
                frames=cost_frames,
            )
            # The live mirror of the paper's accounting: the
            # metrics-vs-accounting cross-check asserts these
            # observations equal Channel.query_cost exactly.
            obs.histogram("repro_client_query_words",
                          kind=descriptor.name).observe(
                cost.transcript_words)
            out.append((descriptor, QueryOutcome(
                descriptor, res, cost, transcript=channel.transcript
            )))
        return out

    def _make_proxy(self, unit: PlanUnit, ack: bytes) -> RemoteProver:
        """The unit's proxy, from the payload of its ``T_QUERY_ACK``."""
        cls = RemoteBatchedSumcheckProver if unit.batched else RemoteProver
        return cls(self, unit, ack)

    # -- service metadata ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        _t, _s, payload = self._request(
            sp.T_STATS, self.session_id, b"", expect=sp.T_STATS_REPLY
        )
        words = sp.parse_words(self.field, payload)
        keys = ["datasets", "sessions", "updates", "open_queries",
                "queries_served"]
        return dict(zip(keys, words))

    def stats_json(self):
        """The server's metrics snapshot (the H_STATS frame): a dict of
        the remote metrics registry plus server/registry counters."""
        _t, _s, payload = self._request(
            sp.H_STATS, 0, b"", expect=sp.H_STATS_REPLY
        )
        return json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        self._session_span.end()
        if self._link is None:
            return
        try:
            self._request(sp.T_BYE, self.session_id, b"", expect=sp.T_BYE_ACK)
        except (OSError, ServiceClientError):
            pass
        self._drop_link()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire plumbing -------------------------------------------------------

    def _prover_call(self, ref: int, method: int, args: Sequence[int],
                     deferred: Sequence[Tuple[int, Sequence[int]]] = ()
                     ) -> List[int]:
        """One round trip: the ``deferred`` void calls, then ``method``,
        whose words come back.  With nothing deferred the frame is the
        plain ``[ref, method, args...]``."""
        if deferred:
            words = [ref, sp.M_CHAIN,
                     *sp.chain_args([*deferred, (method, args)])]
        else:
            words = [ref, method, *args]
        # Round-message calls are the proof rounds; each gets its own
        # span so the server's per-round spans nest one level deeper.
        if method in sp.ROUND_METHODS:
            span = self._tracer.span("client.proof.round", method=method)
        else:
            span = obs.NOOP_SPAN
        with span:
            _t, _s, payload = self._request(
                sp.T_P_CALL,
                self.session_id,
                sp.words_payload(self.field, words),
                expect=sp.T_P_REPLY,
            )
        return sp.parse_words(self.field, payload)

    def _drop_link(self) -> None:
        """Close the link, if any: the next operation re-dials."""
        if self._link is not None:
            self._link.close()
            self._link = None

    def _unavailable(self, message: str) -> ServiceUnavailableError:
        return ServiceUnavailableError(
            message, session_id=getattr(self, "session_id", 0),
            last_acked=self._last_acked,
        )

    def _frame(self, frame_type: int, session_id: int,
               payload: bytes = b"") -> bytes:
        """Pack a frame, stamping the current trace context when the
        tracer is on and a span is open."""
        if self._tracer.enabled:
            ctx = obs.current()
            if ctx is not None:
                return sp.pack_frame(frame_type, session_id, payload,
                                     trace=ctx.pair())
        return sp.pack_frame(frame_type, session_id, payload)

    def _on_wire(self, op: str, call, *args):
        """One blocking call on the link, timed into ``wire_seconds``,
        its failures mapped onto :class:`ServiceUnavailableError`."""
        if self._link is None:
            raise self._unavailable("client is not connected")
        t0 = time.perf_counter()
        try:
            return call(self._link, *args)
        except socket.timeout as exc:
            obs.counter("repro_client_deadline_hits_total", op=op).inc()
            raise self._unavailable(
                "%s timed out after %.3gs" % (op, self.op_timeout)) from exc
        except LinkClosed as exc:
            raise self._unavailable(
                "connection closed by the service") from exc
        except OSError as exc:
            raise self._unavailable("%s failed: %s" % (op, exc)) from exc
        except sp.ServiceProtocolError as exc:
            # Structural damage on the inbound stream is a transport
            # fault (TCP guarantees the server's bytes arrive intact, so
            # something between us and it mangled the frame): resync by
            # reconnecting rather than misparse everything after it.
            raise self._unavailable("frame damaged in flight: %s" % exc) \
                from exc
        finally:
            self.wire_seconds += time.perf_counter() - t0

    def _send(self, frame: bytes) -> None:
        self._on_wire("send", BlockingFrameLink.send, frame)
        self.bytes_sent += len(frame)
        self.frames_sent += 1

    def _recv(self) -> Tuple[int, int, bytes]:
        # A traced reply's extension stays on the header: observability
        # data, not payload, but bytes that did cross the wire.
        frame_type, session_id, header, payload = self._on_wire(
            "recv", BlockingFrameLink.read_frame)
        self.bytes_received += len(header) + len(payload)
        self.frames_received += 1
        return frame_type, session_id, payload

    def _request(self, frame_type: int, session_id: int, payload: bytes,
                 expect: int) -> Tuple[int, int, bytes]:
        busy = 0
        while True:
            self._send(self._frame(frame_type, session_id, payload))
            reply_type, reply_session, reply_payload = self._recv()
            if reply_type == sp.T_ERROR:
                code, message = sp.parse_error_struct(reply_payload)
                if code in sp.RETRYABLE_BUSY:
                    # A clean refusal (admission/rate limit): the server
                    # did not process the request, so resending after
                    # backoff is safe at *any* protocol position — no
                    # verifier or prover state moved.
                    busy += 1
                    if busy >= self.retry.max_attempts:
                        raise ServiceBusyError(message, code=code)
                    self.refusals += 1
                    obs.counter("repro_client_refusals_total").inc()
                    time.sleep(self.retry.delay(busy - 1, self._retry_rng))
                    continue
                if code in sp.RETRYABLE_RECONNECT:
                    raise self._unavailable(message)
                raise ServiceClientError(message)
            if reply_type != expect:
                raise ServiceClientError(
                    "expected frame 0x%02x, got 0x%02x" % (expect, reply_type)
                )
            return reply_type, reply_session, reply_payload

    # -- retry engine --------------------------------------------------------

    def _with_retries(self, attempt: Callable[[], None], op: str,
                      already_done: Optional[Callable[[], bool]] = None
                      ) -> None:
        """Run ``attempt`` under the retry policy.

        Transport faults reconnect before retrying (busy refusals are
        absorbed lower down, in :meth:`_request`, where resending is
        position-safe).  ``already_done`` is consulted after a reconnect
        — an operation the server provably applied (its effect is
        visible in the fresh HELLO state) is not replayed, which is what
        makes resends idempotent.
        """
        failures = 0
        while True:
            try:
                attempt()
                return
            except ServiceUnavailableError:
                failures += 1
                if failures >= self.retry.max_attempts:
                    raise
                self.retries += 1
                obs.counter("repro_client_retries_total", op=op).inc()
                time.sleep(self.retry.delay(failures - 1, self._retry_rng))
                try:
                    self.reconnect()
                except (ServiceClientError, OSError):
                    # Dial failed: the next attempt() fails fast on the
                    # dead socket and consumes another try.
                    pass
                else:
                    if already_done is not None and already_done():
                        return
