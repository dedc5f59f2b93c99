"""Call chaining on the service wire: one round, one round trip.

The client defers every prover call that returns nothing and sends it in
front of the next call that replies, as one ``M_CHAIN`` frame.  These
tests pin what that may not change — transcript bytes, the order in
which the prover sees its calls, the refuse-it-whole behaviour of the
limiter — and what it must change: the frame count.  The reference for
"unchanged" is twofold: the in-process run (no wire at all) and a
test-local client that still speaks the pre-chain dialect, one call per
frame, to the same server.
"""

from __future__ import annotations

import random
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.channel import Channel
from repro.comm.wire import encode_transcript
from repro.core.base import pow2_dimension
from repro.field.modular import DEFAULT_FIELD as F
from repro.service import protocol as sp
from repro.service import (
    ProverServer,
    QueryRouter,
    ServiceClient,
    ServiceClientError,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    k_largest,
    point_lookup,
    predecessor,
    range_scan,
    range_sum,
    successor,
)
from repro.service.client import NO_RETRY, RetryPolicy
from repro.service.router import RoutingError, to_batch_query

U = 64
D = pow2_dimension(U)
UPDATES_A = [(i * 7 % U, 1 + i % 4) for i in range(48)]
UPDATES_B = [(i * 5 % U, 1 + i % 3) for i in range(32)]

#: One request per shape the router plans: every single-shot kind, the
#: RANGE-SUM-only batch and the mixed batch.
REQUESTS = {
    "f2": [f2()],
    "fk": [fk(3)],
    "range-sum": [range_sum(5, 40)],
    "inner-product": [inner_product()],
    "point-lookup": [point_lookup(7)],
    "range-scan": [range_scan(3, 30)],
    "heavy-hitters": [heavy_hitters(1, 8)],
    "k-largest": [k_largest(2)],
    "predecessor": [predecessor(33)],
    "successor": [successor(33)],
    "batch-range-sum": [range_sum(0, 9), range_sum(10, 63)],
    "batch-mixed": [range_sum(2, 50), f2(), fk(3), inner_product()],
}

#: Round trips of a chained query, from the drivers' call order: the
#: open, one per replying call the open's ack did not answer, and a close
#: unless a closing step released the prover.  A sum-check unit is d:
#: the ack carries g_1 and g_d releases it.  A point lookup or range scan
#: is d: the ack carries the entries and the level-0 siblings, and the
#: (d - 1)-th fold releases it.  Heavy hitters is open + d + close.
ROUND_TRIPS = {
    "f2": D,
    "fk": D,
    "range-sum": D,
    "inner-product": D,
    "point-lookup": D,
    "range-scan": D,
    "heavy-hitters": D + 2,
    "batch-range-sum": D,
    "batch-mixed": D,
}
#: The requests whose prover commits a round message before each
#: challenge (a tree prover's receive_challenge is itself the reply).
COMMITTING = ROUND_TRIPS.keys() - {"point-lookup", "range-scan"}

#: The opcodes that used to announce a batch to its prover.
RETIRED_OPCODES = (0x0A, 0x0C)

_PROVER_STEPS = frozenset([
    "begin_proof", "round_message", "round_messages", "receive_challenge",
    "receive_query", "receive_batch",
    "receive_randomness", "answer_entries", "level0_siblings",
    "claim_predecessor", "claim_successor", "claim_kth_largest",
])


class UnchainedClient(ServiceClient):
    """The pre-chain dialect: every prover call is its own round trip."""

    def _make_proxy(self, unit, ack):
        proxy = super()._make_proxy(unit, ack)
        proxy._defer = proxy._call
        return proxy


class RecordingProver:
    """Forwards to the real prover, logging each protocol step."""

    def __init__(self, prover, log):
        self._prover = prover
        self._log = log

    def __getattr__(self, name):
        attr = getattr(self._prover, name)
        if name not in _PROVER_STEPS:
            return attr

        def step(*args):
            self._log.append((name, args))
            return attr(*args)

        return step


class RecordingServer:
    """A threaded server whose provers log their calls per dataset."""

    def __init__(self, **kwargs):
        self.logs = {}
        self.server = ProverServer(F, prover_wrapper=self._wrap, **kwargs)
        self.handle = self.server.serve_in_thread()

    def _wrap(self, unit, prover, dataset):
        log = self.logs.setdefault(dataset.dataset_id, [])
        return RecordingProver(prover, log)


@pytest.fixture(scope="module")
def recording():
    rec = RecordingServer()
    yield rec
    rec.handle.stop()


_DATASET_COUNTER = iter(range(200_000, 300_000))


def open_session(address, descriptors, cls=ServiceClient, seed=7, **kwargs):
    """A provisioned, streamed session ready for one request."""
    client = cls(*address, F, U, dataset_id=next(_DATASET_COUNTER),
                 rng=random.Random(seed), **kwargs)
    for unit in QueryRouter.plan(descriptors):
        client.provision(unit.pool_key, 1)
    client.send_updates(UPDATES_A)
    client.send_updates(UPDATES_B, vector=1)
    return client


def over_the_wire(address, descriptors, cls=ServiceClient, **kwargs):
    with open_session(address, descriptors, cls, **kwargs) as client:
        outcomes = client.query(*descriptors)
        return client, outcomes


def transcript_bytes(outcomes):
    return [encode_transcript(F, o.transcript) for o in outcomes]


def in_process(recording, descriptors):
    """The same request with no wire in the proof: the session only
    draws the verifier (same seed, same stream) and feeds the dataset."""
    with open_session(recording.handle.address, descriptors) as client:
        dataset = recording.server.registry.datasets[client.dataset_id]
        (unit,) = QueryRouter.plan(descriptors)
        verifier = client._pools[unit.pool_key].take()
        channel = Channel()
        results = QueryRouter.run(
            unit, QueryRouter.make_prover(unit, dataset), verifier, channel
        )
    return results if unit.batched else [results], channel.transcript


# -- (a) transcripts and frame counts -------------------------------------------


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_chained_equals_unchained_equals_in_process(recording, name):
    descriptors = REQUESTS[name]
    address = recording.handle.address
    chained_client, chained = over_the_wire(address, descriptors)
    plain_client, plain = over_the_wire(address, descriptors,
                                        cls=UnchainedClient)
    local_results, local_transcript = in_process(recording, descriptors)

    assert all(o.result.accepted for o in chained), \
        [o.result.reason for o in chained]
    assert [o.result.value for o in chained] \
        == [o.result.value for o in plain] \
        == [r.value for r in local_results]
    assert transcript_bytes(chained) == transcript_bytes(plain)
    assert set(transcript_bytes(chained)) \
        == {encode_transcript(F, local_transcript)}
    assert [o.cost.transcript_words for o in chained] \
        == [o.cost.transcript_words for o in plain]

    # (b) The prover was driven through the same steps, same arguments,
    # same order — chained, unchained and with no wire at all...
    logs = recording.logs
    chained_log = logs[chained_client.dataset_id]
    assert chained_log == logs[plain_client.dataset_id]
    # ...so it never holds a challenge before it has committed the
    # message that challenge is for.  (A tree prover's receive_challenge
    # is itself the replying step: nothing of that family is deferred
    # but receive_query.)
    if name in COMMITTING:
        committed = revealed = 0
        for step, _args in chained_log:
            if step in ("round_message", "round_messages"):
                committed += 1
            elif step in ("receive_challenge", "receive_randomness"):
                revealed += 1
                assert revealed <= committed, chained_log

    # Fewer frames, never more; exactly one round trip per round for the
    # sum-check units and the point lookup and range scan.
    frames = chained[0].cost.frames
    assert frames <= plain[0].cost.frames
    assert frames <= 2 * (D + 4)
    if name in ROUND_TRIPS:
        assert frames == 2 * ROUND_TRIPS[name]
    if name in COMMITTING:
        # Unchained: the open, d - 1 commits and d - 1 reveals at least.
        assert plain[0].cost.frames >= 2 * (2 * D - 1)
    wire = chained[0].cost.bytes_sent + chained[0].cost.bytes_received
    plain_wire = plain[0].cost.bytes_sent + plain[0].cost.bytes_received
    assert wire <= plain_wire


class ProxyKeepingClient(ServiceClient):
    proxies = ()

    def _make_proxy(self, unit, ack):
        proxy = super()._make_proxy(unit, ack)
        self.proxies = (*self.proxies, proxy)
        return proxy


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_no_call_is_left_deferred_when_the_driver_returns(recording, name):
    """Every driver ends on a call that replies, so the client needs no
    flush step after QueryRouter.run."""
    client, outcomes = over_the_wire(recording.handle.address,
                                     REQUESTS[name], cls=ProxyKeepingClient)
    assert all(o.result.accepted for o in outcomes)
    assert [proxy._deferred for proxy in client.proxies] == [[]]
    assert [proxy._opened for proxy in client.proxies] == [[]]


def test_proxy_refuses_a_batch_other_than_the_one_it_opened(recording):
    """The open frame announced the batch; a driver that then announces
    another one is stopped locally, before any frame is sent."""
    descriptors = REQUESTS["batch-mixed"]
    (unit,) = QueryRouter.plan(descriptors)
    members = [to_batch_query(q) for q in descriptors]
    g_1 = list(range(sum(member.degree + 1 for member in members)))
    with open_session(recording.handle.address, descriptors) as client:
        proxy = client._make_proxy(unit, sp.ack_payload(F, 1, [g_1]))
        frames = client.frames_sent
        proxy.receive_batch(members)  # the batch it opened: fine
        for other in (members[:-1], members[::-1], []):
            with pytest.raises(RoutingError):
                proxy.receive_batch(other)
        assert client.frames_sent == frames and proxy._deferred == []


#: Calls a verifier might make first, which the open did not run:
#: (request, ack replies, calls that must be refused).
NOT_OPENED = {
    "batch": ("batch-mixed", [list(range(3 + 3 + 4 + 3))], [
        ("receive_challenge", (5,)), ("round_message", ())]),
    "range-scan": ("range-scan", [[3, 1, 4, 1], [2, 0]], [
        ("answer_entries", ()), ("receive_query", (3, 31)),
        ("receive_query", (4, 30)), ("receive_challenge", (9,))]),
    "point-lookup": ("point-lookup", [[7, 2], [6, 5]], [
        ("level0_siblings", ()), ("receive_query", (7, 8))]),
}


@pytest.mark.parametrize("name", sorted(NOT_OPENED))
def test_proxy_answers_only_the_opening_steps_from_the_ack(recording, name):
    """The verifier's first calls must be the steps the open ran, with the
    descriptor's arguments: each is answered from the ack, no frame
    sent, and any other first call is a RoutingError."""
    request, replies, refused = NOT_OPENED[name]
    (unit,) = QueryRouter.plan(REQUESTS[request])
    with open_session(recording.handle.address, REQUESTS[request]) as client:
        frames = client.frames_sent
        for method, args in refused:
            proxy = client._make_proxy(unit, sp.ack_payload(F, 1, replies))
            with pytest.raises(RoutingError, match="where the open ran"):
                getattr(proxy, method)(*args)
        proxy = client._make_proxy(unit, sp.ack_payload(F, 1, replies))
        if unit.batched:
            proxy.receive_batch([to_batch_query(q) for q in unit.descriptors])
            first = proxy.round_messages()
            assert [w for row in first for w in row] == replies[0]
        else:
            params = unit.descriptors[0].params
            assert proxy.receive_query(params[0], params[-1]) is None
            assert proxy.answer_entries() == list(zip(*[iter(replies[0])] * 2))
            assert proxy.level0_siblings() \
                == list(zip(*[iter(replies[1])] * 2))
        assert proxy._opened == [] and not proxy.released
        assert client.frames_sent == frames


def test_parse_calls_reads_a_plain_call_and_a_chain():
    """A plain ``[method, args...]`` body is a chain of one, so the
    pre-chain dialect needs no second code path on the server."""
    assert sp.parse_calls([sp.M_ROUND_MESSAGE]) == [(sp.M_ROUND_MESSAGE, [])]
    calls = [(sp.M_RECEIVE_QUERY, [3, 9]), (sp.M_BEGIN_PROOF, []),
             (sp.M_ROUND_MESSAGE, [])]
    assert sp.parse_calls([sp.M_CHAIN, *sp.chain_args(calls)]) \
        == [(m, list(a)) for m, a in calls]


# -- (c) malformed chains ---------------------------------------------------------


def open_raw_query(client, descriptor):
    """Open one descriptor as the client's router plans it (a sum-check
    one as a batch of one, announced to its engine by the open)."""
    return open_raw_unit(client, [descriptor])


def raw_call(client, words):
    return client._request(
        sp.T_P_CALL, client.session_id, sp.words_payload(F, words),
        expect=sp.T_P_REPLY,
    )


#: Chains the server must refuse before running any call of them.
REFUSED_WHOLE = {
    "empty": [sp.M_CHAIN],
    "truncated": [sp.M_CHAIN, sp.M_BEGIN_PROOF, 0, sp.M_ROUND_MESSAGE],
    "nargs overrun": [sp.M_CHAIN, sp.M_RECEIVE_CHALLENGE, 5, 1],
    "nargs huge": [sp.M_CHAIN, sp.M_RECEIVE_CHALLENGE, F.p - 1, 1],
    "nested": [sp.M_CHAIN, sp.M_BEGIN_PROOF, 0, sp.M_CHAIN, 2,
               sp.M_ROUND_MESSAGE, 0],
    "non-final call replies": [sp.M_CHAIN, sp.M_BEGIN_PROOF, 0,
                               sp.M_ROUND_MESSAGE, 0, sp.M_ROUND_MESSAGE, 0],
    "unknown inner opcode": [sp.M_CHAIN, sp.M_BEGIN_PROOF, 0, 0x7F, 0,
                             sp.M_ROUND_MESSAGE, 0],
}


@pytest.mark.parametrize("name", sorted(REFUSED_WHOLE))
def test_malformed_chain_is_a_typed_error_and_runs_nothing(recording, name):
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        ref = open_raw_query(client, f2())
        opened = list(recording.logs[client.dataset_id])
        with pytest.raises(ServiceClientError):
            raw_call(client, [ref, *REFUSED_WHOLE[name]])
        assert recording.logs[client.dataset_id] == opened
        # Same connection, same session: the next query verifies.
        assert client.query(f2())[0].result.accepted
        assert client.reconnects == 0


def test_unknown_last_opcode_and_bad_arity_are_typed_errors(recording):
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        ref = open_raw_query(client, f2())
        for words in (
            [sp.M_CHAIN, sp.M_BEGIN_PROOF, 0, 0x7F, 0],
            [sp.M_CHAIN, sp.M_RECEIVE_CHALLENGE, 2, 1, 2,
             sp.M_ROUND_MESSAGE, 0],
            # Steps an F2 prover does not have (found by the fuzz below:
            # they used to drop the connection with an AttributeError).
            [sp.M_CHAIN, sp.M_RECEIVE_RANDOMNESS, 2, 1, 2],
            [sp.M_ANSWER_ENTRIES],
            [],
        ):
            with pytest.raises(ServiceClientError):
                raw_call(client, [ref, *words])
        with pytest.raises(ServiceClientError, match="unknown query"):
            raw_call(client, [999, sp.M_CHAIN, sp.M_BEGIN_PROOF, 0])
        assert client.query(f2())[0].result.accepted
        assert client.reconnects == 0


#: Opens whose shape the server must refuse: (batched flag, descriptors).
REFUSED_OPENS = {
    "single-shot sum-check descriptor": (0, [f2()]),
    "batched heavy-hitters": (1, [heavy_hitters(1, 8)]),
    "single-shot with several": (0, [range_sum(0, 9), range_sum(10, 63)]),
    "batched with a worker-pool f2": (1, [range_sum(0, 9), f2(2)]),
    "batched with a non-sum-check kind": (1, [f2(), point_lookup(7)]),
}


@pytest.mark.parametrize("name", sorted(REFUSED_OPENS))
def test_malformed_open_is_a_typed_error_and_opens_nothing(recording, name):
    batched, descriptors = REFUSED_OPENS[name]
    words = [batched]
    for q in descriptors:
        words.extend(q.to_words())
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        with pytest.raises(ServiceClientError):
            client._request(sp.T_QUERY_OPEN, client.session_id,
                            sp.words_payload(F, words),
                            expect=sp.T_QUERY_ACK)
        assert recording.logs.get(client.dataset_id, []) == []
        session = recording.server.registry.session(client.session_id)
        assert not session.queries
        assert client.query(f2())[0].result.accepted
        assert client.reconnects == 0


def test_failed_batch_announcement_releases_the_query(recording):
    """A batch the prover refuses at open (a range past the padded
    universe) leaves no query behind: no ack carried its reference."""
    words = [1, *range_sum(0, 9).to_words(), *range_sum(5, 2 * U).to_words()]
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        with pytest.raises(ServiceClientError, match="invalid"):
            client._request(sp.T_QUERY_OPEN, client.session_id,
                            sp.words_payload(F, words),
                            expect=sp.T_QUERY_ACK)
        session = recording.server.registry.session(client.session_id)
        assert not session.queries
        assert client.query(f2())[0].result.accepted


@pytest.mark.parametrize("opcode", RETIRED_OPCODES)
def test_retired_batch_opcodes_are_unknown_methods(recording, opcode):
    descriptors = REQUESTS["batch-range-sum"]
    with open_session(recording.handle.address, descriptors, retry=NO_RETRY,
                      op_timeout=5.0) as client:
        _t, _s, payload = client._request(
            sp.T_QUERY_OPEN, client.session_id,
            sp.words_payload(
                F, [1, *(w for q in descriptors for w in q.to_words())]),
            expect=sp.T_QUERY_ACK,
        )
        ref = sp.parse_words(F, payload)[0]
        announced = list(recording.logs[client.dataset_id])
        for words in ([opcode, 0, 9, 10, 63],
                      [sp.M_CHAIN, opcode, 4, 0, 9, 10, 63,
                       sp.M_ROUND_MESSAGES, 0]):
            with pytest.raises(ServiceClientError):
                raw_call(client, [ref, *words])
        assert recording.logs[client.dataset_id] == announced
        client._request(sp.T_QUERY_CLOSE, client.session_id,
                        sp.words_payload(F, [ref]),
                        expect=sp.T_QUERY_CLOSE_ACK)
        assert all(o.result.accepted for o in client.query(*descriptors))
        assert client.reconnects == 0


@settings(max_examples=40)
@given(
    body=st.lists(st.integers(min_value=0, max_value=F.p - 1), max_size=12),
    head=st.sampled_from([
        [],
        [sp.M_RECEIVE_QUERY, 2],
        [sp.M_RECEIVE_CHALLENGE, 1],
        [RETIRED_OPCODES[0], 4],
        [RETIRED_OPCODES[1], 6],
        [sp.M_RECEIVE_RANDOMNESS, 2],
    ]),
)
def test_fuzzed_chain_words_never_crash_or_hang(recording, body, head):
    """Arbitrary words after M_CHAIN — bare, or shaped like a void call —
    get a reply or a typed error, and the connection stays usable."""
    with open_session(recording.handle.address, [range_sum(0, 1)],
                      retry=NO_RETRY, op_timeout=5.0) as client:
        ref = open_raw_query(client, range_sum(1, 20))
        try:
            raw_call(client, [ref, sp.M_CHAIN, *head, *body])
        except ServiceClientError as exc:
            assert "connection closed" not in str(exc)
        assert client.stats()["sessions"] >= 1
        assert client.reconnects == 0


# -- (e) the step table is the surface -------------------------------------------


def test_step_table_names_the_prover_steps_and_the_void_set():
    """The table is the RPC surface: its method names are the protocol
    steps (``receive_batch`` is local, announced by the open frame), no
    kind sees one name under two opcodes, both ends hold a codec for
    every reply layout, and the void set a chain may carry in front is
    derived from it."""
    from repro.service.client import _DECODERS
    from repro.service.router import KIND_NAMES
    from repro.service.server import _ENCODERS

    assert sp.STEP_METHODS == _PROVER_STEPS - {"receive_batch"}
    assert sp.VOID_METHODS == {
        sp.M_BEGIN_PROOF, sp.M_RECEIVE_CHALLENGE, sp.M_RECEIVE_QUERY,
        sp.M_RECEIVE_RANDOMNESS,
    }
    assert sp.M_CHAIN not in sp.STEPS
    replies = set()
    for kind in KIND_NAMES:
        resolved = [step.resolve(kind) for step in sp.STEPS.values()]
        names = [r[0] for r in resolved if r is not None]
        assert len(names) == len(set(names)), (kind, names)
        assert sp.steps_for_kind(kind).keys() == set(names)
        replies.update(r[1] for r in resolved if r is not None)
    assert replies == set(sp.REPLY_LAYOUTS) == set(_ENCODERS)
    assert set(_DECODERS) \
        == replies - {sp.REPLY_VOID, sp.REPLY_WORDS, sp.REPLY_ROWS}
    # A chain is refused whole when a row that replies is not its last.
    for opcode, step in sp.STEPS.items():
        chain = [sp.M_CHAIN, opcode, 0, sp.M_ROUND_MESSAGE, 0]
        if opcode in sp.VOID_METHODS:
            assert [m for m, _a in sp.parse_calls(chain)] \
                == [opcode, sp.M_ROUND_MESSAGE]
        else:
            with pytest.raises(sp.ServiceProtocolError, match="void"):
                sp.parse_calls(chain)


def open_raw_unit(client, descriptors):
    (unit,) = QueryRouter.plan(descriptors)
    words = [int(unit.batched)]
    for q in descriptors:
        words.extend(q.to_words())
    _t, _s, payload = client._request(
        sp.T_QUERY_OPEN, client.session_id, sp.words_payload(F, words),
        expect=sp.T_QUERY_ACK,
    )
    return sp.parse_words(F, payload)[0]


def close_raw_query(client, ref):
    client._request(sp.T_QUERY_CLOSE, client.session_id,
                    sp.words_payload(F, [ref]), expect=sp.T_QUERY_CLOSE_ACK)


@pytest.mark.parametrize("opcode", sorted(sp.STEPS))
def test_wrong_arity_is_a_typed_error_on_a_live_connection(recording, opcode):
    step = sp.STEPS[opcode]
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        ref = open_raw_query(client, f2())
        opened = list(recording.logs[client.dataset_id])
        for count in {step.arity + 1, step.arity + 3, max(step.arity - 1, 0)}:
            if count == step.arity:
                continue
            for words in ([opcode] + [1] * count,
                          [sp.M_CHAIN, opcode, count] + [1] * count):
                with pytest.raises(ServiceClientError, match="takes %d words"
                                   % step.arity):
                    raw_call(client, [ref, *words])
        assert recording.logs[client.dataset_id] == opened
        assert client.query(f2())[0].result.accepted
        assert client.reconnects == 0


@pytest.mark.parametrize(
    "opcode", [0x00, 0x0A, 0x0C, 0x0E, 0x0F, 0x10, 0x7F, 0xFF, F.p - 1])
def test_opcodes_outside_the_table_are_unknown_methods(recording, opcode):
    assert opcode not in sp.STEPS
    with open_session(recording.handle.address, [f2()], retry=NO_RETRY,
                      op_timeout=5.0) as client:
        ref = open_raw_query(client, f2())
        for words in ([opcode], [opcode, 1, 2],
                      [sp.M_CHAIN, sp.M_RECEIVE_CHALLENGE, 1, 5, opcode, 0]):
            with pytest.raises(ServiceClientError,
                               match="unknown prover method"):
                raw_call(client, [ref, *words])
        # The chain was refused on its last call, after the challenge was
        # folded in: that is the documented order, and the query is
        # still there.
        close_raw_query(client, ref)
        assert client.query(f2())[0].result.accepted
        assert client.reconnects == 0


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_steps_a_kinds_prover_lacks_are_refused(recording, name):
    """For every (request shape, table row): a row the kind does not
    have, or whose method the kind's prover lacks, is a typed error on a
    connection that stays up, runs nothing, and leaves the query
    closable — never an AttributeError or a TypeError in the handler."""
    descriptors = REQUESTS[name]
    (unit,) = QueryRouter.plan(descriptors)
    kind = descriptors[0].kind
    with open_session(recording.handle.address, descriptors, retry=NO_RETRY,
                      op_timeout=5.0) as client:
        dataset = recording.server.registry.datasets[client.dataset_id]
        prover = QueryRouter.make_prover(unit, dataset)
        ref = open_raw_unit(client, descriptors)
        ran = list(recording.logs.get(client.dataset_id, []))
        refused = 0
        for opcode, step in sp.STEPS.items():
            resolved = step.resolve(kind)
            if resolved is not None and hasattr(prover, resolved[0]):
                continue
            with pytest.raises(ServiceClientError,
                               match="no such step|has no prover method"):
                raw_call(client, [ref, opcode] + [1] * step.arity)
            refused += 1
        assert refused >= 2
        assert recording.logs.get(client.dataset_id, []) == ran
        close_raw_query(client, ref)
        assert all(o.result.accepted for o in client.query(*descriptors))
        assert client.reconnects == 0


# -- (d) the limiter refuses a chain whole ---------------------------------------


def test_rate_limited_chain_is_refused_whole():
    descriptors = REQUESTS["range-sum"]
    free = RecordingServer()
    squeezed = RecordingServer(rate_limit=(300.0, 4.0))
    try:
        ref_client, reference = over_the_wire(free.handle.address,
                                              descriptors)
        client, outcomes = over_the_wire(
            squeezed.handle.address, descriptors,
            retry=RetryPolicy(max_attempts=30, base_delay=0.005,
                              max_delay=0.02),
        )
        assert squeezed.server.rate_limited >= 1
        assert client.refusals >= 1 and client.reconnects == 0
        assert outcomes[0].result.accepted
        assert transcript_bytes(outcomes) == transcript_bytes(reference)
        # A refused chain ran none of its calls and the resend ran each
        # exactly once: the prover's view is the unlimited one.
        assert squeezed.logs[client.dataset_id] \
            == free.logs[ref_client.dataset_id]
    finally:
        free.handle.stop()
        squeezed.handle.stop()


# -- the limiter keys on the connection, not on the header ----------------------


def test_rate_limit_ignores_the_session_id_a_header_claims():
    """A peer cannot mint fresh buckets by varying the header's session
    id, and whatever bucket a connection used goes when it does."""
    srv = ProverServer(F, rate_limit=(1.0, 2.0))
    handle = srv.serve_in_thread()

    def exchange(sock, frame):
        sock.sendall(frame)
        header = b""
        while len(header) < sp.HEADER_LEN:
            header += sock.recv(sp.HEADER_LEN - len(header))
        frame_type, _session, length = sp.unpack_header(header)
        payload = b""
        while len(payload) < length:
            payload += sock.recv(length - len(payload))
        return frame_type, payload

    try:
        sock = socket.create_connection(handle.address, timeout=5.0)
        try:
            frame_type, _p = exchange(
                sock, sp.pack_frame(sp.T_HELLO, 0, sp.hello_payload(F, U, 1))
            )
            assert frame_type == sp.T_HELLO_ACK
            codes = []
            for claimed in range(1000, 1050):
                frame_type, payload = exchange(
                    sock, sp.pack_frame(sp.T_STATS, claimed)
                )
                assert frame_type == sp.T_ERROR
                codes.append(sp.parse_error_struct(payload)[0])
        finally:
            sock.close()
        # Burst 2 at 1 token/s: the forged ids buy nothing.
        assert codes[:2] == [sp.E_UNKNOWN_SESSION] * 2
        assert codes.count(sp.E_RATE_LIMITED) >= 47
        assert srv.rate_limited == codes.count(sp.E_RATE_LIMITED)
        # The disconnect dropped the connection's bucket; no forged id
        # ever got one.
        deadline = time.monotonic() + 2.0
        while srv.registry.sessions and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not srv.registry.sessions
        assert srv._buckets == {}
    finally:
        handle.stop()
