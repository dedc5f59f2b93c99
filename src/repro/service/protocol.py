"""The service wire protocol: versioned binary frames over TCP.

Every byte the prover service and the thin client verifier exchange
travels in one of these frames, so the per-query communication a
`repro.comm.channel.Channel` accounts for is *measured on real frames*,
not simulated.  The payload of word-carrying frames is the
`repro.comm.wire` word encoding (a 4-byte word count, then fixed-width
big-endian field elements), making the frame layer a thin session
envelope around the transcript format.

Frame layout (big-endian):

    magic  "SI"        2 bytes
    version            1 byte   (1, or 2 = traced)
    frame type         1 byte   (see Frame types)
    session id         4 bytes  (0 on sessionless frames)
    payload length     4 bytes  (payload only; capped, see below)
    [trace extension   16 bytes — version 2 frames only]
    payload            <length> bytes

Version 2 is version 1 plus a fixed-length *trace extension* between
header and payload: the sender's 64-bit trace id and 64-bit span id.
The payload — the transcript bytes the channel accounts for — is
identical under both versions, which is how observability stays off the
transcript path, and a relay forwards the extension byte for byte.
Every peer parses both versions; a client stamps version 2 while its
tracer is on.

Decoding validates everything — magic, version, type, and the declared
length against `MAX_PAYLOAD` (2^26) and the receiver's own `max_payload`
*before any payload byte is read* — and raises `ServiceProtocolError`
(a `repro.comm.wire.WireFormatError`) on damage: a malformed frame is a
rejected conversation, never a crashed server.

A replay has two forms, told apart by the request's word count.  The
log form `[start]` (replica resync forwards it as updates) answers the
log from index `start` in order, one `T_REPLAY_DATA` frame per
same-vector run of each block.  The net form `[stop, skip]` (a late
joiner) answers the net counts of the log's first `stop` updates: each
vector's nonzero `(key, exact count)` entries in (vector, key) order,
less the first `skip` — so a cut reply resumes at `skip` = entries
received — in frames of at most one block of one vector's entries; a
`stop` beyond the log is a `T_ERROR`.  Every verifier state a client
keeps is linear in the stream's net vector, so both forms leave it in
the same place.  `T_REPLAY_DATA` bodies are `T_UPDATES` bodies, and
`T_REPLAY_END` carries the log length the reply stands for.

Frame types, error codes, the prover step table and the chaining rule
are declared below, one declaration each; `docs/WIRE.md` is this
docstring plus those tables, rendered by `repro.service.wiredoc`
(`python -m repro.service.wiredoc > docs/WIRE.md`, diffed in CI).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.comm.wire import (
    MAX_MESSAGE_WORDS,
    WireFormatError,
    decode_words,
    encode_words,
    word_width,
)
from repro.field.modular import PrimeField
from repro.service.router import (
    KIND_HEAVY_HITTERS,
    KIND_K_LARGEST,
    KIND_POINT_LOOKUP,
    KIND_PREDECESSOR,
    KIND_RANGE_SCAN,
    KIND_SUCCESSOR,
    TREE_KINDS,
    QueryDescriptor,
)

try:  # NumPy is optional: only the columnar update codec uses it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: Version byte stamped on every frame; peers with a different version
#: fail the handshake instead of misparsing each other.
FRAME_VERSION = 1

#: Version byte of a traced frame: same header, then a 16-byte trace
#: extension (trace id 8 | span id 8) before the payload.
FRAME_VERSION_TRACED = 2

MAGIC = b"SI"
HEADER_LEN = 12

#: Length of the version-2 trace extension that follows the header.
TRACE_EXT_LEN = 16

#: Hard cap on one frame's payload (64 MiB): a declared length beyond
#: this is damage or abuse, not data.
MAX_PAYLOAD = 1 << 26

# -- frame types ---------------------------------------------------------------

#: type -> ``(who sends it, what it carries)``, filled by the
#: declarations below (the *Frame types* table of the docs).
FRAME_TYPES: Dict[int, Tuple[str, str]] = {}


def _frame(value: int, direction: str, carries: str) -> int:
    FRAME_TYPES[value] = (direction, carries)
    return value


T_HELLO = _frame(0x01, "client -> server", "open a session on a dataset")
T_HELLO_ACK = _frame(0x02, "server -> client", "session id + missed updates")
T_UPDATES = _frame(0x03, "client -> server", "a block of stream updates")
T_UPDATES_ACK = _frame(0x04, "server -> client", "total updates applied")
T_REPLAY_REQUEST = _frame(0x05, "client -> server",
                          "`[start]`: the log from an index; "
                          "`[stop, skip]`: the net counts of log[0:stop]")
T_REPLAY_DATA = _frame(0x06, "server -> client",
                       "replayed log entries, or one vector's net counts")
T_REPLAY_END = _frame(0x07, "server -> client",
                      "replay complete: the log length it stands for")
T_QUERY_OPEN = _frame(0x08, "client -> server",
                      "instantiate a prover, announce a batch to it and "
                      "run its opening steps")
T_QUERY_ACK = _frame(0x09, "server -> client",
                     "query reference + the opening steps' replies")
T_P_CALL = _frame(0x0A, "client -> server", "run prover steps (see below)")
T_P_REPLY = _frame(0x0B, "server -> client", "the replying step's words")
T_QUERY_CLOSE = _frame(0x0C, "client -> server",
                       "abandon a unit before its closing step")
T_QUERY_CLOSE_ACK = _frame(0x0D, "server -> client", "prover released")
T_STATS = _frame(0x0E, "client -> server", "service statistics?")
T_STATS_REPLY = _frame(0x0F, "server -> client", "five counters as words")
T_ERROR = _frame(0x10, "server -> client", "error code + UTF-8 message")
T_BYE = _frame(0x11, "client -> server", "end the session")
T_BYE_ACK = _frame(0x12, "server -> client", "session ended")
H_PING = _frame(0x13, "prober -> node", "are you alive?")
H_STATUS = _frame(0x14, "node -> prober", "counters + dataset inventory")
H_STATS = _frame(0x15, "scraper -> node", "metrics registry snapshot?")
H_STATS_REPLY = _frame(0x16, "node -> scraper", "JSON metrics snapshot")

# -- error codes (T_ERROR payloads) -------------------------------------------

#: code -> meaning (the *Error codes* table of the docs).
ERROR_CODES: Dict[int, str] = {}


def _error(code: int, meaning: str) -> int:
    ERROR_CODES[code] = meaning
    return code


E_GENERIC = _error(0x0000, "semantic rejection; retrying will not help")
E_BUSY = _error(0x0001, "admission control refused")
E_RATE_LIMITED = _error(0x0002, "token bucket empty")
E_TIMEOUT = _error(0x0003, "the server timed this conversation out")
E_UNKNOWN_SESSION = _error(0x0004, "session state is gone")
E_TRANSPORT = _error(0x0005, "framing damage observed")

#: Codes a client may transparently absorb with a retry (the request
#: itself was fine — the *service state or network* was not): after a
#: backoff on the same connection, or after a reconnect and resume.
RETRYABLE_BUSY = frozenset([E_BUSY, E_RATE_LIMITED])
RETRYABLE_RECONNECT = frozenset([E_TIMEOUT, E_UNKNOWN_SESSION, E_TRANSPORT])

# -- prover steps (T_P_CALL payloads) ------------------------------------------

#: Reply codecs: how a step's result is laid out in the P_REPLY's words.
#: The server holds the encoder of each, the client the decoder.
REPLY_VOID = "void"
REPLY_WORDS = "words"
REPLY_PAIRS = "pairs"
REPLY_RECORDS = "records"
REPLY_CLAIM = "claim"
REPLY_ROWS = "rows"

REPLY_LAYOUTS = {
    REPLY_VOID: "no words",
    REPLY_WORDS: "the result's words as they are",
    REPLY_PAIRS: "`(a, b)` pairs, flattened",
    REPLY_RECORDS: "`(index, hash, count)` node records, flattened",
    REPLY_CLAIM: "one `(flag, key)` claim",
    REPLY_ROWS: "one round polynomial per batch member, flattened: "
                "member i takes degree_i + 1 words",
}


class Step(NamedTuple):
    """One row of the prover RPC surface.

    ``default`` is the ``(prover method, reply codec)`` of every query
    kind ``by_kind`` does not name (``None``: only the kinds named have
    the step); ``by_kind`` maps a kind to its own pair, or to ``None``
    where the kind does not have the step.
    """

    opcode: int
    arity: int
    default: Optional[Tuple[str, str]]
    by_kind: Mapping[int, Optional[Tuple[str, str]]] = {}

    def resolve(self, kind: int) -> Optional[Tuple[str, str]]:
        """``(prover method, reply codec)`` for a query kind, if any."""
        return self.by_kind.get(kind, self.default)


#: opcode -> :class:`Step`: the step table, one declaration per row.
STEPS: Dict[int, Step] = {}


def _step(*row) -> int:
    step = Step(*row)
    STEPS[step.opcode] = step
    return step.opcode


# Within one kind a method name belongs to one row: the tree family's
# ``receive_challenge`` *replies* (the next level's siblings), so for
# those kinds it is M_FOLD_CHALLENGE and the void M_RECEIVE_CHALLENGE
# does not exist.
M_BEGIN_PROOF = _step(0x01, 0, ("begin_proof", REPLY_VOID))
M_ROUND_MESSAGE = _step(
    0x02, 0, ("round_message", REPLY_WORDS),
    {KIND_HEAVY_HITTERS: ("round_message", REPLY_RECORDS)})
M_RECEIVE_CHALLENGE = _step(0x03, 1, ("receive_challenge", REPLY_VOID),
                            dict.fromkeys(TREE_KINDS))
M_RECEIVE_QUERY = _step(0x04, 2, ("receive_query", REPLY_VOID))
M_ANSWER_ENTRIES = _step(0x05, 0, ("answer_entries", REPLY_PAIRS))
M_LEVEL0_SIBLINGS = _step(0x06, 0, ("level0_siblings", REPLY_PAIRS))
M_FOLD_CHALLENGE = _step(
    0x07, 1, None,
    dict.fromkeys(TREE_KINDS, ("receive_challenge", REPLY_PAIRS)))
M_CLAIM = _step(0x08, 1, None, {
    KIND_PREDECESSOR: ("claim_predecessor", REPLY_CLAIM),
    KIND_SUCCESSOR: ("claim_successor", REPLY_CLAIM),
    KIND_K_LARGEST: ("claim_kth_largest", REPLY_CLAIM),
})
M_RECEIVE_RANDOMNESS = _step(0x09, 2, ("receive_randomness", REPLY_VOID))
M_ROUND_MESSAGES = _step(0x0B, 0, ("round_messages", REPLY_ROWS))
#: Not a step but framing: several steps for one P_REPLY (*Chaining*).
M_CHAIN = 0x0D
# 0x0A and 0x0C stay unassigned: they announced a batch to its prover,
# which T_QUERY_OPEN does, and are answered like any unknown opcode.

#: Every prover method name the table can dispatch to.
STEP_METHODS = frozenset(
    resolved[0]
    for step in STEPS.values()
    for resolved in (step.default, *step.by_kind.values())
    if resolved
)

#: Steps that return no words: the only ones a chain may carry before
#: its last call (one P_REPLY has room for one call's answer).
VOID_METHODS = frozenset(
    opcode for opcode, step in STEPS.items()
    if step.default and step.default[1] == REPLY_VOID
)

#: The steps that are a proof round (both ends name their spans by it).
ROUND_METHODS = frozenset([M_ROUND_MESSAGE, M_ROUND_MESSAGES])


class UnitShape(NamedTuple):
    """Where a unit's proof starts and ends on the wire.

    ``opening`` are the steps the server runs at ``T_QUERY_OPEN`` from
    the descriptor alone — none needs a word the verifier holds — and
    whose replies ride on the ``T_QUERY_ACK``.  ``closing`` is the step
    whose reply ends the proof: once it has replied ``d +
    closing_offset`` times, opening replies counted, the server
    releases the prover (at the open itself if that count is reached
    there).
    """

    opening: Tuple[int, ...]
    closing: int
    closing_offset: int

    def closing_replies(self, d: int) -> int:
        """How many replies of the closing step end a proof of ``d``
        rounds."""
        return d + self.closing_offset


#: unit -> :class:`UnitShape` (the *Unit shapes* table of the docs).
UNIT_SHAPES: Dict[str, UnitShape] = {}


def _shape(unit: str, *row) -> UnitShape:
    shape = UNIT_SHAPES[unit] = UnitShape(*row)
    return shape


#: g_1 is the prover's alone; g_d, the d-th round message, is its last.
SUMCHECK_UNIT = _shape("batched sum-check", (M_ROUND_MESSAGES,),
                       M_ROUND_MESSAGES, 0)
#: The range, its entries and the level-0 siblings need no challenge;
#: the (d - 1)-th fold is the last reply, so a d = 1 proof ends at the
#: open.
SUBVECTOR_UNIT = _shape("point-lookup, range-scan",
                        (M_RECEIVE_QUERY, M_ANSWER_ENTRIES, M_LEVEL0_SIBLINGS),
                        M_FOLD_CHALLENGE, -1)


def unit_shape(batched: bool, kind: int) -> Optional[UnitShape]:
    """The shape of a unit, or None for one the client closes itself
    (heavy hitters, ``f2(workers=w)``, k-largest and the neighbour
    queries)."""
    if batched:
        return SUMCHECK_UNIT
    if kind in (KIND_POINT_LOOKUP, KIND_RANGE_SCAN):
        return SUBVECTOR_UNIT
    return None


def opening_calls(shape: UnitShape, descriptor: QueryDescriptor
                  ) -> List[Tuple[int, Tuple[int, ...]]]:
    """``[(opcode, args), ...]`` of a shape's opening steps for the
    unit's first descriptor: ``M_RECEIVE_QUERY`` takes its range (a
    point lookup's key twice), the others take nothing."""
    params = descriptor.params
    return [(opcode, (params[0], params[-1]) if opcode == M_RECEIVE_QUERY
             else ()) for opcode in shape.opening]


@lru_cache(maxsize=None)
def steps_for_kind(kind: int) -> Dict[str, Tuple[int, str]]:
    """``{prover method: (opcode, reply codec)}`` for one query kind —
    what a client-side proxy of that kind exposes."""
    out: Dict[str, Tuple[int, str]] = {}
    for step in STEPS.values():
        resolved = step.resolve(kind)
        if resolved is not None:
            out[resolved[0]] = (step.opcode, resolved[1])
    return out


class ServiceProtocolError(WireFormatError):
    """A frame failed structural validation."""


def pack_frame(frame_type: int, session_id: int, payload: bytes = b"",
               trace: "Tuple[int, int] | None" = None) -> bytes:
    """One framed message, ready for the socket.

    ``trace`` — a ``(trace id, span id)`` pair — upgrades the frame to
    version 2 with the 16-byte trace extension.  The payload bytes (and
    the declared length, which counts payload only) are identical either
    way: tracing never shifts a transcript byte.
    """
    if frame_type not in FRAME_TYPES:
        raise ServiceProtocolError("unknown frame type 0x%02x" % frame_type)
    if not 0 <= session_id < (1 << 32):
        raise ServiceProtocolError("session id %r out of range" % (session_id,))
    if len(payload) > MAX_PAYLOAD:
        raise ServiceProtocolError(
            "payload of %d bytes exceeds the %d-byte cap"
            % (len(payload), MAX_PAYLOAD)
        )
    if trace is None:
        version, ext = FRAME_VERSION, b""
    else:
        version, ext = FRAME_VERSION_TRACED, trace_ext(trace[0], trace[1])
    return (
        MAGIC
        + bytes([version, frame_type])
        + session_id.to_bytes(4, "big")
        + len(payload).to_bytes(4, "big")
        + ext
        + payload
    )


def trace_ext(trace_id: int, span_id: int) -> bytes:
    """The version-2 trace extension bytes."""
    if not 0 <= trace_id < (1 << 64) or not 0 <= span_id < (1 << 64):
        raise ServiceProtocolError("trace/span id out of 64-bit range")
    return trace_id.to_bytes(8, "big") + span_id.to_bytes(8, "big")


def parse_trace_ext(ext: bytes) -> Tuple[int, int]:
    """(trace id, span id) from a trace extension."""
    if len(ext) != TRACE_EXT_LEN:
        raise ServiceProtocolError(
            "trace extension is %d bytes, expected %d"
            % (len(ext), TRACE_EXT_LEN)
        )
    return (int.from_bytes(ext[:8], "big"),
            int.from_bytes(ext[8:], "big"))


def header_ext_len(header: bytes) -> int:
    """Bytes of extension following a validated header (0 or 16)."""
    return TRACE_EXT_LEN if header[2] == FRAME_VERSION_TRACED else 0


def unpack_header(header: bytes,
                  max_payload: int = MAX_PAYLOAD) -> Tuple[int, int, int]:
    """(frame type, session id, payload length) from a 12-byte header.

    ``max_payload`` is the receiver's frame-size knob: the declared
    length is validated against it *before* any payload allocation, so a
    malformed or malicious peer cannot make either end reserve memory
    for a frame it will never legitimately send.
    """
    if len(header) != HEADER_LEN:
        raise ServiceProtocolError(
            "frame header is %d bytes, expected %d" % (len(header), HEADER_LEN)
        )
    if header[:2] != MAGIC:
        raise ServiceProtocolError("bad frame magic %r" % (header[:2],))
    if header[2] not in (FRAME_VERSION, FRAME_VERSION_TRACED):
        raise ServiceProtocolError(
            "frame version %d not supported (expected %d or %d)"
            % (header[2], FRAME_VERSION, FRAME_VERSION_TRACED)
        )
    frame_type = header[3]
    if frame_type not in FRAME_TYPES:
        raise ServiceProtocolError("unknown frame type 0x%02x" % frame_type)
    session_id = int.from_bytes(header[4:8], "big")
    length = int.from_bytes(header[8:12], "big")
    if length > min(max_payload, MAX_PAYLOAD):
        raise ServiceProtocolError(
            "declared payload of %d bytes exceeds the %d-byte cap"
            % (length, min(max_payload, MAX_PAYLOAD))
        )
    return frame_type, session_id, length


# -- payload helpers -----------------------------------------------------------


def words_payload(field: PrimeField, words: Sequence[int]) -> bytes:
    """Word-encoded payload (the transcript wire format)."""
    return encode_words(field, words)


def parse_words(field: PrimeField, payload: bytes) -> List[int]:
    try:
        return decode_words(field, payload)
    except WireFormatError as exc:
        raise ServiceProtocolError("bad word payload: %s" % exc) from exc


def ack_payload(field: PrimeField, ref: int,
                replies: Sequence[Sequence[int]]) -> bytes:
    """T_QUERY_ACK body: the query reference, then each replying
    opening step's words behind their count."""
    words = [ref]
    for reply in replies:
        words.append(len(reply))
        words.extend(reply)
    return words_payload(field, words)


def parse_ack(field: PrimeField, payload: bytes,
              replies: int) -> Tuple[int, List[List[int]]]:
    """``(ref, [reply words, ...])`` from a T_QUERY_ACK body that must
    carry exactly ``replies`` counted word lists."""
    words = parse_words(field, payload)
    if not words:
        raise ServiceProtocolError("query ack carries no reference")
    out: List[List[int]] = []
    cursor = 1
    for _ in range(replies):
        if cursor >= len(words) or cursor + 1 + words[cursor] > len(words):
            raise ServiceProtocolError(
                "opening reply %d runs past the query ack" % len(out))
        end = cursor + 1 + words[cursor]
        out.append(words[cursor + 1 : end])
        cursor = end
    if cursor != len(words):
        raise ServiceProtocolError(
            "query ack has %d words past its %d opening replies"
            % (len(words) - cursor, replies))
    return words[0], out


def chain_args(calls: Sequence[Tuple[int, Sequence[int]]]) -> List[int]:
    """M_CHAIN argument words: ``method, nargs, args...`` per call."""
    return [w for method, args in calls for w in (method, len(args), *args)]


def parse_calls(words: List[int]) -> List[Tuple[int, List[int]]]:
    """``[(method, args), ...]`` from a P_CALL body after its ``ref``.

    A plain call is a chain of one.  A chain is checked whole before the
    server runs any of it: not empty, truncated or nested, and every
    call but the last one of :data:`VOID_METHODS`.
    """
    if not words:
        raise ServiceProtocolError("prover call needs (ref, method)")
    if words[0] != M_CHAIN:
        return [(words[0], words[1:])]
    calls: List[Tuple[int, List[int]]] = []
    cursor = 1
    while cursor < len(words):
        method, end = words[cursor], cursor + 2
        if end <= len(words):
            end += words[cursor + 1]
        if end > len(words) or method == M_CHAIN:
            raise ServiceProtocolError("truncated or nested call chain")
        if end < len(words) and method not in VOID_METHODS:
            raise ServiceProtocolError(
                "chained call 0x%02x is not a void method: only the last "
                "call of a chain may reply" % method
            )
        calls.append((method, words[cursor + 2 : end]))
        cursor = end
    if not calls:
        raise ServiceProtocolError("empty call chain")
    return calls


#: Largest universe the wire protocol admits.  Keys and query bounds
#: travel as field words, and query ranges span the dyadic padding of u,
#: so ``2^ceil(log2 u)`` must stay below every supported modulus
#: (p = 2^61 - 1 is the smallest practical field): cap u at 2^60.
MAX_UNIVERSE = 1 << 60


def hello_payload(field: PrimeField, u: int, dataset_id: int) -> bytes:
    """HELLO body: word width (1) | p | u (8) | dataset id (8).

    The field modulus travels explicitly so a client/server field
    mismatch fails the handshake instead of corrupting every later word.
    """
    width = field.word_bytes
    if not 1 <= u <= MAX_UNIVERSE:
        raise ServiceProtocolError("universe size %r out of range" % (u,))
    if not 0 <= dataset_id < (1 << 64):
        raise ServiceProtocolError("dataset id %r out of range" % (dataset_id,))
    return (
        bytes([width])
        + field.p.to_bytes(width, "big")
        + u.to_bytes(8, "big")
        + dataset_id.to_bytes(8, "big")
    )


def parse_hello(payload: bytes) -> Tuple[int, int, int]:
    """(p, u, dataset id) from a HELLO body."""
    if len(payload) < 1:
        raise ServiceProtocolError("empty HELLO payload")
    width = payload[0]
    if width < 1 or len(payload) != 1 + width + 16:
        raise ServiceProtocolError("HELLO payload has the wrong length")
    p = int.from_bytes(payload[1 : 1 + width], "big")
    u = int.from_bytes(payload[1 + width : 9 + width], "big")
    dataset_id = int.from_bytes(payload[9 + width : 17 + width], "big")
    if not 1 <= u <= MAX_UNIVERSE:
        raise ServiceProtocolError("universe size %r out of range" % (u,))
    return p, u, dataset_id


def encode_signed(field: PrimeField, delta: int) -> int:
    """Signed stream delta -> wire word (canonical residue)."""
    return delta % field.p


def decode_signed(field: PrimeField, word: int) -> int:
    """Wire word -> signed delta: residues above p/2 read as negative.

    Stream deltas are small signed integers in every workload; the
    symmetric decoding keeps the server's exact integer frequencies (and
    n accounting) identical to the client's view.
    """
    half = field.p >> 1
    return word - field.p if word > half else word


def updates_payload(field: PrimeField, vector: int, pairs) -> bytes:
    """UPDATES/REPLAY_DATA body: [vector, k1, d1, k2, d2, ...] words."""
    words = [vector]
    for key, delta in pairs:
        words.append(key)
        words.append(encode_signed(field, delta))
    return words_payload(field, words)


def updates_payload_columns(field: PrimeField, vector: int, keys,
                            deltas) -> bytes:
    """:func:`updates_payload` from the block's two columns.

    Byte-for-byte the same body — every word reduced to its canonical
    residue, the same 4-byte word count in front — from int64 arrays
    interleaved and laid out big-endian by NumPy instead of two Python
    ints per pair.
    """
    if isinstance(keys, list):
        return updates_payload(field, vector, zip(keys, deltas))
    if word_width(field) != 8:
        return updates_payload(field, vector,
                               zip(keys.tolist(), deltas.tolist()))
    body = (keys % field.p).repeat(2)
    body[1::2] = deltas % field.p
    return struct.pack(">IQ", body.shape[0] + 1,
                       vector % field.p) + body.astype(">u8").tobytes()


def parse_updates(field: PrimeField, payload: bytes):
    """(vector, [(key, signed delta), ...]) from an UPDATES body."""
    words = parse_words(field, payload)
    if not words or len(words) % 2 != 1:
        raise ServiceProtocolError("updates payload has the wrong shape")
    vector = words[0]
    if vector not in (0, 1):
        raise ServiceProtocolError("unknown update vector %d" % vector)
    pairs = [
        (words[t], decode_signed(field, words[t + 1]))
        for t in range(1, len(words), 2)
    ]
    return vector, pairs


def parse_updates_columns(backend, field: PrimeField, payload: bytes):
    """:func:`parse_updates` as ``(vector, keys, signed deltas)`` in the
    backend's exact integer columns: the inverse of
    :func:`updates_payload_columns`.

    A well-formed body of 8-byte words is one ``frombuffer`` and one
    masked subtract, no Python object per update.  Every other body —
    damaged ones included — goes to the per-word reference, which names
    what is wrong with it.
    """
    count = (len(payload) - 4) // 8
    if (getattr(backend, "vectorized", False) and word_width(field) == 8
            and field.p < 1 << 63 and count > 0 and count & 1
            and count <= MAX_MESSAGE_WORDS
            and len(payload) == 4 + 8 * count
            and payload[:4] == count.to_bytes(4, "big")):
        words = _np.frombuffer(payload, ">u8", count, 4)
        if int(words.max()) < field.p and words[0] <= 1:
            body = words[1:].astype(_np.int64).reshape(-1, 2)
            deltas = body[:, 1]
            _np.subtract(deltas, field.p, out=deltas,
                         where=deltas > field.p >> 1)
            return int(words[0]), body[:, 0], deltas
    vector, pairs = parse_updates(field, payload)
    return (vector, *backend.int_columns(pairs))


def status_payload(field: PrimeField, sessions: int, open_queries: int,
                   queries_served: int, inventory) -> bytes:
    """H_STATUS body: counters + per-dataset ``(id, u, n_updates)``.

    ``inventory`` is the registry's dataset inventory; ids/universes ride
    as field words, so a dataset id must fit below the modulus (ids are
    64-bit on the HELLO path but every practical deployment numbers them
    small — an oversized id fails loudly at encode time).
    """
    words = [sessions, open_queries, queries_served, len(inventory)]
    for dataset_id, u, n_updates in inventory:
        words.extend((dataset_id, u, n_updates))
    return words_payload(field, words)


def parse_status(field: PrimeField, payload: bytes):
    """``(counters dict, {dataset id: (u, n_updates)})`` from H_STATUS."""
    words = parse_words(field, payload)
    if len(words) < 4 or len(words) != 4 + 3 * words[3]:
        raise ServiceProtocolError("status payload has the wrong shape")
    counters = {
        "sessions": words[0],
        "open_queries": words[1],
        "queries_served": words[2],
    }
    inventory = {
        words[t]: (words[t + 1], words[t + 2])
        for t in range(4, len(words), 3)
    }
    return counters, inventory


def error_payload(message: str, code: int = E_GENERIC) -> bytes:
    """T_ERROR body: error code (2 bytes, BE) + UTF-8 message."""
    if not 0 <= code < (1 << 16):
        raise ServiceProtocolError("error code %r out of range" % (code,))
    return code.to_bytes(2, "big") + message.encode("utf-8")


def parse_error(payload: bytes) -> str:
    return parse_error_struct(payload)[1]


def parse_error_struct(payload: bytes) -> Tuple[int, str]:
    """(code, message) from a T_ERROR body.

    A payload too short to carry a code (never produced by this
    implementation, but a peer may be damaged) reads as E_GENERIC.
    """
    if len(payload) < 2:
        return E_GENERIC, payload.decode("utf-8", errors="replace")
    code = int.from_bytes(payload[:2], "big")
    return code, payload[2:].decode("utf-8", errors="replace")

