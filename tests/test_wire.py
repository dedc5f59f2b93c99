"""Tests for repro.comm.wire (byte-level message framing)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm import wire as wire_module
from repro.comm.transcript import PROVER, VERIFIER, Message, Transcript
from repro.comm.wire import (
    MAX_MESSAGE_WORDS,
    TRANSCRIPT_MAGIC,
    WIRE_VERSION,
    WireFormatError,
    decode_message,
    decode_transcript,
    decode_words,
    encode_message,
    encode_transcript,
    encode_words,
    frame_bytes,
    transcript_wire_bytes,
    word_width,
    _decode_words_loop,
    _encode_words_loop,
)
from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.primes import MERSENNE_127
from repro.field.vectorized import HAVE_NUMPY, get_backend

F = DEFAULT_FIELD
BIG = PrimeField(MERSENNE_127, check_prime=False)

words_strategy = st.lists(
    st.integers(min_value=0, max_value=F.p - 1), max_size=20
)


def test_word_width_by_field():
    assert word_width(F) == 8
    assert word_width(BIG) == 16
    assert word_width(PrimeField(101)) == 1


@given(words_strategy)
def test_roundtrip(words):
    frame = encode_words(F, words)
    assert decode_words(F, frame) == words
    assert len(frame) == frame_bytes(F, len(words))


@given(st.lists(st.integers(min_value=-(10**20), max_value=10**20),
                max_size=10))
def test_encoding_canonicalises(words):
    frame = encode_words(F, words)
    assert decode_words(F, frame) == [w % F.p for w in words]


def test_empty_frame():
    frame = encode_words(F, [])
    assert decode_words(F, frame) == []
    assert len(frame) == 4


def test_big_field_roundtrip():
    words = [0, BIG.p - 1, 12345]
    assert decode_words(BIG, encode_words(BIG, words)) == words


def test_truncated_frame_rejected():
    frame = encode_words(F, [1, 2, 3])
    with pytest.raises(WireFormatError):
        decode_words(F, frame[:-1])
    with pytest.raises(WireFormatError):
        decode_words(F, frame[:2])


def test_padded_frame_rejected():
    frame = encode_words(F, [1]) + b"\x00"
    with pytest.raises(WireFormatError):
        decode_words(F, frame)


def test_non_canonical_word_rejected():
    frame = bytearray(encode_words(F, [0]))
    frame[4:12] = F.p.to_bytes(8, "big")  # == p: not canonical
    with pytest.raises(WireFormatError):
        decode_words(F, bytes(frame))


# -- transcript rounds ---------------------------------------------------------

labels = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x10FFFF,
                           exclude_categories=("Cs",)),
    max_size=40,
)

messages_strategy = st.builds(
    Message,
    sender=st.sampled_from([PROVER, VERIFIER]),
    round_index=st.integers(min_value=0, max_value=(1 << 32) - 1),
    label=labels,
    payload=st.lists(
        st.integers(min_value=0, max_value=F.p - 1), max_size=8
    ).map(tuple),
)


@given(messages_strategy)
def test_message_roundtrip(message):
    blob = encode_message(F, message)
    decoded, end = decode_message(F, blob)
    assert decoded == message
    assert end == len(blob)


@given(st.lists(messages_strategy, max_size=6))
def test_transcript_roundtrip(msgs):
    transcript = Transcript(messages=list(msgs))
    blob = encode_transcript(F, transcript)
    decoded = decode_transcript(F, blob)
    assert decoded.messages == transcript.messages
    assert decoded.total_words == transcript.total_words
    assert decoded.rounds == transcript.rounds


@given(st.lists(messages_strategy, min_size=1, max_size=4),
       st.data())
def test_transcript_truncation_always_rejected(msgs, data):
    blob = encode_transcript(F, Transcript(messages=list(msgs)))
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(WireFormatError):
        decode_transcript(F, blob[:cut])


@given(st.lists(messages_strategy, max_size=4))
def test_transcript_trailing_garbage_rejected(msgs):
    blob = encode_transcript(F, Transcript(messages=list(msgs)))
    with pytest.raises(WireFormatError):
        decode_transcript(F, blob + b"\x00")


def test_transcript_header_validation():
    blob = encode_transcript(F, Transcript())
    assert blob[:4] == TRANSCRIPT_MAGIC
    with pytest.raises(WireFormatError):
        decode_transcript(F, b"XXXX" + blob[4:])
    bad_version = blob[:4] + bytes([WIRE_VERSION + 1]) + blob[5:]
    with pytest.raises(WireFormatError):
        decode_transcript(F, bad_version)
    # Word-width mismatch: a transcript captured over the 61-bit field
    # must not decode under the 127-bit one.
    with pytest.raises(WireFormatError):
        decode_transcript(BIG, blob)


def test_message_bad_sender_code_rejected():
    blob = encode_message(F, Message(PROVER, 0, "g1", (1, 2, 3)))
    with pytest.raises(WireFormatError):
        decode_message(F, b"\x00" + blob[1:])


def test_message_absurd_word_count_rejected():
    # Header + label declare themselves fine; the word count is damage.
    blob = bytearray(encode_message(F, Message(PROVER, 0, "", ())))
    blob[-4:] = (1 << 30).to_bytes(4, "big")
    with pytest.raises(WireFormatError):
        decode_message(F, bytes(blob))


def test_message_non_utf8_label_rejected():
    blob = bytearray(encode_message(F, Message(PROVER, 0, "ab", ())))
    blob[6:8] = b"\xff\xfe"
    with pytest.raises(WireFormatError):
        decode_message(F, bytes(blob))


def test_encode_message_validates_fields():
    with pytest.raises(WireFormatError):
        encode_message(F, Message(PROVER, 1 << 32, "g", ()))
    with pytest.raises(WireFormatError):
        encode_message(F, Message(PROVER, 0, "x" * 300, ()))


def test_protocol_transcript_roundtrips_and_costs_survive():
    """A real protocol run's transcript survives the wire byte-for-byte,
    including the (s, t) accounting read off the decoded copy."""
    from repro.core.f2 import self_join_size_protocol
    from repro.streams.model import Stream

    stream = Stream.from_items(256, [3, 3, 9, 200, 200, 200])
    result = self_join_size_protocol(stream, F, rng=random.Random(5))
    decoded = decode_transcript(F, encode_transcript(F, result.transcript))
    assert decoded.messages == result.transcript.messages
    assert decoded.prover_words == result.transcript.prover_words
    assert decoded.verifier_words == result.transcript.verifier_words
    assert transcript_wire_bytes(F, decoded) == transcript_wire_bytes(
        F, result.transcript
    )


def test_transcript_wire_bytes_matches_protocol_run():
    from repro.core.f2 import self_join_size_protocol
    from repro.streams.model import Stream

    stream = Stream.from_items(64, [3, 3, 9])
    result = self_join_size_protocol(stream, F, rng=random.Random(1))
    total = transcript_wire_bytes(F, result.transcript)
    # word payload + 4 bytes of framing per message.
    assert total == result.transcript.total_words * 8 + 4 * len(
        result.transcript
    )


# -- hostile length prefixes (robustness) --------------------------------------


def test_oversized_declared_word_count_rejected_before_allocation():
    """A damaged/hostile length prefix must die on the cap check, never
    reach the per-word loop (which would try to allocate its claim)."""
    from repro.comm.wire import MAX_MESSAGE_WORDS

    huge = (MAX_MESSAGE_WORDS + 1).to_bytes(4, "big")
    with pytest.raises(WireFormatError, match="cap"):
        decode_words(F, huge)
    # An unsigned parse of a "negative" 32-bit length is a huge count:
    # same check, same rejection.
    negative = (0xFFFFFFFF).to_bytes(4, "big")
    with pytest.raises(WireFormatError, match="cap"):
        decode_words(F, negative)


def test_decode_words_max_words_knob():
    frame = encode_words(F, [1, 2, 3, 4, 5])
    assert decode_words(F, frame, max_words=5) == [1, 2, 3, 4, 5]
    with pytest.raises(WireFormatError, match="cap"):
        decode_words(F, frame, max_words=4)
    # The knob can only tighten the global cap, never widen it.
    from repro.comm.wire import MAX_MESSAGE_WORDS

    huge = (MAX_MESSAGE_WORDS + 1).to_bytes(4, "big")
    with pytest.raises(WireFormatError, match="cap"):
        decode_words(F, huge, max_words=MAX_MESSAGE_WORDS * 16)


def test_transcript_message_count_guard_precedes_decode_loop():
    blob = bytearray(encode_transcript(F, Transcript()))
    blob[6:10] = (1 << 31).to_bytes(4, "big")
    with pytest.raises(WireFormatError, match="message count"):
        decode_transcript(F, bytes(blob))


def test_unpack_header_max_payload_knob():
    from repro.service import protocol as sp

    frame = sp.pack_frame(sp.T_UPDATES, 1, b"x" * 100)
    header = frame[: sp.HEADER_LEN]
    assert sp.unpack_header(header)[2] == 100
    assert sp.unpack_header(header, max_payload=100)[2] == 100
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(header, max_payload=99)
    # The knob tightens MAX_PAYLOAD; it cannot widen it.
    huge = bytearray(header)
    huge[8:12] = (sp.MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(sp.ServiceProtocolError):
        sp.unpack_header(bytes(huge), max_payload=sp.MAX_PAYLOAD * 4)


# -- the bulk (struct) codec against the per-word loop --------------------------
#
# 8-byte fields encode/decode a frame with one struct call; the loop the
# other widths still take is the reference, byte for byte and error for
# error.

_EDGE_WORDS = [0, 1, F.p - 1, F.p, F.p + 1, (1 << 63), (1 << 64) - 1]

raw_words_strategy = st.lists(
    st.one_of(st.sampled_from(_EDGE_WORDS),
              st.integers(min_value=0, max_value=(1 << 64) - 1)),
    max_size=24,
)


def _raw_frame(words):
    return len(words).to_bytes(4, "big") + b"".join(
        w.to_bytes(8, "big") for w in words
    )


@given(st.lists(
    st.one_of(st.sampled_from(_EDGE_WORDS + [-1, -F.p, 1 << 64, 1 << 130]),
              st.integers(min_value=-(1 << 70), max_value=1 << 70)),
    max_size=40,
))
def test_bulk_encode_equals_loop_byte_for_byte(words):
    frame = encode_words(F, words)
    assert frame == _encode_words_loop(F, words)
    assert frame == _raw_frame([w % F.p for w in words])


@given(raw_words_strategy)
def test_bulk_decode_equals_loop_on_words_and_on_errors(words):
    frame = _raw_frame(words)
    try:
        expected = _decode_words_loop(F, frame, len(words))
    except WireFormatError as exc:
        # Same error, naming the same (first) non-canonical word.
        with pytest.raises(WireFormatError) as raised:
            decode_words(F, frame)
        assert str(raised.value) == str(exc)
        assert any(w >= F.p for w in words)
    else:
        assert decode_words(F, frame) == expected == words


@pytest.mark.parametrize("bad", [F.p, (1 << 64) - 1])
def test_bulk_decode_rejects_non_canonical_anywhere(bad):
    for position in (0, 7, 15):
        words = list(range(16))
        words[position] = bad
        with pytest.raises(WireFormatError,
                           match="word %d is not a canonical" % position):
            decode_words(F, _raw_frame(words))


@given(words_strategy, st.integers(min_value=-12, max_value=12))
def test_bulk_decode_length_checks_unchanged(words, slack):
    """Short and over-long frames die on the shared length checks, with
    the messages the loop path always gave."""
    frame = encode_words(F, words)
    damaged = frame[:slack] if slack < 0 else frame + b"\x00" * slack
    if damaged == frame:
        assert decode_words(F, damaged) == words
        return
    expected = ("shorter than its length prefix" if len(damaged) < 4
                else "does not match declared")
    with pytest.raises(WireFormatError, match=expected):
        decode_words(F, damaged)


def test_bulk_decode_count_cap_precedes_unpack():
    frame = encode_words(F, [1, 2, 3])
    with pytest.raises(WireFormatError, match="exceeds the 2-word cap"):
        decode_words(F, frame, max_words=2)
    hostile = (MAX_MESSAGE_WORDS + 1).to_bytes(4, "big") + b"\x00" * 24
    with pytest.raises(WireFormatError, match="cap"):
        decode_words(F, hostile)


def test_other_widths_still_take_the_loop(monkeypatch):
    class NoStruct:
        def __getattr__(self, name):
            raise AssertionError("struct.%s used off the 8-byte path" % name)

    monkeypatch.setattr(wire_module, "struct", NoStruct())
    for field in (BIG, PrimeField(101), PrimeField(2_147_483_647)):
        words = [0, 1, field.p - 1, field.p + 5, -3]
        frame = encode_words(field, words)
        assert frame == _encode_words_loop(field, words)
        assert decode_words(field, frame) == [w % field.p for w in words]
    # ...and the patch does bite on the 8-byte path.
    with pytest.raises(AssertionError):
        encode_words(F, [1])
    with pytest.raises(AssertionError):
        decode_words(F, _raw_frame([1]))


# -- T_UPDATES built from the block's columns -----------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("field", [DEFAULT_FIELD, PrimeField(MERSENNE_127)])
def test_updates_frame_from_columns_equals_the_per_pair_reference(field):
    """``updates_payload`` (two Python ints per pair through
    ``encode_words``) stays the byte-for-byte reference of the column
    encoder the client uses."""
    import numpy as np

    from repro.lde.streaming import prepare_block
    from repro.service import protocol as sp

    p = DEFAULT_FIELD.p
    u = 1 << 20
    pairs = [(0, -1), (u - 1, 1), (5, p - 1), (5, -(p - 1)), (7, p),
             (9, 1 << 61), (9, (1 << 62) + 5), (3, 0), (2, -(1 << 63)),
             (u - 1, (1 << 63) - 1)]
    for chunk, vector in ((pairs, 0), (pairs[:1], 1), (pairs * 300, 1)):
        keys = np.array([k for k, _ in chunk], dtype=np.int64)
        deltas = np.array([d for _, d in chunk], dtype=np.int64)
        assert sp.updates_payload_columns(field, vector, keys, deltas) == \
            sp.updates_payload(field, vector, chunk)
    empty = np.array([], dtype=np.int64)
    assert sp.updates_payload_columns(field, 0, empty, empty) == \
        sp.updates_payload(field, 0, [])
    # The columns are the ones the block split produced (NumPy splits at
    # 2^61 - 1, whatever field encodes them); a delta outside int64
    # leaves none, and the client falls back to the pair loop.
    be = get_backend(DEFAULT_FIELD, "vectorized")
    block = prepare_block(be, u, pairs, copies=8)
    assert sp.updates_payload_columns(field, 0, *block.columns) == \
        sp.updates_payload(field, 0, pairs)
    assert prepare_block(be, u, pairs + [(1, 1 << 63)]).columns is None



# -- ...and decoded straight back into columns ----------------------------------

HALF_P = F.p >> 1

update_words = st.one_of(
    st.integers(0, F.p - 1),
    st.sampled_from([0, 1, HALF_P - 1, HALF_P, HALF_P + 1, HALF_P + 2,
                     F.p - 2, F.p - 1]),
)
update_bodies = st.tuples(
    st.integers(0, 1),
    st.lists(st.tuples(update_words, update_words), max_size=40),
)


def _updates_frame(vector, word_pairs):
    return encode_words(F, [vector] + [w for pair in word_pairs for w in pair])


def _decode_both(payload):
    """``(vector, keys, deltas)`` or the error, from the per-pair decoder
    and from the columnar one on every backend."""
    from repro.service import protocol as sp

    def run(decode):
        try:
            vector, keys, deltas = decode()
        except sp.ServiceProtocolError as exc:
            return type(exc), str(exc)
        if HAVE_NUMPY:
            import numpy as np

            if isinstance(keys, np.ndarray):
                assert keys.dtype == deltas.dtype == np.int64
        keys, deltas = list(map(int, keys)), list(map(int, deltas))
        return vector, keys, deltas

    def reference():
        vector, pairs = sp.parse_updates(F, payload)
        return (vector, [k for k, _ in pairs], [d for _, d in pairs])

    results = [run(reference)]
    for name in ["scalar"] + (["vectorized"] if HAVE_NUMPY else []):
        backend = get_backend(F, name)
        results.append(run(
            lambda: sp.parse_updates_columns(backend, F, payload)))
    assert all(result == results[0] for result in results), results
    return results[0]


@given(update_bodies)
def test_columnar_updates_decoder_equals_the_per_pair_one(body):
    vector, word_pairs = body
    decoded = _decode_both(_updates_frame(vector, word_pairs))
    assert decoded[0] == vector
    assert decoded[1] == [key for key, _ in word_pairs]
    assert decoded[2] == [word - F.p if word > HALF_P else word
                          for _, word in word_pairs]


def test_columnar_updates_decoder_edges():
    assert _decode_both(_updates_frame(1, [])) == (1, [], [])
    assert _decode_both(_updates_frame(0, [(F.p - 1, HALF_P)])) == \
        (0, [F.p - 1], [HALF_P])
    assert _decode_both(_updates_frame(0, [(0, HALF_P + 1)])) == \
        (0, [0], [-HALF_P])


@given(update_bodies, st.data())
def test_columnar_updates_decoder_refuses_what_the_per_pair_one_does(
        body, data):
    from repro.service import protocol as sp

    vector, word_pairs = body
    good = _updates_frame(vector, word_pairs)
    n = 1 + 2 * len(word_pairs)
    raw = good[4:]
    position = data.draw(st.integers(0, n - 1))
    over = data.draw(st.integers(F.p, (1 << 64) - 1)).to_bytes(8, "big")
    damaged = [
        good[:data.draw(st.integers(0, 3))],              # truncated prefix
        good[:-1], good + b"\x00",                        # length ≠ declared
        (n + 2).to_bytes(4, "big") + raw,
        (MAX_MESSAGE_WORDS + 1).to_bytes(4, "big") + raw,  # over the cap
        (n + 1).to_bytes(4, "big") + raw + raw[:8],       # even word count
        good[:4] + raw[:8 * position] + over + raw[8 * position + 8:],
        good[:4] + (2).to_bytes(8, "big") + raw[8:],      # vector 2
        b"",
    ]
    for payload in damaged:
        error, message = _decode_both(payload)
        assert error is sp.ServiceProtocolError and message
