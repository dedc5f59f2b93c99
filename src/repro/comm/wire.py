"""Wire encoding of protocol messages.

Transcript accounting counts *words*; this module pins down the byte-level
format a deployment would use: fixed-width big-endian words sized for the
field (8 bytes for p = 2^61 - 1, 16 for 2^127 - 1), with a 4-byte length
prefix per message.  Encoding is total and decoding validates, so a
malformed frame is a rejection, not a crash — the same robustness contract
as the protocol layer.

Beyond bare word frames, the module encodes full transcript *rounds*:
each :class:`~repro.comm.transcript.Message` (sender, round index, label,
payload) and whole :class:`~repro.comm.transcript.Transcript` objects
round-trip through a versioned header.  This is the persistence/audit
format the service layer (:mod:`repro.service`) builds its session frames
on: a verifier can ship a transcript to a third party who re-checks the
byte-for-byte conversation.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.comm.transcript import PROVER, VERIFIER, Message, Transcript
from repro.field.modular import PrimeField

#: Version byte stamped on every encoded transcript; bumped on any layout
#: change so old captures are rejected loudly instead of misparsed.
WIRE_VERSION = 1

#: Leading magic of an encoded transcript ("Streaming Interactive Proof").
TRANSCRIPT_MAGIC = b"SIPT"

_SENDER_CODES = {PROVER: 0x50, VERIFIER: 0x56}  # 'P' / 'V'
_CODE_SENDERS = {code: sender for sender, code in _SENDER_CODES.items()}

#: Hard cap on a single message's word count (2^26 words = 512 MiB at
#: 8 bytes/word): a declared length beyond this is damage, not data.
MAX_MESSAGE_WORDS = 1 << 26


class WireFormatError(ValueError):
    """A frame failed structural validation."""


def word_width(field: PrimeField) -> int:
    """Bytes per word on the wire for this field."""
    return field.word_bytes


def encode_words(field: PrimeField, words: Sequence[int]) -> bytes:
    """Length-prefixed frame of canonical field elements: one
    ``struct.pack`` for 8-byte words (the Mersenne-61 service field), the
    per-word loop — the tests' byte-for-byte reference — for other widths.
    """
    if word_width(field) != 8:
        return _encode_words_loop(field, words)
    p = field.p
    return struct.pack(">I%dQ" % len(words), len(words),
                       *[w % p for w in words])


def _encode_words_loop(field: PrimeField, words: Sequence[int]) -> bytes:
    width = word_width(field)
    out = bytearray(len(words).to_bytes(4, "big"))
    for w in words:
        out += (w % field.p).to_bytes(width, "big")
    return bytes(out)


def decode_words(field: PrimeField, frame: bytes,
                 max_words: int = MAX_MESSAGE_WORDS) -> List[int]:
    """Inverse of :func:`encode_words`; raises WireFormatError on damage.

    The declared word count is validated against ``max_words`` (and the
    global :data:`MAX_MESSAGE_WORDS` cap) *before* any per-word work, so
    a malformed length prefix is rejected without allocating: the prefix
    is parsed unsigned, hence a "negative" length from a damaged peer
    arrives as a huge count and dies on the same check.
    """
    if len(frame) < 4:
        raise WireFormatError("frame shorter than its length prefix")
    count = int.from_bytes(frame[:4], "big")
    if count > min(max_words, MAX_MESSAGE_WORDS):
        raise WireFormatError(
            "declared word count %d exceeds the %d-word cap"
            % (count, min(max_words, MAX_MESSAGE_WORDS))
        )
    width = word_width(field)
    expected = 4 + count * width
    if len(frame) != expected:
        raise WireFormatError(
            "frame length %d does not match declared %d words"
            % (len(frame), count)
        )
    if width != 8:
        return _decode_words_loop(field, frame, count)
    words = list(struct.unpack_from(">%dQ" % count, frame, 4))
    if count and max(words) >= field.p:
        # Damage is rare: only then pay a second pass to name the word.
        return _decode_words_loop(field, frame, count)
    return words


def _decode_words_loop(field: PrimeField, frame: bytes,
                       count: int) -> List[int]:
    """Per-word decode of an already length-checked frame."""
    width = word_width(field)
    words = []
    for k in range(count):
        start = 4 + k * width
        value = int.from_bytes(frame[start : start + width], "big")
        if value >= field.p:
            raise WireFormatError("word %d is not a canonical element" % k)
        words.append(value)
    return words


def frame_bytes(field: PrimeField, num_words: int) -> int:
    """Size of an encoded frame carrying ``num_words`` words."""
    return 4 + num_words * word_width(field)


# -- transcript rounds ---------------------------------------------------------


def encode_message(field: PrimeField, message: Message) -> bytes:
    """One transcript message as bytes.

    Layout: sender code (1) | round index (4, BE) | label length (1) |
    label (UTF-8) | word frame (:func:`encode_words`).
    """
    code = _SENDER_CODES.get(message.sender)
    if code is None:
        raise WireFormatError("unknown sender %r" % (message.sender,))
    if not 0 <= message.round_index < (1 << 32):
        raise WireFormatError(
            "round index %r does not fit 4 bytes" % (message.round_index,)
        )
    label = message.label.encode("utf-8")
    if len(label) > 255:
        raise WireFormatError("label longer than 255 bytes")
    return (
        bytes([code])
        + message.round_index.to_bytes(4, "big")
        + bytes([len(label)])
        + label
        + encode_words(field, message.payload)
    )


def decode_message(
    field: PrimeField, data: bytes, offset: int = 0
) -> Tuple[Message, int]:
    """Inverse of :func:`encode_message` starting at ``offset``.

    Returns the message and the offset one past it; any truncation or
    structural damage raises :class:`WireFormatError`.
    """
    width = word_width(field)
    if len(data) < offset + 6:
        raise WireFormatError("message header truncated")
    sender = _CODE_SENDERS.get(data[offset])
    if sender is None:
        raise WireFormatError("unknown sender code 0x%02x" % data[offset])
    round_index = int.from_bytes(data[offset + 1 : offset + 5], "big")
    label_len = data[offset + 5]
    offset += 6
    if len(data) < offset + label_len + 4:
        raise WireFormatError("message label or word count truncated")
    try:
        label = data[offset : offset + label_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError("label is not valid UTF-8") from exc
    offset += label_len
    count = int.from_bytes(data[offset : offset + 4], "big")
    if count > MAX_MESSAGE_WORDS:
        raise WireFormatError(
            "declared word count %d exceeds the %d-word cap"
            % (count, MAX_MESSAGE_WORDS)
        )
    end = offset + 4 + count * width
    if len(data) < end:
        raise WireFormatError(
            "message payload truncated (declared %d words)" % count
        )
    payload = decode_words(field, data[offset:end])
    return Message(sender, round_index, label, tuple(payload)), end


def encode_transcript(field: PrimeField, transcript: Transcript) -> bytes:
    """A whole transcript as one self-describing byte string.

    Layout: magic ``SIPT`` | version (1) | word width (1) | message count
    (4, BE) | the messages (:func:`encode_message`), in conversation
    order.  The word width is recorded so a decoder with the wrong field
    fails on the header instead of misparsing payloads.
    """
    out = bytearray(TRANSCRIPT_MAGIC)
    out.append(WIRE_VERSION)
    out.append(word_width(field))
    out += len(transcript.messages).to_bytes(4, "big")
    for message in transcript.messages:
        out += encode_message(field, message)
    return bytes(out)


def decode_transcript(field: PrimeField, data: bytes) -> Transcript:
    """Inverse of :func:`encode_transcript`; validates header and length."""
    if len(data) < 10:
        raise WireFormatError("transcript header truncated")
    if data[:4] != TRANSCRIPT_MAGIC:
        raise WireFormatError("bad transcript magic %r" % (data[:4],))
    if data[4] != WIRE_VERSION:
        raise WireFormatError(
            "wire version %d not supported (expected %d)"
            % (data[4], WIRE_VERSION)
        )
    if data[5] != word_width(field):
        raise WireFormatError(
            "transcript word width %d does not match the field's %d"
            % (data[5], word_width(field))
        )
    count = int.from_bytes(data[6:10], "big")
    # Each message occupies at least 10 bytes (sender, round, empty
    # label, empty word frame): a count the data cannot possibly hold is
    # rejected before the decode loop rather than discovered mid-way.
    if 10 * count > len(data) - 10:
        raise WireFormatError(
            "declared message count %d exceeds what %d bytes can hold"
            % (count, len(data))
        )
    offset = 10
    transcript = Transcript()
    for _ in range(count):
        message, offset = decode_message(field, data, offset)
        transcript.messages.append(message)
    if offset != len(data):
        raise WireFormatError(
            "%d trailing bytes after the declared %d messages"
            % (len(data) - offset, count)
        )
    return transcript


def transcript_wire_bytes(field: PrimeField, transcript) -> int:
    """Total bytes a transcript occupies on this wire format (one frame
    per message) — the realistic version of Figure 2(c)'s byte counts."""
    return sum(
        frame_bytes(field, m.payload_words) for m in transcript.messages
    )
