"""Tests for repro.comm (transcripts, channels, tamper hooks)."""

from __future__ import annotations

import pytest

from repro.comm.channel import (
    Channel,
    drop_last_word,
    flip_word,
    replace_payload,
)
from repro.comm.transcript import PROVER, VERIFIER, Message, Transcript


def test_message_word_count():
    m = Message(PROVER, 0, "g1", (1, 2, 3))
    assert m.payload_words == 3


def test_transcript_accounting():
    t = Transcript()
    t.record(PROVER, 0, "g1", [1, 2, 3])
    t.record(VERIFIER, 0, "r1", [9])
    t.record(PROVER, 1, "g2", [4, 5, 6])
    assert t.rounds == 2
    assert t.total_words == 7
    assert t.prover_words == 6
    assert t.verifier_words == 1
    assert t.total_bytes(8) == 56
    assert len(t) == 3


def test_transcript_rejects_unknown_sender():
    with pytest.raises(ValueError):
        Transcript().record("eavesdropper", 0, "x", [])


def test_messages_from():
    t = Transcript()
    t.record(PROVER, 0, "a", [1])
    t.record(VERIFIER, 0, "b", [2])
    assert [m.label for m in t.messages_from(PROVER)] == ["a"]
    assert [m.label for m in t.messages_from(VERIFIER)] == ["b"]


def test_empty_transcript():
    t = Transcript()
    assert t.rounds == 0
    assert t.total_words == 0


def test_summary_format():
    t = Transcript()
    t.record(PROVER, 0, "g", [1, 2])
    text = t.summary(8)
    assert "rounds=1" in text and "bytes=16" in text


def test_channel_records_both_directions():
    ch = Channel()
    ch.prover_says(0, "g1", [5, 6])
    ch.verifier_says(0, "r1", [7])
    assert ch.transcript.total_words == 3
    assert ch.tampered_messages == 0


def test_channel_delivers_payload_unchanged_without_tamper():
    ch = Channel()
    assert ch.prover_says(0, "g", [1, 2, 3]) == [1, 2, 3]


def test_flip_word_hook():
    ch = Channel(tamper=flip_word(round_index=1, position=0, offset=10))
    assert ch.prover_says(0, "g1", [1, 2]) == [1, 2]
    assert ch.prover_says(1, "g2", [1, 2]) == [11, 2]
    assert ch.tampered_messages == 1
    # The transcript records what was delivered.
    assert ch.transcript.messages[-1].payload == (11, 2)


def test_flip_word_position_wraps():
    ch = Channel(tamper=flip_word(round_index=0, position=5, offset=1))
    assert ch.prover_says(0, "g", [1, 2, 3]) == [1, 2, 4]


def test_flip_word_empty_payload():
    ch = Channel(tamper=flip_word(round_index=0))
    assert ch.prover_says(0, "g", []) == []


def test_drop_last_word_hook():
    ch = Channel(tamper=drop_last_word(round_index=0))
    assert ch.prover_says(0, "g", [1, 2, 3]) == [1, 2]


def test_replace_payload_hook():
    ch = Channel(tamper=replace_payload(round_index=2, payload=[9, 9]))
    assert ch.prover_says(2, "g", [1]) == [9, 9]
    assert ch.prover_says(3, "g", [1]) == [1]


def test_verifier_messages_never_tampered():
    ch = Channel(tamper=flip_word(round_index=0, offset=100))
    assert ch.verifier_says(0, "r", [1]) == [1]
