"""Protocol transcripts and (s, t) cost accounting.

The paper measures protocols by the verifier's space ``s`` and the total
communication ``t``, both in *words* (field elements, i.e. 8 bytes for
p = 2^61 - 1).  Every protocol run in this library produces a
:class:`Transcript` from which rounds, per-direction word counts and byte
sizes can be read off — these are exactly the quantities plotted in
Figures 2(c) and 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

PROVER = "prover"
VERIFIER = "verifier"


@dataclass(frozen=True)
class Message:
    """One protocol message.

    ``payload_words`` is the message length in words; ``payload`` keeps the
    actual field elements (used by tamper hooks and tests; structured
    payloads are flattened to their word encoding).
    """

    sender: str
    round_index: int
    label: str
    payload: Sequence[int]

    @property
    def payload_words(self) -> int:
        return len(self.payload)


@dataclass
class Transcript:
    """Ordered record of all messages exchanged in one protocol run."""

    messages: List[Message] = field(default_factory=list)

    def record(
        self, sender: str, round_index: int, label: str, payload: Sequence[int]
    ) -> Message:
        if sender not in (PROVER, VERIFIER):
            raise ValueError("unknown sender %r" % (sender,))
        message = Message(sender, round_index, label, tuple(payload))
        self.messages.append(message)
        return message

    # -- cost accounting --------------------------------------------------

    @property
    def rounds(self) -> int:
        """Number of rounds = max round index + 1 (rounds are 0-based)."""
        if not self.messages:
            return 0
        return max(m.round_index for m in self.messages) + 1

    @property
    def total_words(self) -> int:
        return sum(m.payload_words for m in self.messages)

    def words_from(self, sender: str) -> int:
        return sum(m.payload_words for m in self.messages if m.sender == sender)

    @property
    def prover_words(self) -> int:
        return self.words_from(PROVER)

    @property
    def verifier_words(self) -> int:
        return self.words_from(VERIFIER)

    def total_bytes(self, word_bytes: int) -> int:
        return self.total_words * word_bytes

    def messages_from(self, sender: str) -> List[Message]:
        return [m for m in self.messages if m.sender == sender]

    def __len__(self) -> int:
        return len(self.messages)

    def summary(self, word_bytes: int = 8) -> str:
        return (
            "rounds=%d total_words=%d (prover=%d, verifier=%d) bytes=%d"
            % (
                self.rounds,
                self.total_words,
                self.prover_words,
                self.verifier_words,
                self.total_bytes(word_bytes),
            )
        )
