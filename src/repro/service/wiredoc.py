"""Renders ``docs/WIRE.md`` from :mod:`repro.service.protocol`.

``python -m repro.service.wiredoc > docs/WIRE.md`` writes it.  The
prose of the sections lives in this module; every table is filled in
from the protocol module's declarations, so the document cannot drift
from the code (CI regenerates it and diffs).
"""

from __future__ import annotations

from string import Template
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service import protocol as sp
from repro.service.router import KIND_NAMES

_SECTIONS = """

## Frame types
$frame_types
The `H_*` frames are exchanged by the router's heartbeat probes, the
supervisor's resync loop and metrics scrapers: sessionless (session id
0), exempt from rate limits, answered before any registry lookup so a
node reports its health even when it refuses new sessions.

A `T_QUERY_OPEN` payload is a flag word, then the unit's descriptors
(`kind, nparams, params...` each).  Flag 1 opens one or more F2, Fk,
INNER-PRODUCT or RANGE-SUM descriptors (not `f2(workers=w)`) on the
batched sum-check engine and announces them to it — a lone query is a
batch of one, the single-query protocol byte for byte; flag 0 opens
exactly one descriptor of any other kind.  Any other open is a
`T_ERROR` on a connection that stays up, and no prover is built.

## Unit shapes

A unit's first prover steps need no word the verifier holds, so the
open runs them: the server builds the prover, announces the batch to
it, runs the unit's *opening steps* from the descriptor alone and
appends each replying one's words to the `T_QUERY_ACK` as a counted
list, `[ref, n1, words1..., n2, words2...]`.  The client's proxy
answers the verifier's matching first calls from the ack and refuses
any other first call locally.  The *closing step* is the reply that ends
the proof: once it is out the server releases the prover, and the
client sends `T_QUERY_CLOSE` only for a unit it abandons before then (a
rejected message, a transport fault).  An opening step that fails is a
`T_ERROR` with nothing left open and no verifier copy spent.
$unit_shapes
So a sum-check unit of d rounds is d round trips (the open, then d − 1
chained challenge-and-message trips), and so is a point lookup or range
scan (the open, then d − 1 folds); at d = 1 the ack carries the whole
proof.  Every other kind (heavy hitters, `f2(workers=w)`, k-largest,
predecessor, successor) is acked with its reference alone and ends on
`T_QUERY_CLOSE`.

## Error codes

A structured refusal beats a bare connection reset: a `T_ERROR` payload
is a 2-byte code, then a UTF-8 message, and the code lets a client
decide between retrying after a backoff (the request was fine, the
service was busy), reconnecting and resuming (the server lost this
conversation) and giving up (a semantic rejection that will repeat).
A query resumed after its `T_QUERY_ACK` reruns on a fresh verifier
copy, since the lost conversation may have shown the prover challenges;
before the ack, the same copy is safe to reuse.
$error_codes
## Prover steps

The interactive protocols are driven by the client (the verifier).  A
`T_P_CALL` payload is the words `[ref, opcode, args...]`; its
`T_P_REPLY` carries the step's result.  The step table is the whole RPC
surface: the client's prover proxies are generated from it, and the
server looks the opcode up, checks the argument count, calls the method
the table names for the query's kind — a name never comes off the wire
— and lays the result out by the reply codec.  An opcode outside the
table, a wrong argument count, a kind without the step (`-`) or a
prover without the method is a `T_ERROR` on a connection that stays up.
$steps
Reply codecs:
$codecs
## Chaining

Steps that return nothing ($void_steps) do not travel alone: the client
holds them back and sends them in front of the next step that replies,
as one chain `[ref, M_CHAIN, m1, n1, args1..., m2, n2, args2...]`
answered by one `T_P_REPLY` with the last call's words.  A chain is
checked whole before any of it runs — not empty, truncated or nested,
and every call but the last a void step — and the server runs it in
order, so the prover learns r_j after g_j went out and before it commits
g_(j+1), as ever, and a round of the paper's protocol is one round trip.
"""


def _names(*prefixes: str) -> Dict[int, str]:
    """``{value: constant name}`` of the protocol's ``PREFIX_*`` ints."""
    return {
        value: "`%s`" % name for name, value in vars(sp).items()
        if name.startswith(prefixes) and isinstance(value, int)
    }


def _table(head: Sequence[str], rows) -> str:
    return "\n".join([
        "", "| " + " | ".join(head) + " |", "|" + "---|" * len(head),
        *("| " + " | ".join(map(str, row)) + " |" for row in rows), "",
    ])


def wire_doc() -> str:
    """``docs/WIRE.md``: the protocol module's docstring, then the
    sections above with their tables filled in from its constants."""
    frames, errors, opcodes = _names("T_", "H_"), _names("E_"), _names("M_")
    steps = []
    for opcode, step in sorted(sp.STEPS.items()):
        variants: Dict[Optional[Tuple[str, str]], List[str]] = {}
        for kind, resolved in step.by_kind.items():
            variants.setdefault(resolved, []).append(KIND_NAMES[kind])
        listed = [(", ".join(sorted(names)), *(resolved or ("-", "-")))
                  for resolved, names in variants.items()]
        if step.default:
            listed.append(("every other kind" if listed else "every kind",
                           *step.default))
        steps += [("0x%02X" % opcode, opcodes[opcode], step.arity, *variant)
                  for variant in sorted(listed)]
    return "# " + Template(sp.__doc__.rstrip() + _SECTIONS).substitute(
        frame_types=_table(("type", "name", "direction", "carries"), [
            ("0x%02X" % value, frames[value], *sp.FRAME_TYPES[value])
            for value in sorted(sp.FRAME_TYPES)
        ]),
        error_codes=_table(("code", "name", "meaning", "a client may"), [
            ("0x%04X" % code, errors[code], sp.ERROR_CODES[code],
             "retry after backoff, same connection"
             if code in sp.RETRYABLE_BUSY
             else "reconnect, resume and retry"
             if code in sp.RETRYABLE_RECONNECT else "give up")
            for code in sorted(sp.ERROR_CODES)
        ]),
        steps=_table(("opcode", "name", "args", "query kinds",
                      "prover method", "reply"), steps),
        unit_shapes=_table(
            ("unit", "opening steps", "T_QUERY_ACK carries after ref",
             "closing step"), [
                (unit,
                 ", ".join(opcodes[opcode] + ("(lo, hi)" if opcode ==
                                              sp.M_RECEIVE_QUERY else "")
                           for opcode in shape.opening),
                 ", ".join(opcodes[opcode] for opcode in shape.opening
                           if sp.STEPS[opcode].default[1] != sp.REPLY_VOID),
                 "its %s-th %s" % ("(d%+d)" % shape.closing_offset
                                   if shape.closing_offset else "d",
                                   opcodes[shape.closing]))
                for unit, shape in sp.UNIT_SHAPES.items()
            ]),
        codecs=_table(("reply", "T_P_REPLY words"), sp.REPLY_LAYOUTS.items()),
        void_steps=", ".join(opcodes[opcode]
                             for opcode in sorted(sp.VOID_METHODS)),
    )


if __name__ == "__main__":
    import sys

    sys.stdout.write(wire_doc())
