"""One reader contract, both links.

``repro.service.transport`` reads a frame in two places — the asyncio
:class:`FrameLink` and the :class:`BlockingFrameLink` — and everything
in ``service/`` goes through one of them.  This suite feeds the *same*
byte strings, cut into the same chunks, to both and holds them to one
contract: the 4-tuple they return, where they stop, and how they tell a
clean hang-up from a cut frame from framing damage.  The async link is
an ``asyncio.Protocol``; it is fed the way its transport feeds it,
``data_received`` one chunk per loop turn and then ``eof_received``, and
the cases after the shared ones hold what only it has: deadlines,
cancellation, and flow control in both directions.
"""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import protocol as sp
from repro.service.transport import (
    READ_HIGH_WATER,
    BlockingFrameLink,
    FrameLink,
    FrameListener,
    LinkClosed,
    LinkTimeout,
    frame_trace,
)

TRACE = (0x1122334455667788, 0x99AABBCCDDEEFF00)
PAYLOAD = bytes(range(1, 38))

#: name -> (frame bytes, the 4-tuple both readers must return).
FRAMES = {}
for _name, _type, _session, _payload, _trace in (
    ("v1", sp.T_UPDATES, 42, PAYLOAD, None),
    ("v2", sp.T_P_CALL, 7, PAYLOAD, TRACE),
    ("v1-empty", sp.T_BYE, 3, b"", None),
    ("v2-empty", sp.H_PING, 0, b"", TRACE),
):
    _raw = sp.pack_frame(_type, _session, _payload, trace=_trace)
    FRAMES[_name] = (
        _raw, (_type, _session, _raw[: len(_raw) - len(_payload)], _payload)
    )


class ScriptedSocket:
    """``recv`` hands out the scripted chunks, never more than one at a
    time and never across a chunk boundary; then EOF."""

    def __init__(self, chunks):
        self._chunks = [bytes(c) for c in chunks if c]
        self.recv_calls = 0

    def recv(self, count):
        self.recv_calls += 1
        if not self._chunks:
            return b""
        head = self._chunks[0]
        if len(head) <= count:
            return self._chunks.pop(0)
        self._chunks[0] = head[count:]
        return head[:count]

    def close(self):
        pass


def read_blocking(chunks, max_payload=sp.MAX_PAYLOAD):
    link = BlockingFrameLink(ScriptedSocket(chunks), max_payload)
    frames = []
    while True:
        try:
            frames.append(link.read_frame())
        except (LinkClosed, sp.ServiceProtocolError) as exc:
            return frames, exc


class FakeTransport:
    """What a :class:`FrameLink` asks of its transport, recorded; ``close``
    reports the connection lost on the next loop turn, as asyncio does."""

    def __init__(self, link):
        self.link = link
        self.written = []
        self.reading = True
        self.closing = False

    def write(self, data):
        self.written.append(bytes(data))

    def pause_reading(self):
        assert self.reading
        self.reading = False

    def resume_reading(self):
        assert not self.reading
        self.reading = True

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(self.link.connection_lost,
                                                 None)


def connected(**kwargs):
    """A link on a :class:`FakeTransport` (call on a running loop)."""
    link = FrameLink(**kwargs)
    link.connection_made(FakeTransport(link))
    return link


def run_now(coro):
    """The coroutine's result, asserting it never yielded to the loop."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise AssertionError("the coroutine waited for the loop")


def read_async(chunks, max_payload=sp.MAX_PAYLOAD):
    async def main():
        link = connected(max_payload=max_payload)

        async def feed():
            # One chunk per loop turn: the reader really does wake up on
            # a partial frame and go back to sleep.
            for chunk in chunks:
                if chunk:
                    link.data_received(bytes(chunk))
                await asyncio.sleep(0)
            link.eof_received()

        feeder = asyncio.ensure_future(feed())
        frames = []
        try:
            while True:
                frames.append(await link.read_frame())
        except (LinkClosed, sp.ServiceProtocolError) as exc:
            return frames, exc
        finally:
            await feeder

    return asyncio.run(main())


READERS = {"async": read_async, "blocking": read_blocking}


@pytest.fixture(params=sorted(READERS))
def read(request):
    return READERS[request.param]


def assert_closed(ending, mid_frame):
    assert isinstance(ending, LinkClosed), ending
    assert ending.mid_frame is mid_frame


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_a_frame_split_at_every_byte_boundary_reads_whole(read, name):
    raw, expected = FRAMES[name]
    for cut in range(len(raw) + 1):
        frames, ending = read([raw[:cut], raw[cut:]])
        assert frames == [expected], cut
        assert_closed(ending, mid_frame=False)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_header_keeps_the_trace_extension_verbatim(read, name):
    """What a relay forwards (``header + payload``) is the frame, byte
    for byte; the node gets the parsed pair from the same header; and
    the two lengths add up to what came off the socket."""
    raw, expected = FRAMES[name]
    (frame,), _ending = read([raw])
    _type, _session, header, payload = frame
    assert header + payload == raw
    traced = name.startswith("v2")
    assert len(header) == sp.HEADER_LEN + (sp.TRACE_EXT_LEN if traced else 0)
    assert frame_trace(header) == (TRACE if traced else None)


def test_back_to_back_frames_keep_their_boundaries(read):
    raws = [FRAMES[name][0] for name in sorted(FRAMES)]
    frames, ending = read([b"".join(raws)])
    assert frames == [FRAMES[name][1] for name in sorted(FRAMES)]
    assert_closed(ending, mid_frame=False)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_eof_mid_frame_is_not_eof_between_frames(read, name):
    raw, expected = FRAMES[name]
    frames, ending = read([])
    assert frames == []
    assert_closed(ending, mid_frame=False)
    for cut in range(1, len(raw)):  # inside header, extension, payload
        frames, ending = read([raw, raw[:cut]])
        assert frames == [expected], cut
        assert_closed(ending, mid_frame=True)


def test_oversized_length_is_refused_before_any_payload_read(read):
    raw, expected = FRAMES["v1"]
    frames, ending = read([raw], max_payload=len(PAYLOAD))
    assert frames == [expected]  # at the cap: fine
    # Over it: refused on the header alone.  The payload is not there to
    # read — a reader that went for it would report a cut frame instead.
    frames, ending = read([raw[: sp.HEADER_LEN]],
                          max_payload=len(PAYLOAD) - 1)
    assert frames == []
    assert isinstance(ending, sp.ServiceProtocolError)
    assert "exceeds" in str(ending)


def test_blocking_reader_stops_at_the_refused_header():
    raw = FRAMES["v1"][0]
    sock = ScriptedSocket([raw])
    link = BlockingFrameLink(sock, max_payload=1)
    with pytest.raises(sp.ServiceProtocolError):
        link.read_frame()
    assert sock.recv_calls == 1  # the header; nothing after it


_GOOD = FRAMES["v1"][0]
DAMAGED = {
    "bad magic": b"XX" + _GOOD[2:],
    "bad version": _GOOD[:2] + bytes([99]) + _GOOD[3:],
    "version 0": _GOOD[:2] + bytes([0]) + _GOOD[3:],
    "unknown type": _GOOD[:3] + bytes([0xEE]) + _GOOD[4:],
    "type 0": _GOOD[:3] + bytes([0]) + _GOOD[4:],
    "length past the hard cap": (
        _GOOD[:8] + (sp.MAX_PAYLOAD + 1).to_bytes(4, "big") + _GOOD[12:]),
}


@pytest.mark.parametrize("name", sorted(DAMAGED))
def test_framing_damage_is_a_protocol_error(read, name):
    frames, ending = read([_GOOD, DAMAGED[name]])
    assert frames == [FRAMES["v1"][1]]  # the frame before it was fine
    assert isinstance(ending, sp.ServiceProtocolError)
    assert not isinstance(ending, LinkClosed)


@given(
    names=st.lists(st.sampled_from(sorted(FRAMES) + sorted(DAMAGED)),
                   max_size=5),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    keep=st.integers(min_value=0, max_value=400),
)
def test_both_readers_agree_on_any_chunking_of_any_stream(names, cuts, keep):
    """Whatever the stream — good frames, damaged ones, cut anywhere,
    delivered in any chunks — the two readers return the same frames
    and stop for the same reason."""
    stream = b"".join(FRAMES[n][0] if n in FRAMES else DAMAGED[n]
                      for n in names)[:keep]
    edges = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
    chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
    got = {}
    for kind, reader in READERS.items():
        frames, ending = reader(chunks)
        got[kind] = (frames, type(ending), getattr(ending, "mid_frame", None))
    assert got["async"] == got["blocking"]


def test_async_deadlines_tell_idle_from_a_stalled_frame():
    """Only the async link has deadlines of its own (a blocking socket
    raises ``socket.timeout``): idle between frames, or a header whose
    payload never comes — with the session id that header claimed."""
    raw = FRAMES["v2"][0]

    async def main(fed):
        link = connected(idle_timeout=0.05, frame_timeout=0.05)
        link.data_received(fed)
        with pytest.raises(LinkTimeout) as info:
            await link.read_frame()
        return info.value

    idle = asyncio.run(main(b""))
    assert idle.mid_frame is False
    # A partial header is still the idle wait: no session id to claim.
    assert asyncio.run(main(raw[: sp.HEADER_LEN - 1])).mid_frame is False
    for fed in (raw[: sp.HEADER_LEN], raw[: sp.HEADER_LEN + 20]):
        stalled = asyncio.run(main(fed))
        assert stalled.mid_frame is True and stalled.session_id == 7


def test_a_header_moves_a_waiting_read_onto_the_frame_deadline():
    """The read waits under ``idle_timeout`` until a header is in, then
    under ``frame_timeout`` for the rest of that frame."""
    raw = FRAMES["v2"][0]

    async def main():
        link = connected(idle_timeout=30.0, frame_timeout=0.02)
        read = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        link.data_received(raw[: sp.HEADER_LEN + 3])
        with pytest.raises(LinkTimeout) as info:
            await asyncio.wait_for(read, 5.0)
        return info.value

    stalled = asyncio.run(main())
    assert stalled.mid_frame is True and stalled.session_id == 7


def test_two_frames_in_one_chunk_need_no_loop_turn_for_the_second():
    raw_a, frame_a = FRAMES["v1"]
    raw_b, frame_b = FRAMES["v2"]

    async def main():
        link = connected()
        read = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        link.data_received(raw_a + raw_b + raw_a[:5])
        assert await read == frame_a
        assert run_now(link.read_frame()) == frame_b
        # The partial third frame is not a frame yet: that read waits.
        third = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        assert not third.done()
        link.data_received(raw_a[5:])
        assert await third == frame_a

    asyncio.run(main())


def _due_after_the_deadline(loop, callback, *args):
    """Run ``callback`` in the same loop turn as a deadline that is
    already due, after it and before the waiting task resumes: both are
    timers, and due timers run in deadline order."""
    time.sleep(0.002)
    loop.call_at(loop.time(), callback, *args)


def test_a_deadline_never_drops_or_reorders_a_queued_frame():
    raw_a, frame_a = FRAMES["v1"]
    raw_b, frame_b = FRAMES["v2"]

    async def main():
        loop = asyncio.get_running_loop()
        link = connected(idle_timeout=0.001)
        # The deadline resolves the waiter, then the frame arrives, both
        # before the read resumes: the read returns the frame.
        read = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        _due_after_the_deadline(loop, link.data_received, raw_a + raw_b)
        assert await read == frame_a
        assert run_now(link.read_frame()) == frame_b
        # A read that did time out took nothing with it.
        with pytest.raises(LinkTimeout):
            await link.read_frame()
        link.data_received(raw_b + raw_a)
        assert run_now(link.read_frame()) == frame_b
        assert run_now(link.read_frame()) == frame_a

    asyncio.run(main())


def test_an_outside_cancel_is_a_cancel_not_a_timeout():
    """The deadline resolves the waiter instead of cancelling it, so a
    ``task.cancel()`` from outside stays ``CancelledError`` — also when
    it lands in the turn the deadline fired — and the link reads on."""
    raw, frame = FRAMES["v1"]

    async def main():
        loop = asyncio.get_running_loop()
        link = connected(idle_timeout=5.0)
        read = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        read.cancel()
        with pytest.raises(asyncio.CancelledError):
            await read
        link.idle_timeout = 0.001
        read = asyncio.ensure_future(link.read_frame())
        await asyncio.sleep(0)
        _due_after_the_deadline(loop, read.cancel)
        with pytest.raises(asyncio.CancelledError):
            await read
        link.data_received(raw)
        assert run_now(link.read_frame()) == frame

    asyncio.run(main())


def test_reading_pauses_at_the_high_water_mark_and_resumes_on_drain():
    raw, frame = FRAMES["v1"]

    async def main():
        link = connected()
        transport = link._transport
        link.data_received(raw * (READ_HIGH_WATER - 1))
        assert transport.reading
        link.data_received(raw)
        assert not transport.reading
        for left in range(READ_HIGH_WATER - 1, -1, -1):
            assert run_now(link.read_frame()) == frame
            assert transport.reading is (left <= READ_HIGH_WATER // 2)

    asyncio.run(main())


def test_send_waits_only_while_writing_is_paused():
    frame = FRAMES["v1"][0]

    async def main():
        link = connected(send_timeout=0.02)
        transport = link._transport
        run_now(link.send(frame))  # no backpressure: no loop turn
        link.pause_writing()
        sending = asyncio.ensure_future(link.send(frame))
        await asyncio.sleep(0)
        assert not sending.done()
        link.resume_writing()
        await sending
        assert transport.written == [frame, frame]
        link.pause_writing()
        with pytest.raises(asyncio.TimeoutError):
            await link.send(frame)
        # A connection lost under backpressure fails the waiting send.
        sending = asyncio.ensure_future(link.send(frame))
        await asyncio.sleep(0)
        transport.close()
        with pytest.raises(ConnectionResetError):
            await sending
        with pytest.raises(ConnectionResetError):
            await link.send(frame)
        await link.aclose()

    asyncio.run(main())


# -- the listener lifecycle -----------------------------------------------------


class _ReadUntilHangUp(FrameListener):
    async def _serve(self, link):
        while True:
            await link.read_frame()


def test_stop_over_conversations_that_are_winding_down_is_silent():
    """``stop()`` cancels every conversation wherever it stands: still
    reading, or already past its peer's hang-up and waiting for its own
    transport to close.  Either way the task must end *normally* — on
    Python < 3.12 asyncio's done-callback for an accepted connection
    calls ``task.exception()``, which raises on a cancelled task and
    lands in the loop's exception handler as ``Exception in callback``.
    Clients hang up and the listener stops in the same loop iteration,
    and one, two, ... iterations later; the handler must record nothing.
    """
    recorded = []

    async def main(yields):
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: recorded.append((yields, context)))
        listener = _ReadUntilHangUp("127.0.0.1", 0)
        await listener.start()
        links = [await FrameLink.dial("127.0.0.1", listener.port)
                 for _ in range(6)]
        while len(listener._tasks) < len(links):
            await asyncio.sleep(0)
        for link in links[:4]:  # the other two are cancelled mid-read
            link.close()
        for _ in range(yields):
            await asyncio.sleep(0)
        await listener.stop()
        assert not listener._tasks
        for link in links[4:]:
            with pytest.raises(LinkClosed):
                await link.read_frame()
            await link.aclose()
        await asyncio.sleep(0.01)  # let every scheduled callback run

    for yields in range(6):
        asyncio.run(main(yields))
    assert recorded == []
