"""The one transport: every byte ``repro.service`` moves over a socket.

* :class:`FrameLink` — one framed asyncio connection, dialed or
  accepted: the node, every leg of the cluster router (clients,
  backends, probes, mirrors) and the chaos proxy;
* :class:`BlockingFrameLink` — the same contract over a blocking socket:
  :class:`~repro.service.client.ServiceClient` and the supervisor;
* :class:`FrameListener` / :class:`ListenerHandle` — the listener
  lifecycle (start, tracked tasks, a stop that *closes what it
  accepted*, a daemon-thread bootstrap with a synchronous handle) the
  node, the router and the proxy inherit.

Both links return a frame as ``(frame type, session id, header,
payload)``.  ``header`` is the 12-byte header *with a version-2 frame's
trace extension still attached*: a relay that writes ``header +
payload`` forwards the extension byte for byte, :func:`frame_trace`
parses it for the node, and ``len(header) + len(payload)`` is exactly
what the frame took off the socket.  The declared length is checked
against ``max_payload`` before any payload byte is read.

A read that does not end in a frame ends in :class:`LinkClosed` (EOF),
:class:`LinkTimeout` (async link only; a blocking socket raises its own
``socket.timeout``) — ``mid_frame`` says whether a frame was under way —
or :class:`~repro.service.protocol.ServiceProtocolError` (framing
damage).  After any of them the stream position is not worth reading on.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import threading
from typing import Deque, List, Optional, Set, Tuple

from repro.service import protocol as sp

#: ``(frame type, session id, header incl. trace extension, payload)``.
Frame = Tuple[int, int, bytes, bytes]


class LinkClosed(ConnectionError):
    """The peer closed the connection; ``mid_frame`` tells a hang-up
    between frames from one that cut a frame short."""

    def __init__(self, mid_frame: bool):
        super().__init__("connection closed mid-frame" if mid_frame
                         else "connection closed between frames")
        self.mid_frame = mid_frame


class LinkTimeout(asyncio.TimeoutError):
    """A read outlived its deadline: idle between frames, or (with
    ``mid_frame``) a header whose extension or payload never arrived —
    ``session_id`` is then the one that header claimed."""

    def __init__(self, mid_frame: bool, session_id: int = 0):
        super().__init__("frame payload timed out" if mid_frame
                         else "connection idle")
        self.mid_frame = mid_frame
        self.session_id = session_id


def frame_trace(header: bytes) -> Optional[Tuple[int, int]]:
    """The ``(trace id, span id)`` a version-2 frame's header carries."""
    if len(header) == sp.HEADER_LEN:
        return None
    return sp.parse_trace_ext(header[sp.HEADER_LEN:])


# -- the async link ------------------------------------------------------------

#: Queued, unread frames at which a link stops reading its socket; it
#: reads on once :meth:`FrameLink.read_frame` has drained half of them.
READ_HIGH_WATER = 64


def _settle(future: asyncio.Future, result) -> None:
    if not future.done():
        future.set_result(result)


class FrameLink(asyncio.Protocol):
    """One framed asyncio connection: the protocol of its transport.

    :meth:`data_received` cuts frames off the stream as bytes arrive —
    a header is checked against ``max_payload`` the moment its 12 bytes
    are in, before any payload byte is kept — and queues them;
    :meth:`read_frame` returns a queued frame without yielding to the
    loop, or else waits on one future.  ``idle_timeout`` bounds a read
    until a frame's header is in, ``frame_timeout`` the rest of that
    frame: one timer per waiting read, which *resolves* the waiter with
    the :class:`LinkTimeout` to raise, so an outside ``cancel()`` stays a
    ``CancelledError``.  :meth:`send` is a plain ``transport.write`` that
    waits only while the transport has paused writing, at most
    ``send_timeout``.  ``None`` means no deadline; :meth:`dial` puts one
    deadline on all three and on the connect.
    """

    def __init__(self, idle_timeout: Optional[float] = None,
                 frame_timeout: Optional[float] = None,
                 send_timeout: Optional[float] = None,
                 max_payload: int = sp.MAX_PAYLOAD):
        self.idle_timeout = idle_timeout
        self.frame_timeout = frame_timeout
        self.send_timeout = send_timeout
        self.max_payload = max_payload
        self._transport: Optional[asyncio.Transport] = None
        self._closed: Optional[asyncio.Future] = None
        self._frames: Deque[Frame] = collections.deque()
        #: The bytes of the frame under way, a partial header included.
        self._buffer = bytearray()
        #: ``(type, session id, header length, frame length)`` of the
        #: buffered frame, once its header is in and checked.
        self._head: Optional[Tuple[int, int, int, int]] = None
        #: What the stream ends in after the queued frames: LinkClosed
        #: or the framing damage that stopped the parse.
        self._ending: Optional[Exception] = None
        self._waiter: Optional[asyncio.Future] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._reading_paused = False
        self._writing_paused = False
        self._drain_waiters: List[asyncio.Future] = []

    @classmethod
    async def dial(cls, host: str, port: int,
                   timeout: Optional[float] = None) -> "FrameLink":
        loop = asyncio.get_running_loop()
        _transport, link = await asyncio.wait_for(
            loop.create_connection(lambda: cls(timeout, timeout, timeout),
                                   host, port),
            timeout,
        )
        return link

    # -- the protocol side (called by the transport) ---------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._closed = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        if self._ending is not None:
            return  # past framing damage nothing is a frame
        buffer, head = self._buffer, self._head
        if buffer:
            buffer += data
            if len(buffer) < (sp.HEADER_LEN if head is None else head[3]):
                return
            data = bytes(buffer)
            buffer.clear()
        frames = self._frames
        queued = len(frames)
        pos, end = 0, len(data)
        while True:
            if head is None:
                if end - pos < sp.HEADER_LEN:
                    break
                header = data[pos:pos + sp.HEADER_LEN]
                try:
                    frame_type, session_id, length = sp.unpack_header(
                        header, self.max_payload)
                except sp.ServiceProtocolError as exc:
                    self._end(exc)
                    return
                header_len = sp.HEADER_LEN + sp.header_ext_len(header)
                head = (frame_type, session_id, header_len,
                        header_len + length)
            frame_type, session_id, header_len, frame_len = head
            if end - pos < frame_len:
                if self._waiter is not None and self._head is None \
                        and len(frames) == queued:
                    # The header a read was idle for is in: the rest of
                    # its frame runs on the frame deadline.
                    self._head = head
                    self._arm()
                break
            frames.append((frame_type, session_id,
                           data[pos:pos + header_len],
                           data[pos + header_len:pos + frame_len]))
            pos += frame_len
            head = None
        if pos < end:
            buffer += memoryview(data)[pos:]
        self._head = head
        if len(frames) > queued:
            if self._waiter is not None:
                _settle(self._waiter, None)
            if len(frames) >= READ_HIGH_WATER and not self._reading_paused:
                self._reading_paused = True
                self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._end(LinkClosed(mid_frame=bool(self._buffer)))
        return True  # the write side stays open until the owner closes

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end(LinkClosed(mid_frame=bool(self._buffer)))
        self.resume_writing()  # a waiting send finds the transport closed
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        for waiter in self._drain_waiters:
            _settle(waiter, True)

    # -- the owner's side ------------------------------------------------------

    def _end(self, ending: Exception) -> None:
        if self._ending is None:
            self._ending = ending
            if self._waiter is not None:
                _settle(self._waiter, None)

    def _arm(self) -> None:
        """(Re)start the waiting read's deadline: idle until a header is
        in, then the frame deadline."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        timeout = (self.idle_timeout if self._head is None
                   else self.frame_timeout)
        if timeout is not None:
            self._timer = self._waiter.get_loop().call_later(
                timeout, self._expire)

    def _expire(self) -> None:
        """The deadline resolves the waiter with what the read raises."""
        head = self._head
        _settle(self._waiter, LinkTimeout(mid_frame=False) if head is None
                else LinkTimeout(mid_frame=True, session_id=head[1]))

    async def read_frame(self) -> Frame:
        frames = self._frames
        if not frames:
            if self._ending is not None:
                raise self._ending
            waiter = self._waiter = \
                asyncio.get_running_loop().create_future()
            self._arm()
            try:
                expired = await waiter
            finally:
                self._waiter = None
                if self._timer is not None:
                    self._timer.cancel()
                    self._timer = None
            # A frame that made the queue wins over the deadline.
            if not frames:
                raise self._ending if self._ending is not None else expired
        frame = frames.popleft()
        if self._reading_paused and len(frames) <= READ_HIGH_WATER // 2:
            self._reading_paused = False
            self._transport.resume_reading()
        return frame

    async def send(self, data: bytes) -> None:
        """Write one frame (or several, joined); waits only while the
        transport has paused writing, at most ``send_timeout``."""
        transport = self._transport
        if transport.is_closing():
            raise ConnectionResetError("connection closed")
        transport.write(data)
        if not self._writing_paused:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._drain_waiters.append(waiter)
        timer = None if self.send_timeout is None else \
            waiter.get_loop().call_later(self.send_timeout, _settle,
                                         waiter, False)
        try:
            resumed = await waiter
        finally:
            self._drain_waiters.remove(waiter)
            if timer is not None:
                timer.cancel()
        if not resumed:
            raise asyncio.TimeoutError("send outlived its deadline")
        if transport.is_closing():
            raise ConnectionResetError("connection closed")

    async def request(self, frame: bytes) -> Frame:
        await self.send(frame)
        return await self.read_frame()

    async def send_error(self, session_id: int, message: str,
                         code: int) -> None:
        """A ``T_ERROR`` frame; a peer already gone is not an error."""
        try:
            await self.send(sp.pack_frame(
                sp.T_ERROR, session_id, sp.error_payload(message, code)
            ))
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass

    def close(self) -> None:
        # RuntimeError: the loop may already be closed when a link is
        # dropped during interpreter/test teardown.
        try:
            self._transport.close()
        except RuntimeError:
            pass

    async def aclose(self) -> None:
        """Close and wait until the transport is gone."""
        self.close()
        await asyncio.shield(self._closed)


# -- the blocking link ---------------------------------------------------------


class BlockingFrameLink:
    """One framed blocking-socket connection (a context manager).

    Every send and receive runs under the socket's ``op_timeout``; a
    deadline or OS error surfaces as the socket's own exception, an EOF
    as :class:`LinkClosed`.
    """

    def __init__(self, sock: socket.socket,
                 max_payload: int = sp.MAX_PAYLOAD):
        self._sock = sock
        self.max_payload = max_payload

    @classmethod
    def dial(cls, address: Tuple[str, int], connect_timeout: float,
             op_timeout: Optional[float] = None,
             max_payload: int = sp.MAX_PAYLOAD) -> "BlockingFrameLink":
        sock = socket.create_connection(address, timeout=connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(connect_timeout if op_timeout is None
                        else op_timeout)
        return cls(sock, max_payload)

    def _read(self, count: int, mid_frame: bool) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise LinkClosed(mid_frame or bool(chunks))
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def read_frame(self) -> Frame:
        header = self._read(sp.HEADER_LEN, False)
        frame_type, session_id, length = sp.unpack_header(
            header, self.max_payload
        )
        ext_len = sp.header_ext_len(header)
        if ext_len:
            header += self._read(ext_len, True)
        payload = self._read(length, True) if length else b""
        return frame_type, session_id, header, payload

    def send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def request(self, frame: bytes) -> Frame:
        self._sock.sendall(frame)
        return self.read_frame()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "BlockingFrameLink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the listener lifecycle ----------------------------------------------------


class _AcceptedLink(FrameLink):
    """A connection a :class:`FrameListener` accepted: its conversation
    task starts, tracked, with the connection."""

    def __init__(self, listener: "FrameListener"):
        super().__init__(listener.idle_timeout, listener.frame_timeout,
                         max_payload=listener.max_payload)
        self._listener = listener

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self._listener._spawn(self._listener._accept(self))


class FrameListener:
    """A TCP listener whose accepted connections are :class:`FrameLink`s.

    Subclasses implement :meth:`_serve` (one accepted connection, start
    to finish).  Connection tasks and :meth:`_spawn`-ed background tasks
    are tracked, and :meth:`stop` cancels *and awaits* them all — each
    unwinds through its ``finally``, closing its links — so a peer of a
    stopped listener reads EOF at once instead of waiting out its
    receive timeout on a process that is gone.
    """

    #: The handle :meth:`serve_in_thread` returns, and its thread's name.
    handle_class: type
    thread_name = "repro-listener"
    #: Deadlines and payload cap of every accepted link.
    idle_timeout: Optional[float] = None
    frame_timeout: Optional[float] = None
    max_payload = sp.MAX_PAYLOAD

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task"] = set()

    async def _serve(self, link: FrameLink) -> None:
        raise NotImplementedError

    async def _accept(self, link: FrameLink) -> None:
        try:
            await self._serve(link)
        except sp.ServiceProtocolError as exc:
            # Framing damage: tell the peer once, then hang up (the
            # stream position is unrecoverable).
            await link.send_error(0, str(exc), sp.E_TRANSPORT)
        except (ConnectionError, OSError):
            pass
        finally:
            await link.aclose()

    def _spawn(self, coro) -> None:
        """A task that lives until it ends or :meth:`stop`."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _AcceptedLink(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # A connection accepted just before the close reaches the
            # protocol factory on the next loop turn and is made on the
            # one after (callbacks run in order); its conversation is
            # stopped with the rest.
            for _turn in range(2):
                await asyncio.sleep(0)
            while self._tasks:
                tasks = list(self._tasks)
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def serve_in_thread(self):
        """Boot the listener on a daemon thread; returns its handle."""
        started = threading.Event()
        loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(target=run, name=self.thread_name,
                                  daemon=True)
        thread.start()
        started.wait()
        return self.handle_class(self, thread, loop)


class ListenerHandle:
    """A listener running on its own thread: address, run-on-loop, stop."""

    def __init__(self, listener: FrameListener, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.listener = listener
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        return (self.listener.host, self.listener.port)

    def _run(self, coro, timeout: float = 30.0):
        """Run a coroutine on the listener's loop — between frames, so
        it sees no half-applied one — and return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def stop(self) -> None:
        # Idempotent: a test that restarts servers may stop one both at
        # the restart point and again in its cleanup path.
        if not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        self._thread.join(timeout=10)
