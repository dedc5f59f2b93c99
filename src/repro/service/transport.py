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
import socket
import threading
from typing import Optional, Set, Tuple

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


class FrameLink:
    """One framed asyncio connection.

    ``idle_timeout`` bounds the wait for a frame's header,
    ``frame_timeout`` the wait for the rest of it, ``send_timeout`` a
    drain; ``None`` means no deadline *and no* ``wait_for``.
    :meth:`dial` puts one deadline on all three and on the connect.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 idle_timeout: Optional[float] = None,
                 frame_timeout: Optional[float] = None,
                 send_timeout: Optional[float] = None,
                 max_payload: int = sp.MAX_PAYLOAD):
        self._reader = reader
        self._writer = writer
        self.idle_timeout = idle_timeout
        self.frame_timeout = frame_timeout
        self.send_timeout = send_timeout
        self.max_payload = max_payload

    @classmethod
    async def dial(cls, host: str, port: int,
                   timeout: Optional[float] = None) -> "FrameLink":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer, timeout, timeout, timeout)

    async def read_frame(self) -> Frame:
        # The per-frame path: no helper call, and no ``wait_for`` (a
        # task per read) where there is no deadline.
        read, idle, rest = (self._reader.readexactly, self.idle_timeout,
                            self.frame_timeout)
        try:
            header = await (read(sp.HEADER_LEN) if idle is None else
                            asyncio.wait_for(read(sp.HEADER_LEN), idle))
        except asyncio.IncompleteReadError as exc:
            raise LinkClosed(mid_frame=bool(exc.partial)) from None
        except asyncio.TimeoutError:
            raise LinkTimeout(mid_frame=False) from None
        frame_type, session_id, length = sp.unpack_header(
            header, self.max_payload
        )
        try:
            ext_len = sp.header_ext_len(header)
            if ext_len:
                header += await (read(ext_len) if rest is None else
                                 asyncio.wait_for(read(ext_len), rest))
            payload = b"" if not length else await (
                read(length) if rest is None else
                asyncio.wait_for(read(length), rest))
        except asyncio.IncompleteReadError:
            raise LinkClosed(mid_frame=True) from None
        except asyncio.TimeoutError:
            raise LinkTimeout(mid_frame=True, session_id=session_id) from None
        return frame_type, session_id, header, payload

    async def send(self, data: bytes) -> None:
        """Write one frame (or several, joined) and drain."""
        self._writer.write(data)
        drain = self._writer.drain()
        await (drain if self.send_timeout is None else
               asyncio.wait_for(drain, self.send_timeout))

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
            self._writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def aclose(self) -> None:
        """Close and wait until the transport is gone."""
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            pass


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

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task"] = set()

    def _link(self, reader: asyncio.StreamReader,
              writer: asyncio.StreamWriter) -> FrameLink:
        """The link for one accepted connection (no deadlines)."""
        return FrameLink(reader, writer)

    async def _serve(self, link: FrameLink) -> None:
        raise NotImplementedError

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._track(asyncio.current_task())
        link = self._link(reader, writer)
        try:
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
        except asyncio.CancelledError:
            # Only :meth:`stop` cancels this task, wherever it stands —
            # serving or already winding down.  It ends normally: on
            # Python < 3.12 asyncio's own done-callback for this
            # coroutine calls ``task.exception()``, which on a cancelled
            # task raises into the loop's exception handler.
            link.close()

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _spawn(self, coro) -> None:
        """A background task that lives until it ends or :meth:`stop`."""
        self._track(asyncio.ensure_future(coro))

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
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
