"""Deterministic fault injection for the service stack.

Production-database practice treats fault tolerance as a subsystem with
its own test harness, not a property hoped for: this module is the
harness.  A :class:`ChaosProxy` sits between the blocking client and the
asyncio server, relaying *frames* (it parses the same headers both ends
do) and consulting a :class:`FaultSchedule` before forwarding each one —
injecting connection drops, frame truncation, structural corruption,
delays and stalls at chosen protocol steps.

Two properties make the chaos tests sharp:

* **Determinism** — a seeded schedule decides from ``(direction, frame
  index, seed)`` only, never from wall-clock time, so a failing seed
  replays exactly;
* **Byte-identity as the oracle** — sum-check transcripts are
  deterministic given data + verifier randomness, so every recovery path
  (retry, reconnect, snapshot/restore) is asserted *byte-identical*
  against the undisturbed run, not merely "still accepted".

The proxy injects only *structural* damage (broken magic/type bytes,
truncation, resets): damage a transport layer can detect and recover
from.  Semantically valid-but-wrong words are the adversary's domain —
:mod:`repro.adversary.cheating_provers` — and must be *rejected*, not
retried; the chaos tests assert both behaviours coexist.
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, Union

from repro.service import protocol as sp
from repro.service.server import cancel_and_wait

#: Relay directions.
C2S = "c2s"  # client -> server
S2C = "s2c"  # server -> client

#: Fault kinds a schedule may emit.
KIND_DROP = "drop"          # reset both sides of the connection
KIND_TRUNCATE = "truncate"  # forward a partial frame, then reset
KIND_CORRUPT = "corrupt"    # break the frame header structurally
KIND_DELAY = "delay"        # forward late
KIND_STALL = "stall"        # go silent past the peer's deadline, then reset

ALL_KINDS = (KIND_DROP, KIND_TRUNCATE, KIND_CORRUPT, KIND_DELAY, KIND_STALL)


@dataclass(frozen=True)
class Fault:
    """One injected fault: what to do to the frame in hand."""

    kind: str
    seconds: float = 0.0  # delay/stall duration


class FaultSchedule:
    """Decides, deterministically, the fate of every relayed frame.

    Base class passes everything; subclass or use the constructors:

    * :meth:`scripted` — explicit ``{global frame index: Fault}`` plan
      (each entry fires **once**, so a retried frame passes);
    * :meth:`seeded` — pseudo-random faults at ``rate`` drawn from a
      seed, independent per (direction, index) so decisions do not shift
      with interleaving.
    """

    def decide(self, direction: str, index: int, global_index: int,
               frame_type: int) -> Optional[Fault]:
        return None

    def accepting(self) -> bool:
        """May the proxy accept *new* connections right now?

        The base schedule always says yes; :class:`BlackoutSchedule`
        says no while its node plays dead, so redials are refused the
        way a crashed process refuses them.
        """
        return True

    @staticmethod
    def scripted(plan: Dict[int, Union[Fault, str]]) -> "ScriptedSchedule":
        return ScriptedSchedule(plan)

    @staticmethod
    def seeded(seed: int, rate: float,
               kinds: Tuple[str, ...] = (KIND_DROP, KIND_TRUNCATE,
                                         KIND_CORRUPT, KIND_DELAY),
               delay: float = 0.02, stall: float = 1.0,
               skip_first: int = 0) -> "SeededSchedule":
        return SeededSchedule(seed, rate, kinds, delay, stall, skip_first)


class ScriptedSchedule(FaultSchedule):
    """Faults at exact global frame indices; each fires once."""

    def __init__(self, plan: Dict[int, Union[Fault, str]]):
        self._plan = {
            index: fault if isinstance(fault, Fault) else Fault(fault)
            for index, fault in plan.items()
        }

    def decide(self, direction, index, global_index, frame_type):
        return self._plan.pop(global_index, None)


class SeededSchedule(FaultSchedule):
    """Deterministic pseudo-random faults at a given rate.

    Every decision draws from ``hash(seed, direction, index)`` so the
    schedule is a pure function of the frame's coordinates — retries and
    concurrent sessions cannot shift it.  ``skip_first`` exempts each
    direction's opening frames (lets a session at least get through
    HELLO under high rates).
    """

    def __init__(self, seed: int, rate: float, kinds: Tuple[str, ...],
                 delay: float, stall: float, skip_first: int = 0):
        if not kinds:
            raise ValueError("a seeded schedule needs at least one kind")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.delay = delay
        self.stall = stall
        self.skip_first = skip_first

    def decide(self, direction, index, global_index, frame_type):
        if index < self.skip_first:
            return None
        rng = random.Random(
            (self.seed << 24) ^ (index << 1) ^ (direction == S2C)
        )
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        if kind == KIND_DELAY:
            return Fault(kind, self.delay)
        if kind == KIND_STALL:
            return Fault(kind, self.stall)
        return Fault(kind)


class BlackoutSchedule(FaultSchedule):
    """A node-death switch: healthy, then *gone*, then healthy again.

    Wrap each cluster backend in a :class:`ChaosProxy` carrying one of
    these and a node can be killed at an exact frame boundary — from the
    router's side indistinguishable from a crashed process (in-flight
    frames dropped, connections reset, redials refused) while the real
    server behind the proxy keeps its state, so tests control precisely
    *when* a node dies and what data it missed while dead.

    ``after_global_frame`` arms the switch on the proxy's global frame
    counter (byte-precise death mid-conversation); :meth:`blackout`
    throws it immediately; :meth:`restore` brings the node back — the
    restarted process at the same address, pending resync.
    """

    def __init__(self, after_global_frame: Optional[int] = None):
        self.after = after_global_frame
        self.active = after_global_frame is not None and \
            after_global_frame <= 0

    def accepting(self) -> bool:
        return not self.active

    def decide(self, direction, index, global_index, frame_type):
        if not self.active and self.after is not None \
                and global_index >= self.after:
            self.active = True
        return Fault(KIND_DROP) if self.active else None

    def blackout(self) -> None:
        self.active = True
        self.after = None

    def restore(self) -> None:
        self.active = False
        self.after = None


class ChaosProxy:
    """A frame-level TCP proxy with a fault schedule.

    Clients connect to the proxy's address instead of the server's; the
    proxy dials :attr:`upstream_port` per connection — mutable, so a
    test can restart the upstream server (snapshot/restore) behind a
    stable client-facing address and watch the client reconnect through.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 schedule: Optional[FaultSchedule] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.schedule = schedule or FaultSchedule()
        self.host = host
        self.port = port
        #: Frames relayed per direction, and overall (fault coordinates).
        self.frames: Dict[str, int] = {C2S: 0, S2C: 0}
        self.global_frames = 0
        self.faults_injected = 0
        self.connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        #: The running ``_handle`` tasks, so ``stop`` can end them.
        self._relays: Set["asyncio.Task[None]"] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close both ends of every relayed pair."""
        if self._server is not None:
            self._server.close()
            await cancel_and_wait(self._relays)
            await self._server.wait_closed()
            self._server = None

    def serve_in_thread(self) -> "ProxyHandle":
        started = threading.Event()
        loop_holder = {}

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop_holder["loop"] = loop
            loop.run_until_complete(self.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(target=run, name="repro-chaos-proxy",
                                  daemon=True)
        thread.start()
        started.wait()
        return ProxyHandle(self, thread, loop_holder["loop"])

    # -- relaying ------------------------------------------------------------

    async def _handle(self, client_reader: asyncio.StreamReader,
                      client_writer: asyncio.StreamWriter) -> None:
        relay = asyncio.current_task()
        self._relays.add(relay)
        writers = [client_writer]
        try:
            if not self.schedule.accepting():
                # The node behind this proxy is playing dead: refuse the
                # dial the way a crashed process would.
                return
            self.connections += 1
            try:
                upstream_reader, upstream_writer = (
                    await asyncio.open_connection(
                        self.upstream_host, self.upstream_port))
            except OSError:
                return
            writers.append(upstream_writer)
            closing = asyncio.Event()

            async def close_both() -> None:
                closing.set()
                for writer in writers:
                    try:
                        writer.close()
                    except (ConnectionError, OSError):
                        pass

            await asyncio.gather(
                self._pump(client_reader, upstream_writer, C2S, close_both,
                           closing),
                self._pump(upstream_reader, client_writer, S2C, close_both,
                           closing),
                return_exceptions=True,
            )
        finally:
            self._relays.discard(relay)
            # Also reached when ``stop`` cancels the relay: both peers
            # must see EOF before the loop goes away.
            for writer in writers:
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _pump(self, reader, writer, direction, close_both,
                    closing) -> None:
        while not closing.is_set():
            try:
                header = await reader.readexactly(sp.HEADER_LEN)
                _type, _session, length = sp.unpack_header(header)
                ext_len = sp.header_ext_len(header)
                if ext_len:
                    # Keep a version-2 frame's trace extension glued to
                    # the header so every relay below forwards it intact.
                    header += await reader.readexactly(ext_len)
                payload = (await reader.readexactly(length)
                           if length else b"")
            except (asyncio.IncompleteReadError, ConnectionError, OSError,
                    sp.ServiceProtocolError):
                # The endpoint closed (or sent something the proxy cannot
                # frame-parse — e.g. raw-byte robustness tests): stop
                # relaying this direction and shut the pair down.
                await close_both()
                return
            index = self.frames[direction]
            global_index = self.global_frames
            self.frames[direction] = index + 1
            self.global_frames = global_index + 1
            fault = self.schedule.decide(direction, index, global_index,
                                         _type)
            try:
                if fault is None:
                    writer.write(header + payload)
                    await writer.drain()
                    continue
                self.faults_injected += 1
                if fault.kind == KIND_DELAY:
                    await asyncio.sleep(fault.seconds)
                    writer.write(header + payload)
                    await writer.drain()
                elif fault.kind == KIND_CORRUPT:
                    # Break the header's type byte: structurally invalid
                    # at both ends, detected before any payload parse.
                    damaged = header[:3] + bytes([0xEE]) + header[4:]
                    writer.write(damaged + payload)
                    await writer.drain()
                elif fault.kind == KIND_TRUNCATE:
                    cut = len(header) + len(payload) // 2
                    writer.write((header + payload)[:cut])
                    await writer.drain()
                    await close_both()
                    return
                elif fault.kind == KIND_STALL:
                    # Hold the frame past the peer's deadline, then
                    # reset — models a hung middlebox.
                    await asyncio.sleep(fault.seconds)
                    await close_both()
                    return
                else:  # KIND_DROP
                    await close_both()
                    return
            except (ConnectionError, OSError):
                await close_both()
                return


class ProxyHandle:
    """A running threaded proxy: address, retarget and stop."""

    def __init__(self, proxy: ChaosProxy, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.proxy = proxy
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        return (self.proxy.host, self.proxy.port)

    def retarget(self, upstream_port: int,
                 upstream_host: Optional[str] = None) -> None:
        """Point new upstream connections at a different server (the
        restart-behind-a-stable-address scenario)."""
        if upstream_host is not None:
            self.proxy.upstream_host = upstream_host
        self.proxy.upstream_port = upstream_port

    def stop(self) -> None:
        if not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        self._thread.join(timeout=10)
