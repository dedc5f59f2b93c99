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
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.service import protocol as sp
from repro.service.transport import FrameLink, FrameListener, ListenerHandle

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

    Base class passes everything; subclass it, or use :meth:`scripted`
    for an explicit ``{global frame index: Fault}`` plan (each entry
    fires **once**, so a retried frame passes) or
    :class:`SeededSchedule` for pseudo-random faults at a rate.
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
    concurrent sessions cannot shift it.
    """

    def __init__(self, seed: int, rate: float, kinds: Tuple[str, ...],
                 delay: float, stall: float):
        if not kinds:
            raise ValueError("a seeded schedule needs at least one kind")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.delay = delay
        self.stall = stall

    def decide(self, direction, index, global_index, frame_type):
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


class ProxyHandle(ListenerHandle):
    """A running threaded proxy: address, retarget and stop."""

    @property
    def proxy(self) -> "ChaosProxy":
        return self.listener

    def retarget(self, upstream_port: int) -> None:
        """Point new upstream connections at a different port (the
        restart-behind-a-stable-address scenario)."""
        self.proxy.upstream_port = upstream_port


class ChaosProxy(FrameListener):
    """A frame-level TCP proxy with a fault schedule.

    Clients connect to the proxy's address instead of the server's; the
    proxy dials :attr:`upstream_port` per connection — mutable, so a
    test can restart the upstream server (snapshot/restore) behind a
    stable client-facing address and watch the client reconnect through.
    """

    handle_class = ProxyHandle
    thread_name = "repro-chaos-proxy"

    def __init__(self, upstream_host: str, upstream_port: int,
                 schedule: Optional[FaultSchedule] = None,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.schedule = schedule or FaultSchedule()
        #: Frames relayed per direction, and overall (fault coordinates).
        self.frames: Dict[str, int] = {C2S: 0, S2C: 0}
        self.global_frames = 0
        self.faults_injected = 0
        self.connections = 0

    # -- relaying ------------------------------------------------------------

    async def _serve(self, client: FrameLink) -> None:
        if not self.schedule.accepting():
            # The node behind this proxy is playing dead: refuse the
            # dial the way a crashed process would.
            return
        self.connections += 1
        try:
            upstream = await FrameLink.dial(self.upstream_host,
                                            self.upstream_port)
        except OSError:
            return
        closing = asyncio.Event()

        def close_both() -> None:
            closing.set()
            client.close()
            upstream.close()

        try:
            await asyncio.gather(
                self._pump(client, upstream, C2S, close_both, closing),
                self._pump(upstream, client, S2C, close_both, closing),
                return_exceptions=True,
            )
        finally:
            # Also reached when ``stop`` cancels the relay: both peers
            # must see EOF before the loop goes away.
            await upstream.aclose()

    async def _pump(self, source: FrameLink, sink: FrameLink, direction,
                    close_both, closing) -> None:
        while not closing.is_set():
            try:
                frame_type, _session, header, payload = \
                    await source.read_frame()
            except (ConnectionError, OSError, sp.ServiceProtocolError):
                # The endpoint closed (or sent something the proxy cannot
                # frame-parse — e.g. raw-byte robustness tests): stop
                # relaying this direction and shut the pair down.
                close_both()
                return
            index = self.frames[direction]
            global_index = self.global_frames
            self.frames[direction] = index + 1
            self.global_frames = global_index + 1
            fault = self.schedule.decide(direction, index, global_index,
                                         frame_type)
            try:
                if fault is None:
                    await sink.send(header + payload)
                    continue
                self.faults_injected += 1
                if fault.kind == KIND_DELAY:
                    await asyncio.sleep(fault.seconds)
                    await sink.send(header + payload)
                elif fault.kind == KIND_CORRUPT:
                    # Break the header's type byte: structurally invalid
                    # at both ends, detected before any payload parse.
                    await sink.send(header[:3] + bytes([0xEE]) + header[4:]
                                    + payload)
                elif fault.kind == KIND_TRUNCATE:
                    cut = len(header) + len(payload) // 2
                    await sink.send((header + payload)[:cut])
                    close_both()
                    return
                elif fault.kind == KIND_STALL:
                    # Hold the frame past the peer's deadline, then
                    # reset — models a hung middlebox.
                    await asyncio.sleep(fault.seconds)
                    close_both()
                    return
                else:  # KIND_DROP
                    close_both()
                    return
            except (ConnectionError, OSError):
                close_both()
                return
