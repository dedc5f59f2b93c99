"""Node supervision: restart dead backends, resync them, readmit them.

The :class:`~repro.service.cluster.ClusterRouter` *detects* failure and
routes around it; this module *repairs* it.  A :class:`NodeSupervisor`
watches the router's health view and, for each dead node:

1. **restarts** the backend process from its latest registry snapshot
   (crash-safe by construction — see ``SessionRegistry.snapshot``), via
   a pluggable node manager (:class:`ThreadNodeManager` for in-process
   tests, :class:`ProcessNodeManager` for real ``python -m
   repro.service`` subprocesses);
2. **resyncs** the update tail the node missed while dead — hinted
   handoff, with the peer replicas' own logs as the hint store: per
   dataset, the node's update count (from an ``H_PING`` probe) indexes
   straight into a live peer's log (replica logs are prefixes of the
   single writer's sequence), and the missed ``(vector, key, delta)``
   tail streams over as ordinary replay/update frames;
3. **readmits** the node through :meth:`~repro.service.cluster.
   RouterHandle.readmit`, which re-marks each dataset in-sync only when
   the counts still match with no fan-out in flight — the supervisor
   keeps pulling tails until the router reports no lag.

All supervisor traffic uses the same public wire protocol clients use:
no back door into a node's state, so the repair path is exercised on
real frames and works identically for thread- and process-backed nodes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.field.modular import PrimeField
from repro.service import protocol as sp
from repro.service.cluster import PROBE_TIMEOUT
from repro.service.server import ProverServer
from repro.service.transport import BlockingFrameLink

#: Resync-then-readmit attempts per heal before giving up (a busy writer
#: can keep a node lagging for a round or two; it cannot starve it
#: forever because each round closes the whole gap observed at its
#: start).
HEAL_ROUNDS = 20

_log = obs.get_logger("service.supervisor")


class SupervisorError(RuntimeError):
    """A repair step failed in a way retrying will not fix."""


# -- wire helpers --------------------------------------------------------------
#
# Blocking, single-purpose conversations (the supervisor has no latency
# budget worth an event loop): dial, speak, hang up.


def probe_node(address: Tuple[str, int], field: PrimeField
               ) -> Optional[Tuple[Dict[str, int], Dict[int, Tuple[int, int]]]]:
    """One H_PING round-trip: ``(counters, {dataset: (u, n_updates)})``,
    or ``None`` if the node is unreachable or answers garbage."""
    try:
        with BlockingFrameLink.dial(address, PROBE_TIMEOUT) as link:
            frame_type, _s, _h, payload = link.request(
                sp.pack_frame(sp.H_PING, 0)
            )
            if frame_type != sp.H_STATUS:
                return None
            return sp.parse_status(field, payload)
    except (OSError, sp.ServiceProtocolError):
        return None


def _open_session(link: BlockingFrameLink, field: PrimeField, u: int,
                  dataset_id: int, peer: str) -> Tuple[int, bytes]:
    """HELLO on a throwaway resync session: ``(session id, ack payload)``."""
    frame_type, session_id, _h, payload = link.request(
        sp.pack_frame(sp.T_HELLO, 0, sp.hello_payload(field, u, dataset_id))
    )
    if frame_type != sp.T_HELLO_ACK:
        raise SupervisorError(
            "%s refused a resync session: %s"
            % (peer, sp.parse_error(payload) if frame_type == sp.T_ERROR
               else "frame 0x%02x" % frame_type)
        )
    return session_id, payload


def pull_tail(address: Tuple[str, int], field: PrimeField, u: int,
              dataset_id: int, start: int,
              timeout: float = 10.0) -> List[bytes]:
    """The missed tail of a dataset's log from a peer replica.

    Opens a throwaway session, replays from ``start`` and returns the
    raw word payloads of the T_REPLAY_DATA frames — each one is already
    a valid T_UPDATES payload (``[vector, k1, d1, ...]``), so
    :func:`push_tail` forwards them verbatim.
    """
    with BlockingFrameLink.dial(address, timeout) as link:
        session_id, _ack = _open_session(link, field, u, dataset_id,
                                         "peer %s:%d" % address)
        link.send(sp.pack_frame(
            sp.T_REPLAY_REQUEST, session_id,
            sp.words_payload(field, [start]),
        ))
        blocks: List[bytes] = []
        while True:
            frame_type, _s, _h, payload = link.read_frame()
            if frame_type == sp.T_REPLAY_END:
                break
            if frame_type != sp.T_REPLAY_DATA:
                raise SupervisorError(
                    "unexpected frame 0x%02x during tail pull" % frame_type
                )
            blocks.append(payload)
        link.request(sp.pack_frame(sp.T_BYE, session_id))
        return blocks


def push_tail(address: Tuple[str, int], field: PrimeField, u: int,
              dataset_id: int, blocks: List[bytes],
              timeout: float = 10.0) -> int:
    """Apply pulled tail blocks to the recovering node; returns its new
    update count for that dataset."""
    with BlockingFrameLink.dial(address, timeout) as link:
        session_id, payload = _open_session(link, field, u, dataset_id,
                                            "node %s:%d" % address)
        words = sp.parse_words(field, payload)
        total = words[0] if words else 0
        for block in blocks:
            frame_type, _s, _h, payload = link.request(
                sp.pack_frame(sp.T_UPDATES, session_id, block)
            )
            if frame_type != sp.T_UPDATES_ACK:
                raise SupervisorError(
                    "node %s:%d rejected a resync block: %s"
                    % (address[0], address[1],
                       sp.parse_error(payload)
                       if frame_type == sp.T_ERROR else "?")
                )
            ack = sp.parse_words(field, payload)
            total = ack[0] if ack else total
        link.request(sp.pack_frame(sp.T_BYE, session_id))
        return total


# -- node managers -------------------------------------------------------------


class ThreadNodeManager:
    """Backends as in-process daemon-thread servers (the test harness).

    A *kill* drops the server thread and the in-memory registry with it
    — the crash model — so a restart recovers only what the node's
    latest snapshot (``<snapshot_dir>/node-<id>.json``) preserved; the
    rest must come back through peer resync, exactly as for a real
    process.
    """

    def __init__(self, field: PrimeField,
                 snapshot_dir: Optional[str] = None,
                 server_kwargs: Optional[Dict] = None):
        self.field = field
        self.snapshot_dir = snapshot_dir
        self.server_kwargs = dict(server_kwargs or {})
        self._handles: Dict[str, object] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}

    def snapshot_path(self, node_id: str) -> Optional[str]:
        if self.snapshot_dir is None:
            return None
        return os.path.join(self.snapshot_dir, "node-%s.json" % node_id)

    def add_node(self, node_id: str) -> Tuple[str, int]:
        if node_id in self._handles:
            raise ValueError("node %r already managed" % node_id)
        kwargs = dict(self.server_kwargs)
        kwargs.setdefault("node_name", node_id)
        server = ProverServer(self.field, **kwargs)
        handle = server.serve_in_thread()
        self._handles[node_id] = handle
        self._addresses[node_id] = handle.address
        return handle.address

    def address(self, node_id: str) -> Tuple[str, int]:
        return self._addresses[node_id]

    def running(self, node_id: str) -> bool:
        return self._handles.get(node_id) is not None

    def handle(self, node_id: str):
        return self._handles[node_id]

    def snapshot(self, node_id: str) -> str:
        path = self.snapshot_path(node_id)
        if path is None:
            raise SupervisorError("no snapshot directory configured")
        return self._handles[node_id].snapshot(path)

    def kill(self, node_id: str) -> None:
        handle = self._handles.get(node_id)
        if handle is not None:
            handle.stop()
            self._handles[node_id] = None

    def restart(self, node_id: str) -> Tuple[str, int]:
        if self._handles.get(node_id) is not None:
            return self._addresses[node_id]
        path = self.snapshot_path(node_id)
        kwargs = dict(self.server_kwargs)
        kwargs.setdefault("node_name", node_id)
        if path is not None and os.path.exists(path):
            server = ProverServer.from_snapshot(path, self.field,
                                                **kwargs)
        else:
            server = ProverServer(self.field, **kwargs)
        handle = server.serve_in_thread()
        self._handles[node_id] = handle
        self._addresses[node_id] = handle.address
        return handle.address

    def stop_all(self) -> None:
        for node_id, handle in list(self._handles.items()):
            if handle is not None:
                handle.stop()
                self._handles[node_id] = None


class ProcessNodeManager:
    """Backends as real ``python -m repro.service`` subprocesses.

    Each node announces its bound port on stdout (``REPRO-SERVICE
    LISTENING <host> <port>``); a kill is a SIGKILL — no goodbye, no
    final snapshot — so recovery exercises the same snapshot + resync
    path production would.
    """

    ANNOUNCE = "REPRO-SERVICE LISTENING"

    def __init__(self, field: PrimeField,
                 snapshot_dir: Optional[str] = None,
                 extra_args: Optional[List[str]] = None,
                 start_timeout: float = 30.0):
        self.field = field
        self.snapshot_dir = snapshot_dir
        self.extra_args = list(extra_args or [])
        self.start_timeout = start_timeout
        self._procs: Dict[str, Optional[subprocess.Popen]] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}

    def snapshot_path(self, node_id: str) -> Optional[str]:
        if self.snapshot_dir is None:
            return None
        return os.path.join(self.snapshot_dir, "node-%s.json" % node_id)

    def _spawn(self, node_id: str) -> Tuple[str, int]:
        args = [
            sys.executable, "-m", "repro.service",
            "--host", "127.0.0.1", "--port", "0",
            "--field-p", str(self.field.p),
            "--node-name", node_id,
        ]
        path = self.snapshot_path(node_id)
        if path is not None:
            args += ["--snapshot", path]
        args += self.extra_args
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        deadline = time.monotonic() + self.start_timeout
        while True:
            line = proc.stdout.readline()
            if not line:
                raise SupervisorError(
                    "node %r exited before announcing its port (rc=%r)"
                    % (node_id, proc.poll())
                )
            if line.startswith(self.ANNOUNCE):
                _label, host, port = line.rsplit(None, 2)
                address = (host, int(port))
                break
            if time.monotonic() > deadline:
                proc.kill()
                raise SupervisorError(
                    "node %r took too long to start" % node_id
                )
        self._procs[node_id] = proc
        self._addresses[node_id] = address
        return address

    def add_node(self, node_id: str) -> Tuple[str, int]:
        if node_id in self._procs:
            raise ValueError("node %r already managed" % node_id)
        return self._spawn(node_id)

    def address(self, node_id: str) -> Tuple[str, int]:
        return self._addresses[node_id]

    def running(self, node_id: str) -> bool:
        proc = self._procs.get(node_id)
        return proc is not None and proc.poll() is None

    def snapshot(self, node_id: str) -> str:
        # A subprocess node snapshots itself (--snapshot-interval); the
        # manager only knows where the file lands.
        path = self.snapshot_path(node_id)
        if path is None:
            raise SupervisorError("no snapshot directory configured")
        return path

    def kill(self, node_id: str) -> None:
        proc = self._procs.get(node_id)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        self._procs[node_id] = None

    def restart(self, node_id: str) -> Tuple[str, int]:
        if self.running(node_id):
            return self._addresses[node_id]
        return self._spawn(node_id)

    def stop_all(self) -> None:
        for node_id in list(self._procs):
            self.kill(node_id)


# -- the supervisor ------------------------------------------------------------


class NodeSupervisor:
    """Heals dead cluster nodes: restart, resync, readmit.

    Parameters
    ----------
    router:
        The cluster's :class:`~repro.service.cluster.RouterHandle`.
    manager:
        A node manager owning the backend processes (thread- or
        process-backed; the supervisor only uses its small protocol:
        ``address/running/restart/snapshot_path``).
    field:
        The cluster field (resync frames are word-encoded in it).
    """

    def __init__(self, router, manager, field: PrimeField,
                 poll_interval: float = 0.2,
                 update_router_address: bool = True):
        self.router = router
        self.manager = manager
        self.field = field
        self.poll_interval = poll_interval
        #: When the router dials nodes directly, a restarted node's new
        #: port must propagate into the routing table at readmission.
        #: Set False when the router routes through stable per-node
        #: addresses (e.g. chaos proxies) that must not be overwritten
        #: with the backend's real address.
        self.update_router_address = update_router_address
        self.restarts = 0
        self.resyncs = 0
        self.heals = 0
        #: Nodes whose last heal ended with sync holes remaining: the
        #: first readmission round marks a node alive (its synced
        #: datasets rejoin the fan-out immediately), so a node can be
        #: routable yet still lagging on busy datasets — it stays on
        #: this list and keeps getting resync passes until no lag is
        #: left, rather than being forgotten the moment it turns alive.
        self._lagging: set = set()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one healing pass ----------------------------------------------------

    def check_once(self) -> Dict[str, bool]:
        """Heal every currently-dead node; ``{node id: healed?}``.

        One node's failed heal (e.g. its resync peer died mid-pull) must
        not block the others — healing *them* is often exactly what
        unblocks it on the next pass.
        """
        results = {}
        for node_id, state in self.router.health_view().items():
            if state == "dead" or node_id in self._lagging:
                try:
                    results[node_id] = self.heal(node_id)
                except (OSError, SupervisorError):
                    results[node_id] = False
                if results[node_id]:
                    self._lagging.discard(node_id)
                else:
                    self._lagging.add(node_id)
        return results

    def heal(self, node_id: str) -> bool:
        """Restart (if down), resync (if lagging), readmit one node."""
        manager = self.manager
        heal_t0 = time.perf_counter()
        if not manager.running(node_id):
            manager.restart(node_id)
            self.restarts += 1
            obs.counter("repro_supervisor_restarts_total").inc()
            _log.info("node.restarted", node=node_id)
        address = manager.address(node_id)

        for _round in range(HEAL_ROUNDS):
            probed = probe_node(address, self.field)
            if probed is None:
                return False  # restarted and still unreachable
            _counters, inventory = probed
            counts = {
                dataset_id: n_updates
                for dataset_id, (_u, n_updates) in inventory.items()
            }
            # Close the gap the router currently sees, dataset by
            # dataset, pulling each tail from a live in-sync peer.
            for dataset_id, (u, router_count) in sorted(
                self.router.assigned_datasets(node_id).items()
            ):
                have = counts.get(dataset_id, 0)
                if have >= router_count:
                    continue
                counts[dataset_id] = self._resync_dataset(
                    node_id, address, dataset_id, u, have
                )
            lag = self.router.readmit(
                node_id, counts,
                address=address if self.update_router_address else None,
            )
            if not lag:
                self.heals += 1
                obs.counter("repro_supervisor_heals_total").inc()
                heal_seconds = time.perf_counter() - heal_t0
                obs.histogram("repro_supervisor_heal_seconds").observe(
                    heal_seconds)
                _log.info("node.healed", node=node_id,
                          rounds=_round + 1, seconds=heal_seconds)
                return True
            # Updates landed while this round ran; go around again.
        _log.warning("node.heal_incomplete", node=node_id,
                     rounds=HEAL_ROUNDS)
        return False

    def _resync_dataset(self, node_id: str, address: Tuple[str, int],
                        dataset_id: int, u: int, have: int) -> int:
        sources = self.router.sync_sources(dataset_id, exclude=node_id)
        if not sources:
            raise SupervisorError(
                "dataset %d has no live in-sync peer to resync node %r "
                "from" % (dataset_id, node_id)
            )
        last_error: Optional[Exception] = None
        for source in sources:
            peer = self.manager.address(source)
            try:
                blocks = pull_tail(peer, self.field, u, dataset_id, have)
                total = push_tail(address, self.field, u, dataset_id,
                                  blocks)
                self.resyncs += 1
                obs.counter("repro_supervisor_resyncs_total").inc()
                _log.info("dataset.resynced", node=node_id,
                          dataset=dataset_id, source=source,
                          blocks=len(blocks), total=total)
                return total
            except (OSError, sp.ServiceProtocolError,
                    SupervisorError) as exc:
                last_error = exc
        raise SupervisorError(
            "every peer failed while resyncing dataset %d onto node %r: %s"
            % (dataset_id, node_id, last_error)
        )

    # -- background loop -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.poll_interval):
                try:
                    self.check_once()
                except (OSError, SupervisorError, KeyError):
                    # A heal that races a test's teardown (or a node
                    # dying mid-repair) retries on the next tick.
                    pass

        self._thread = threading.Thread(target=run,
                                        name="repro-node-supervisor",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None
