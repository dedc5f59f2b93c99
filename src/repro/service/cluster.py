"""The cluster router: one front process over N replicated prover nodes.

``ClusterRouter`` assembles PR 6's robustness building blocks into a
self-healing cluster.  It owns a consistent-hash :class:`~repro.service.
ring.HashRing` over the backend :class:`~repro.service.server.
ProverServer` nodes and speaks the ordinary service frame protocol to
clients — a :class:`~repro.service.client.ServiceClient` pointed at the
router cannot tell it from a single server, which is the point: every
client-side recovery behaviour (retries, reconnects, query re-runs on a
fresh verifier copy, replay resume) composes unchanged with cluster
failover.

Placement and replication follow the partitioned-keyspace idiom: a
dataset id hashes onto the ring and is assigned to ``replication_factor``
distinct nodes in clockwise order.  **Updates fan out synchronously to
every in-sync replica** (the client's ack covers all of them, so per
dataset — which has a single writer, the standing service assumption —
every replica log is a prefix of the writer's sequence).  **Queries are
served by the primary**: the first healthy in-sync replica in ring
order.

Failure handling:

* a heartbeat task probes every node with ``H_PING``; a missed probe
  marks it *suspect* (no new conversations routed to it), repeated
  misses or any relay error mark it *dead*;
* a dead primary mid-conversation aborts the client's connection — the
  client's retry layer reconnects, lands on the next replica in ring
  order, and re-runs its query on the next copy of its verifier pool
  (never the copy whose challenges the dead node saw), so the recovered
  transcript is byte-identical to a fault-free run on that copy;
* a dead node stops receiving the update fan-out, so its data goes
  stale; it is **not** readmitted by a mere successful probe.  The
  :class:`~repro.service.supervisor.NodeSupervisor` restarts it from its
  latest snapshot, pulls the missed update tail from a peer replica
  (hinted handoff — the peers' logs are the hint store) and only then
  calls :meth:`RouterHandle.readmit`, which re-marks each dataset
  in-sync under the router's single-threaded loop with no fan-out in
  flight — closing the race between "counts matched" and "node rejoins
  the fan-out".

Per-dataset sync state (rather than a single node-level flag) keeps
readmission incremental: a recovering node rejoins dataset by dataset as
each one quiesces, instead of waiting for a global quiet moment that a
busy cluster never reaches.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.field.modular import PrimeField
from repro.service import protocol as sp
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.service.transport import (
    Frame,
    FrameLink,
    FrameListener,
    ListenerHandle,
    frame_trace,
)

_log = obs.get_logger("service.cluster")

#: Node health states.
NODE_ALIVE = "alive"      # routable, receives fan-out
NODE_SUSPECT = "suspect"  # receives fan-out, but no *new* conversations
NODE_DEAD = "dead"        # out of everything until supervisor readmission

#: Seconds a heartbeat probe waits for a node to dial and answer.
PROBE_TIMEOUT = 2.0
#: Missed probes before a suspect node is declared dead.  Any relay
#: error or refused dial kills it immediately.
DEAD_AFTER = 2

#: Errors that mean "this backend just failed us".
_BACKEND_ERRORS = (
    asyncio.TimeoutError,
    ConnectionError,
    OSError,
    sp.ServiceProtocolError,
)


@dataclass
class ClusterNode:
    """One backend's identity and routing address.

    The address is where the *router* dials the node — in chaos tests
    that is a per-node :class:`~repro.service.faults.ChaosProxy`, so a
    node can be killed at an exact frame boundary while the supervisor
    still reaches the real process for resync.
    """

    node_id: str
    host: str
    port: int


class _Health:
    def __init__(self) -> None:
        self.state = NODE_ALIVE
        self.missed = 0
        self.probes_ok = 0
        self.probes_failed = 0
        #: Incarnation counter, bumped at every readmission: a relay
        #: error on a link dialed in an *earlier* incarnation says
        #: nothing about the restarted node, so it aborts only its own
        #: conversation instead of re-killing a freshly healed backend.
        self.epoch = 0


class _DatasetMeta:
    """The router's authoritative view of one dataset."""

    def __init__(self, u: int, updates: int) -> None:
        self.u = u
        #: Update-log length on every in-sync replica (the router acks a
        #: client block only after all of them applied it).
        self.updates = updates
        #: Fan-outs currently in flight; readmission for this dataset
        #: waits for zero so no straddling block can slip past a count
        #: comparison.
        self.inflight = 0


class _PrimaryDown(Exception):
    """The conversation's primary failed; abort and let the client retry."""


class RouterHandle(ListenerHandle):
    """A running threaded router: address, health view, readmission."""

    @property
    def router(self) -> "ClusterRouter":
        return self.listener

    def health_view(self) -> Dict[str, str]:
        """``{node id: state}`` as of now."""
        return {
            node_id: health.state
            for node_id, health in self.router.health.items()
        }

    def assigned_datasets(self, node_id: str) -> Dict[int, Tuple[int, int]]:
        """``{dataset id: (u, router update count)}`` the ring puts on
        a node — the supervisor's resync work list."""
        return {
            dataset_id: (meta.u, meta.updates)
            for dataset_id, meta in self.router.datasets.items()
            if node_id in self.router.replicas(dataset_id)
        }

    def sync_sources(self, dataset_id: int,
                     exclude: str) -> List[str]:
        """In-sync live replicas a recovering node can pull a tail from."""
        router = self.router
        meta = router.datasets.get(dataset_id)
        return [
            node_id
            for node_id in router.replicas(dataset_id)
            if node_id != exclude
            and router.health[node_id].state != NODE_DEAD
            and (meta is None or meta.updates == 0
                 or dataset_id in router.synced[node_id])
        ]

    def mark_dead(self, node_id: str) -> None:
        """Declare a node dead (tests; the relay path does it itself)."""
        self._loop.call_soon_threadsafe(self.router._node_failed, node_id)

    def readmit(self, node_id: str, counts: Dict[int, int],
                address: Optional[Tuple[str, int]] = None
                ) -> Dict[int, Tuple[int, int]]:
        """Attempt readmission; returns still-lagging datasets (empty =
        the node is fully back in the replica set)."""
        return self._run(self.router._readmit(node_id, counts, address))

    def stats(self) -> Dict[str, int]:
        return self.router.stats()


class ClusterRouter(FrameListener):
    """Consistent-hash front process over replicated prover backends.

    Parameters
    ----------
    field:
        The cluster-wide prime field (used to encode router-originated
        frames; backends validate the client's field themselves).
    nodes:
        The backend membership.  All start ``alive``; health checks take
        it from there.
    replication_factor:
        Replicas per dataset (capped at the node count).
    heartbeat_interval:
        Seconds between ``H_PING`` probe rounds; ``None`` disables the
        prober (tests that want deterministic frame counts detect death
        through relay errors alone).  ``DEAD_AFTER`` missed probes
        declare a suspect node dead.
    backend_timeout:
        Deadline on every router-to-backend operation.
    """

    handle_class = RouterHandle
    thread_name = "repro-cluster-router"

    def __init__(self, field: PrimeField, nodes: Sequence[ClusterNode],
                 replication_factor: int = 2,
                 vnodes: int = DEFAULT_VNODES,
                 heartbeat_interval: Optional[float] = 0.25,
                 backend_timeout: float = 10.0,
                 host: str = "127.0.0.1", port: int = 0):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        super().__init__(host, port)
        self.field = field
        self.nodes: Dict[str, ClusterNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ValueError("duplicate node id %r" % node.node_id)
            self.nodes[node.node_id] = node
        self.replication_factor = min(replication_factor, len(self.nodes))
        self.ring = HashRing(sorted(self.nodes), vnodes=vnodes)
        self.health: Dict[str, _Health] = {
            node_id: _Health() for node_id in self.nodes
        }
        #: Datasets each node is known in-sync for (receives fan-out,
        #: may serve as primary).  Cleared on death; repopulated one
        #: dataset at a time by supervisor readmission.
        self.synced: Dict[str, Set[int]] = {
            node_id: set() for node_id in self.nodes
        }
        self.datasets: Dict[int, _DatasetMeta] = {}
        self.heartbeat_interval = heartbeat_interval
        self.backend_timeout = backend_timeout
        #: Client conversations aborted by a primary failure (each one
        #: is a mid-conversation failover: the client's retry lands on a
        #: replica).
        self.failovers = 0
        #: Mirror fan-out legs dropped on a node failure.
        self.fanout_errors = 0
        self.connections = 0

    # -- placement -----------------------------------------------------------

    @staticmethod
    def _key(dataset_id: int) -> str:
        return "dataset:%d" % dataset_id

    def replicas(self, dataset_id: int) -> List[str]:
        """Ring-assigned replica node ids for a dataset, failover order."""
        return self.ring.replicas(self._key(dataset_id),
                                  self.replication_factor)

    def _eligible(self, node_id: str, dataset_id: int,
                  state: str) -> bool:
        if self.health[node_id].state != state:
            return False
        meta = self.datasets.get(dataset_id)
        if meta is None or meta.updates == 0:
            # A dataset with no data yet needs no resync anywhere.
            return True
        return dataset_id in self.synced[node_id]

    def _pick_primary(self, dataset_id: int,
                      replicas: Sequence[str]) -> Optional[str]:
        for state in (NODE_ALIVE, NODE_SUSPECT):
            for node_id in replicas:
                if self._eligible(node_id, dataset_id, state):
                    return node_id
        return None

    def _ensure_dataset(self, dataset_id: int, u: int, ack_updates: int,
                        replicas: Sequence[str],
                        primary_id: str) -> _DatasetMeta:
        meta = self.datasets.get(dataset_id)
        if meta is None:
            meta = self.datasets[dataset_id] = _DatasetMeta(u, ack_updates)
            if ack_updates == 0:
                # Born empty under this router: every live replica sees
                # the stream from update zero, so all start in sync.
                for node_id in replicas:
                    if self.health[node_id].state != NODE_DEAD:
                        self.synced[node_id].add(dataset_id)
            else:
                # Pre-router data: only the node that reported it is
                # known good; peers join via supervisor resync.
                self.synced[primary_id].add(dataset_id)
        else:
            if ack_updates > meta.updates:
                meta.updates = ack_updates
            self.synced[primary_id].add(dataset_id)
        return meta

    # -- health --------------------------------------------------------------

    def _node_failed(self, node_id: str) -> None:
        """A relay error or refused dial: the node is dead *now*."""
        health = self.health[node_id]
        if health.state != NODE_DEAD:
            health.state = NODE_DEAD
            health.missed = DEAD_AFTER
            # Out of the fan-out, so its data goes stale immediately:
            # forget every sync mark; only readmission restores them.
            self.synced[node_id].clear()
            obs.counter("repro_cluster_health_transitions_total",
                        to=NODE_DEAD).inc()
            _log.warning("node.dead", node=node_id, epoch=health.epoch)

    async def _probe(self, node: ClusterNode) -> bool:
        try:
            link = await FrameLink.dial(node.host, node.port,
                                        PROBE_TIMEOUT)
        except _BACKEND_ERRORS:
            return False
        try:
            frame_type, _s, _h, _p = await link.request(
                sp.pack_frame(sp.H_PING, 0)
            )
            return frame_type == sp.H_STATUS
        except _BACKEND_ERRORS:
            return False
        finally:
            await link.aclose()

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for node_id, node in list(self.nodes.items()):
                health = self.health[node_id]
                if health.state == NODE_DEAD:
                    continue  # the supervisor owns dead nodes
                if await self._probe(node):
                    health.probes_ok += 1
                    health.missed = 0
                    # A suspect that answers again never left the
                    # fan-out, so no data was missed: plain revival.
                    if health.state != NODE_ALIVE:
                        obs.counter(
                            "repro_cluster_health_transitions_total",
                            to=NODE_ALIVE).inc()
                        _log.info("node.revived", node=node_id)
                    health.state = NODE_ALIVE
                else:
                    health.probes_failed += 1
                    health.missed += 1
                    if health.missed >= DEAD_AFTER:
                        self._node_failed(node_id)
                    else:
                        if health.state != NODE_SUSPECT:
                            obs.counter(
                                "repro_cluster_health_transitions_total",
                                to=NODE_SUSPECT).inc()
                            _log.warning("node.suspect", node=node_id,
                                         missed=health.missed)
                        health.state = NODE_SUSPECT

    # -- readmission ---------------------------------------------------------

    async def _readmit(self, node_id: str, counts: Dict[int, int],
                       address: Optional[Tuple[str, int]] = None
                       ) -> Dict[int, Tuple[int, int]]:
        """Supervisor entry point: try to bring a node back.

        ``counts`` is the node's per-dataset update count after the
        supervisor's tail resync.  Runs on the router loop; for each
        ring-assigned dataset with **no fan-out in flight**, the count
        comparison and the sync flag flip happen with no ``await``
        between them, so a block can neither slip past the check nor
        double-apply.  Returns the still-lagging datasets as
        ``{dataset id: (u, router count)}`` — empty means fully
        readmitted.
        """
        if node_id not in self.nodes:
            raise KeyError("unknown node %r" % node_id)
        if address is not None:
            self.nodes[node_id].host, self.nodes[node_id].port = address
        lag: Dict[int, Tuple[int, int]] = {}
        synced = self.synced[node_id]
        for dataset_id, meta in self.datasets.items():
            if node_id not in self.replicas(dataset_id):
                continue
            if dataset_id in synced:
                continue
            if meta.inflight or counts.get(dataset_id, 0) != meta.updates:
                lag[dataset_id] = (meta.u, meta.updates)
                continue
            synced.add(dataset_id)
        health = self.health[node_id]
        if health.state != NODE_ALIVE:
            # A new incarnation only at the dead-to-alive flip: repeat
            # readmissions of an already-live node (the supervisor
            # closing remaining sync holes) are the same incarnation.
            health.epoch += 1
            obs.counter("repro_cluster_health_transitions_total",
                        to=NODE_ALIVE).inc()
        health.state = NODE_ALIVE
        health.missed = 0
        _log.info("node.readmitted", node=node_id, epoch=health.epoch,
                  lagging=sorted(lag))
        return lag

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.heartbeat_interval is not None:
            self._spawn(self._heartbeat_loop())

    # -- statistics ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        states = [h.state for h in self.health.values()]
        return {
            "nodes": len(self.nodes),
            "alive": states.count(NODE_ALIVE),
            "suspect": states.count(NODE_SUSPECT),
            "dead": states.count(NODE_DEAD),
            "datasets": len(self.datasets),
            "failovers": self.failovers,
            "fanout_errors": self.fanout_errors,
            "connections": self.connections,
        }

    # -- the client conversation ---------------------------------------------

    def _router_status_frame(self) -> bytes:
        inventory = [
            (dataset_id, meta.u, meta.updates)
            for dataset_id, meta in sorted(self.datasets.items())
        ]
        return sp.pack_frame(
            sp.H_STATUS, 0,
            sp.status_payload(self.field, self.connections, 0, 0, inventory),
        )

    async def _serve(self, link: FrameLink) -> None:
        self.connections += 1
        conversation = _Conversation(self)
        try:
            await conversation.run(link)
        except _PrimaryDown:
            self.failovers += 1
            obs.counter("repro_cluster_failovers_total").inc()
            _log.warning("cluster.failover",
                         primary=conversation.primary_id,
                         dataset=conversation.dataset_id)
        finally:
            await conversation.close()


class _Conversation:
    """One client connection relayed onto one primary + its mirrors."""

    def __init__(self, router: ClusterRouter):
        self.router = router
        self.primary_id: Optional[str] = None
        self.primary: Optional[FrameLink] = None
        self.primary_epoch = 0
        #: node id -> (link, mirror session id, node epoch at dial);
        #: opened lazily so a replica readmitted mid-conversation joins
        #: at its next block.
        self.mirrors: Dict[str, Tuple[FrameLink, int, int]] = {}
        self.dataset_id: Optional[int] = None
        self.hello_payload = b""
        self.meta: Optional[_DatasetMeta] = None
        self.replica_ids: List[str] = []

    async def close(self) -> None:
        if self.primary is not None:
            await self.primary.aclose()
        for link, _session, _epoch in self.mirrors.values():
            await link.aclose()
        self.mirrors.clear()

    # -- primary plumbing ----------------------------------------------------

    def _primary_failed(self) -> None:
        if self.primary_id is not None and \
                self.router.health[self.primary_id].epoch \
                == self.primary_epoch:
            self.router._node_failed(self.primary_id)
        raise _PrimaryDown()

    async def _primary_request(self, frame: bytes) -> Frame:
        try:
            return await self.primary.request(frame)
        except _BACKEND_ERRORS:
            self._primary_failed()

    # -- conversation --------------------------------------------------------

    async def run(self, client: FrameLink) -> None:
        router = self.router
        frame_type, _session, header, payload = await client.read_frame()
        if frame_type == sp.H_PING:
            await client.send(router._router_status_frame())
            return
        if frame_type == sp.H_STATS:
            stats = {
                "node": "router",
                "metrics": obs.get_registry().snapshot(),
                "router": {
                    "failovers": router.failovers,
                    "fanout_errors": router.fanout_errors,
                    "health": {node_id: health.state
                               for node_id, health
                               in sorted(router.health.items())},
                },
            }
            await client.send(sp.pack_frame(
                sp.H_STATS_REPLY, 0,
                json.dumps(stats, sort_keys=True).encode("utf-8"),
            ))
            return
        if frame_type != sp.T_HELLO:
            await client.send_error(
                0, "a cluster conversation opens with HELLO", sp.E_GENERIC)
            return

        _p, u, dataset_id = sp.parse_hello(payload)
        self.dataset_id = dataset_id
        self.hello_payload = payload
        self.replica_ids = router.replicas(dataset_id)
        self.primary_id = router._pick_primary(dataset_id, self.replica_ids)
        if self.primary_id is None:
            # Every replica is down: a clean, retryable refusal — the
            # client backs off while the supervisor restores a node.
            await client.send_error(
                0, "no live replica for dataset %d; retry after backoff"
                % dataset_id, sp.E_BUSY)
            return

        node = router.nodes[self.primary_id]
        self.primary_epoch = router.health[self.primary_id].epoch
        try:
            self.primary = await FrameLink.dial(
                node.host, node.port, router.backend_timeout
            )
        except _BACKEND_ERRORS:
            self._primary_failed()
        reply_type, _rs, reply_header, reply_payload = \
            await self._primary_request(header + payload)
        await client.send(reply_header + reply_payload)
        if reply_type != sp.T_HELLO_ACK:
            return
        ack_words = sp.parse_words(router.field, reply_payload)
        self.meta = router._ensure_dataset(
            dataset_id, u, ack_words[0] if ack_words else 0,
            self.replica_ids, self.primary_id,
        )

        while True:
            frame_type, _session, header, payload = \
                await client.read_frame()
            if frame_type == sp.T_UPDATES:
                await self._fanout_updates(client, header, payload)
            elif frame_type == sp.T_REPLAY_REQUEST:
                await self._relay_replay(client, header, payload)
            elif frame_type == sp.T_BYE:
                try:
                    _t, _s, rh, rp = await self.primary.request(
                        header + payload
                    )
                    await client.send(rh + rp)
                except _BACKEND_ERRORS:
                    pass  # the session is over either way
                return
            else:
                _t, _s, rh, rp = await self._primary_request(header + payload)
                await client.send(rh + rp)

    async def _relay_replay(self, client: FrameLink, header: bytes,
                            payload: bytes) -> None:
        """Replay is the one multi-frame reply: relay until END/ERROR."""
        try:
            await self.primary.send(header + payload)
        except _BACKEND_ERRORS:
            self._primary_failed()
        while True:
            try:
                frame_type, _s, rh, rp = await self.primary.read_frame()
            except _BACKEND_ERRORS:
                self._primary_failed()
            await client.send(rh + rp)
            if frame_type in (sp.T_REPLAY_END, sp.T_ERROR):
                break

    # -- replication ---------------------------------------------------------

    async def _open_mirror(self, node_id: str,
                           trace: Optional[Tuple[int, int]] = None
                           ) -> Tuple[FrameLink, int, int]:
        node = self.router.nodes[node_id]
        epoch = self.router.health[node_id].epoch
        link = await FrameLink.dial(node.host, node.port,
                                    self.router.backend_timeout)
        try:
            frame_type, session_id, _h, _p = await link.request(
                sp.pack_frame(sp.T_HELLO, 0, self.hello_payload,
                              trace=trace)
            )
        except _BACKEND_ERRORS:
            link.close()
            raise
        if frame_type != sp.T_HELLO_ACK:
            link.close()
            raise sp.ServiceProtocolError(
                "mirror %s refused the session" % node_id
            )
        return link, session_id, epoch

    async def _fanout_updates(self, client: FrameLink, header: bytes,
                              payload: bytes) -> None:
        """One client update block onto the primary and every mirror.

        The primary applies first (its ack carries the authoritative
        log length); each in-sync mirror then applies the same block on
        its own session and must ack the *same* length — a mismatch is
        divergence and kills the mirror on the spot, shrinking the
        replica set rather than serving two truths.  Only after every
        leg lands is the primary's ack relayed to the client, so the
        single writer cannot advance past a block any replica is
        missing.
        """
        router = self.router
        # A version-2 client frame carries its trace extension appended
        # to the header; each fan-out leg forwards it (re-parented under
        # a router leg span when tracing is on here) so mirror-side
        # spans join the client's tree.
        trace = frame_trace(header)
        self.meta.inflight += 1
        try:
            try:
                reply_type, _s, rh, rp = await self.primary.request(
                    header + payload
                )
            except _BACKEND_ERRORS:
                self._primary_failed()
            if reply_type != sp.T_UPDATES_ACK:
                # Semantic rejection (bad key etc.): relay it, apply
                # nowhere else.
                await client.send(rh + rp)
                return
            ack_words = sp.parse_words(router.field, rp)
            total = ack_words[0] if ack_words else None

            for node_id in self.replica_ids:
                if node_id == self.primary_id:
                    continue
                if router.health[node_id].state == NODE_DEAD:
                    continue
                if self.dataset_id not in router.synced[node_id]:
                    continue
                tracer = obs.get_tracer()
                if trace is not None and tracer.enabled:
                    leg_span = tracer.span(
                        "router.fanout.leg",
                        parent=obs.TraceContext(*trace),
                        replica=node_id,
                    )
                else:
                    leg_span = obs.NOOP_SPAN
                leg_trace = (leg_span.ctx.pair()
                             if leg_span.ctx is not None else trace)
                try:
                    await self._fanout_leg(node_id, payload, total,
                                           leg_trace)
                finally:
                    leg_span.end()
            if total is not None:
                self.meta.updates = total
            await client.send(rh + rp)
        finally:
            self.meta.inflight -= 1

    async def _fanout_leg(self, node_id: str, payload: bytes,
                          total: Optional[int],
                          trace: Optional[Tuple[int, int]]) -> None:
        """Apply one update block on one mirror (one redial allowed)."""
        router = self.router
        for _attempt in range(2):
            try:
                entry = self.mirrors.get(node_id)
                if entry is None:
                    entry = await self._open_mirror(node_id, trace)
                    self.mirrors[node_id] = entry
                link, mirror_session, _link_epoch = entry
                mirror_type, _ms, _mh, mp = await link.request(
                    sp.pack_frame(sp.T_UPDATES, mirror_session,
                                  payload, trace=trace)
                )
                if mirror_type != sp.T_UPDATES_ACK:
                    raise sp.ServiceProtocolError(
                        "mirror %s refused an update block"
                        % node_id
                    )
                mirror_words = sp.parse_words(router.field, mp)
                if total is not None and (
                    not mirror_words or mirror_words[0] != total
                ):
                    raise sp.ServiceProtocolError(
                        "mirror %s diverged: %r != %r"
                        % (node_id, mirror_words, total)
                    )
                break
            except _BACKEND_ERRORS:
                stale = self.mirrors.pop(node_id, None)
                if stale is not None:
                    stale[0].close()
                if stale is not None and \
                        stale[2] != router.health[node_id].epoch:
                    # The link predates the node's current
                    # incarnation (it was healed since): redial
                    # — the block must still reach the replica,
                    # and the failure says nothing about the
                    # restarted process.
                    continue
                # A failed or diverged mirror leaves the replica
                # set; peers keep the data and the supervisor
                # resyncs it from them.
                router.fanout_errors += 1
                obs.counter("repro_cluster_fanout_errors_total").inc()
                _log.warning("fanout.leg_failed", node=node_id,
                             dataset=self.dataset_id)
                router._node_failed(node_id)
                break
