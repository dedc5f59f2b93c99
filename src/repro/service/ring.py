"""Consistent-hash ring: stable dataset-to-node placement for the cluster.

The cluster partitions the keyspace of dataset ids across N prover
backends the way Cassandra partitions its keyspace: every node owns many
*virtual* positions on a hash ring, a dataset id hashes to a point on
the ring, and its ``replication_factor`` replicas are the first distinct
nodes found walking clockwise from that point.  Two properties make this
the right structure for a self-healing cluster:

* **Stability** — placement is a pure function of (node ids, key);
  every router, supervisor and test computes the same assignment with no
  coordination, and insertion order never matters;
* **Minimal movement** — adding or removing one node only remaps the
  keys adjacent to that node's virtual positions (an expected ``1/n``
  share), so a join/leave resyncs a slice of the data, never all of it.

Hashing uses BLAKE2b, *not* Python's builtin ``hash`` — the builtin is
salted per process, which would scatter a dataset across different
nodes on every restart.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

#: Virtual nodes per physical node.  More vnodes smooth the key
#: distribution (the max/mean node load ratio concentrates toward 1)
#: at the cost of a longer sorted ring; 128 keeps an 8-node ring's
#: spread within ~2x at a few thousand keys.
DEFAULT_VNODES = 128


def _position(token: bytes) -> int:
    """Ring position of a token: the first 8 bytes of its BLAKE2b."""
    return int.from_bytes(
        hashlib.blake2b(token, digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over named nodes.

    ``replicas(key, n)`` returns the ``n`` distinct node ids owning
    ``key``, in clockwise (failover) order — the first is the primary,
    the rest are the replicas an update fans out to and a failed query
    falls over to.
    """

    def __init__(self, nodes: Sequence[str] = (),
                 vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("need at least one virtual node per node")
        self.vnodes = vnodes
        self._nodes: Dict[str, List[int]] = {}
        #: Sorted (position, node id) pairs — the ring itself.
        self._ring: List[Tuple[int, str]] = []
        for node_id in nodes:
            self.add_node(node_id)

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError("node %r is already on the ring" % node_id)
        positions = []
        for v in range(self.vnodes):
            token = ("%s#%d" % (node_id, v)).encode("utf-8")
            pos = _position(token)
            positions.append(pos)
            bisect.insort(self._ring, (pos, node_id))
        self._nodes[node_id] = positions

    # -- placement -----------------------------------------------------------

    def key_position(self, key: str) -> int:
        return _position(key.encode("utf-8"))

    def replicas(self, key: str, n: int) -> List[str]:
        """The first ``min(n, len(nodes))`` distinct nodes clockwise
        from ``key``'s ring position; ``[0]`` is the primary."""
        if n < 1:
            raise ValueError("need at least one replica")
        if not self._ring:
            return []
        start = bisect.bisect_right(self._ring, (self.key_position(key),
                                                 "￿"))
        chosen: List[str] = []
        seen = set()
        for step in range(len(self._ring)):
            _pos, node_id = self._ring[(start + step) % len(self._ring)]
            if node_id in seen:
                continue
            seen.add(node_id)
            chosen.append(node_id)
            if len(chosen) == n:
                break
        return chosen

    def primary(self, key: str) -> str:
        owners = self.replicas(key, 1)
        if not owners:
            raise LookupError("the ring has no nodes")
        return owners[0]
