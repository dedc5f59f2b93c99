"""Query routing: declarative descriptors onto the core protocols.

A :class:`QueryDescriptor` names *what* the client wants verified (point
lookup, range sum, F2, heavy hitters, ...); the :class:`QueryRouter`
decides *how*: which ``core/`` protocol runs it, which streaming
verifier the client must have provisioned before the stream, which
prover the server materialises from its dataset, and whether several
descriptors can share one batched execution
(:func:`~repro.core.multiquery.run_batched_sumcheck`'s direct-sum
rounds) instead of consuming one independent verifier copy each.

The router is pure planning/dispatch logic — it runs identically
in-process (tests drive it without sockets) and behind the service wire
protocol (the server materialises provers through it, the client picks
verifier pools and drivers through it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.comm.channel import Channel
from repro.core.base import check_range
from repro.core.heavy_hitters import (
    HeavyHittersProver,
    HeavyHittersVerifier,
    run_heavy_hitters,
)
from repro.core.k_largest import (
    KLargestProver,
    check_rank,
    k_largest_query,
)
from repro.core.multiquery import (
    BatchQuery,
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum as core_batch_range_sum,
    check_moment_order,
    run_batched_sumcheck,
)
from repro.core.reporting import (
    ReportingProver,
    index_query,
    predecessor_query,
    range_query,
    successor_query,
)
from repro.core.subvector import TreeHashVerifier
from repro.core.sumcheck import SingleLDEVerifier
from repro.distributed.sharded import DistributedF2Prover, run_distributed_f2
from repro.field.modular import PrimeField

# -- query kinds ---------------------------------------------------------------

KIND_POINT_LOOKUP = 1    # params: (key,)            -> verified a_key
KIND_RANGE_SCAN = 2      # params: (lo, hi)          -> SubVectorAnswer
KIND_RANGE_SUM = 3       # params: (lo, hi)          -> verified range sum
KIND_F2 = 4              # params: () | (workers,)   -> self-join size
KIND_FK = 5              # params: (k,)              -> k-th moment
KIND_INNER_PRODUCT = 6   # params: ()                -> join size of a and b
KIND_HEAVY_HITTERS = 7   # params: (num, den)        -> {key: count}, phi=num/den
KIND_K_LARGEST = 8       # params: (k,)              -> k-th largest key
KIND_PREDECESSOR = 9     # params: (q,)              -> largest key <= q
KIND_SUCCESSOR = 10      # params: (q,)              -> smallest key >= q

KIND_NAMES = {
    KIND_POINT_LOOKUP: "point-lookup",
    KIND_RANGE_SCAN: "range-scan",
    KIND_RANGE_SUM: "range-sum",
    KIND_F2: "f2",
    KIND_FK: "fk",
    KIND_INNER_PRODUCT: "inner-product",
    KIND_HEAVY_HITTERS: "heavy-hitters",
    KIND_K_LARGEST: "k-largest",
    KIND_PREDECESSOR: "predecessor",
    KIND_SUCCESSOR: "successor",
}

_PARAM_COUNTS = {
    KIND_POINT_LOOKUP: (1, 1),
    KIND_RANGE_SCAN: (2, 2),
    KIND_RANGE_SUM: (2, 2),
    KIND_F2: (0, 1),
    KIND_FK: (1, 1),
    KIND_INNER_PRODUCT: (0, 0),
    KIND_HEAVY_HITTERS: (2, 2),
    KIND_K_LARGEST: (1, 1),
    KIND_PREDECESSOR: (1, 1),
    KIND_SUCCESSOR: (1, 1),
}

#: The SUB-VECTOR tree-hash family: one TreeHashVerifier serves any of
#: these (each verified query still consumes one independent copy).
TREE_KINDS = frozenset(
    [KIND_POINT_LOOKUP, KIND_RANGE_SCAN, KIND_K_LARGEST,
     KIND_PREDECESSOR, KIND_SUCCESSOR]
)

#: The sum-check family: every descriptor of these kinds in a request
#: runs in one direct-sum execution (Section 7) on the
#: :class:`~repro.core.multiquery.BatchedSumcheckEngine` — a lone one as
#: a batch of one, which is the single-query protocol — except an F2
#: descriptor that names a worker count, which keeps its own (sharded)
#: prover.  There is no batch-size ceiling in the plan: RANGE-SUM
#: members cost the engine O(log² u) per round each (the dyadic fold),
#: so adding a range member to a unit is cheap server-side and always
#: saves verifier words vs a standalone run.
SUMCHECK_KINDS = frozenset(
    [KIND_RANGE_SUM, KIND_F2, KIND_FK, KIND_INNER_PRODUCT]
)


def _batchable(descriptor: QueryDescriptor) -> bool:
    """Can this descriptor join a direct-sum batched execution?"""
    kind = descriptor.kind
    if kind not in SUMCHECK_KINDS:
        return False
    if kind == KIND_F2 and descriptor.params and descriptor.params[0]:
        return False  # sharded F2 runs on its own prover
    return True


def to_batch_query(descriptor: QueryDescriptor) -> BatchQuery:
    """The engine-level batch member for one service descriptor."""
    kind = descriptor.kind
    if not _batchable(descriptor):
        raise RoutingError(
            "%s%r cannot join a batched unit"
            % (descriptor.name, descriptor.params)
        )
    if kind == KIND_RANGE_SUM:
        return core_batch_range_sum(*descriptor.params)
    if kind == KIND_F2:
        return batch_f2()
    if kind == KIND_FK:
        return batch_fk(descriptor.params[0])
    return batch_inner_product()


class RoutingError(ValueError):
    """A descriptor cannot be mapped onto a protocol."""


@dataclass(frozen=True)
class QueryDescriptor:
    """A declarative query: kind + integer parameters.

    Descriptors are what crosses the wire (as words), what the router
    plans over, and what tests construct directly.
    """

    kind: int
    params: Tuple[int, ...] = ()

    def __post_init__(self):
        bounds = _PARAM_COUNTS.get(self.kind)
        if bounds is None:
            raise RoutingError("unknown query kind %r" % (self.kind,))
        low, high = bounds
        if not low <= len(self.params) <= high:
            raise RoutingError(
                "%s takes %s parameters, got %d"
                % (
                    KIND_NAMES[self.kind],
                    "%d" % low if low == high else "%d..%d" % (low, high),
                    len(self.params),
                )
            )
        if any(v < 0 for v in self.params):
            raise RoutingError("query parameters must be non-negative")

    @property
    def name(self) -> str:
        return KIND_NAMES[self.kind]

    def to_words(self) -> List[int]:
        return [self.kind, len(self.params), *self.params]

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "QueryDescriptor":
        if len(words) < 2:
            raise RoutingError("descriptor needs at least kind and arity")
        kind, count = words[0], words[1]
        if count != len(words) - 2:
            raise RoutingError("descriptor arity does not match its words")
        return cls(kind, tuple(words[2:]))


# convenience constructors ----------------------------------------------------


def point_lookup(key: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_POINT_LOOKUP, (key,))


def range_scan(lo: int, hi: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_RANGE_SCAN, (lo, hi))


def range_sum(lo: int, hi: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_RANGE_SUM, (lo, hi))


def f2(workers: int = 0) -> QueryDescriptor:
    return QueryDescriptor(KIND_F2, (workers,) if workers else ())


def fk(k: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_FK, (check_moment_order(k),))


def inner_product() -> QueryDescriptor:
    return QueryDescriptor(KIND_INNER_PRODUCT)


def heavy_hitters(phi_num: int, phi_den: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_HEAVY_HITTERS, (phi_num, phi_den))


def k_largest(k: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_K_LARGEST, (k,))


def predecessor(q: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_PREDECESSOR, (q,))


def successor(q: int) -> QueryDescriptor:
    return QueryDescriptor(KIND_SUCCESSOR, (q,))


# -- execution plan ------------------------------------------------------------


@dataclass(frozen=True)
class PlanUnit:
    """One protocol execution: every sum-check descriptor of a request
    as one engine batch (``batched``), or one other query."""

    batched: bool
    descriptors: Tuple[QueryDescriptor, ...]

    @property
    def pool_key(self) -> Tuple:
        """The verifier pool this unit consumes one copy from.

        A lone query or a homogeneous batch keeps its family's pool (one
        RANGE-SUM verifier serves an all-RANGE-SUM batch); a mixed batch
        draws from the ``("batch",)`` pool of two-LDE
        :class:`~repro.core.multiquery.BatchedSumcheckVerifier` copies.
        """
        keys = {
            QueryRouter.verifier_pool_key(q) for q in self.descriptors
        }
        if len(keys) == 1:
            return keys.pop()
        return ("batch",)


class QueryRouter:
    """Maps descriptors onto protocols, verifiers, provers and plans."""

    # -- planning ------------------------------------------------------------

    @staticmethod
    def plan(descriptors: Sequence[QueryDescriptor]) -> List[PlanUnit]:
        """Group descriptors into executions.

        Every sum-check descriptor — RANGE-SUM, F2, Fk, INNER-PRODUCT,
        in any mix, one or many — joins one direct-sum batched run (one
        verifier copy, one dataset digitisation, shared challenges —
        Section 7) on the
        :class:`~repro.core.multiquery.BatchedSumcheckEngine`; every
        other descriptor (and sharded F2) is a single-shot unit.
        Order of the returned units follows first appearance, so results
        can be re-matched to the request order via the units'
        descriptors.
        """
        batchable = tuple(q for q in descriptors if _batchable(q))
        units: List[PlanUnit] = []
        batched_emitted = False
        for q in descriptors:
            if not _batchable(q):
                units.append(PlanUnit(False, (q,)))
            elif not batched_emitted:
                units.append(PlanUnit(True, batchable))
                batched_emitted = True
        return units

    # -- verifier side -------------------------------------------------------

    @staticmethod
    def verifier_pool_key(descriptor: QueryDescriptor) -> Tuple:
        """Provisioning key: descriptors with the same key can consume
        copies from the same pool of independent verifiers."""
        kind = descriptor.kind
        if kind in TREE_KINDS:
            return ("tree",)
        if kind == KIND_RANGE_SUM:
            return ("range-sum",)
        if kind == KIND_F2:
            return ("f2",)
        if kind == KIND_FK:
            return ("fk", descriptor.params[0])
        if kind == KIND_INNER_PRODUCT:
            return ("inner-product",)
        if kind == KIND_HEAVY_HITTERS:
            return ("heavy-hitters",) + tuple(descriptor.params)
        raise RoutingError("unroutable kind %r" % (kind,))

    @staticmethod
    def make_verifier(pool_key: Tuple, field: PrimeField, u: int,
                      rng: random.Random):
        """A fresh streaming verifier for one pool key (drawn *before*
        the stream, as Definition 1 requires).

        The sum-check pools hold what the engine's driver reads — the
        LDEs at the secret point, ``r`` and ``d``: one LDE where every
        member reads ``f_a(r)`` only, two where an INNER-PRODUCT member
        may read ``f_b(r)``."""
        family = pool_key[0]
        if family == "tree":
            return TreeHashVerifier(field, u, rng=rng)
        if family in ("f2", "fk", "range-sum"):
            return SingleLDEVerifier(field, u, rng=rng)
        if family in ("inner-product", "batch"):
            return BatchedSumcheckVerifier(field, u, rng=rng)
        if family == "heavy-hitters":
            num, den = pool_key[1], pool_key[2]
            if den == 0 or not 0 < num / den <= 1:
                raise RoutingError("heavy-hitters phi %d/%d invalid"
                                   % (num, den))
            return HeavyHittersVerifier(field, u, num / den, rng=rng)
        raise RoutingError("unroutable pool key %r" % (pool_key,))

    # -- prover side ---------------------------------------------------------

    @staticmethod
    def make_prover(unit: PlanUnit, dataset):
        """Materialise the server-side prover for one plan unit.

        Sum-check and tree-hash provers start from the shared read-only
        canonical tables of ``dataset`` (a registry ``Dataset``) and the
        proof start it keeps beside them, without a copy, so an in-flight
        proof stays consistent while other sessions keep streaming;
        ``f2(workers=w)`` runs the Section 7 coordinator over ``w``
        slices of that table.  Heavy hitters folds it too: on the strict
        stream it answers, the residues are the exact subtree counts.

        A unit off the wire is checked, not trusted, before anything is
        built: a batched unit is one or more descriptors the engine runs,
        a single-shot unit exactly one it does not (an oversized moment
        order is named first).
        """
        count = len(unit.descriptors)
        members = [to_batch_query(q) for q in unit.descriptors
                   if _batchable(q)]
        if not (0 < len(members) == count if unit.batched
                else count == 1 and not members):
            raise RoutingError(
                "a batched unit carries one or more descriptors the engine "
                "runs, a single-shot unit exactly one it does not")
        field, u, table = dataset.field, dataset.u, dataset.canonical_table
        if unit.batched:
            vectors = (0, 1) if any(
                q.kind == KIND_INNER_PRODUCT for q in unit.descriptors
            ) else (0,)
            return BatchedSumcheckEngine(
                field, u, freq_a=table(0),
                freq_b=table(1) if 1 in vectors else None,
                start=dataset.proof_start(vectors),
            )
        descriptor = unit.descriptors[0]
        kind = descriptor.kind
        if kind in TREE_KINDS:
            cls = KLargestProver if kind == KIND_K_LARGEST else ReportingProver
            prover = cls(field, u, freq=table(0),
                         start=dataset.proof_start((0,)))
            # Refused here, the open is never acked and the client's
            # verifier copy stays unspent (as RANGE-SUM's receive_batch).
            # Predecessor and successor answer at the edges.
            params = descriptor.params
            try:
                if kind == KIND_K_LARGEST:
                    check_rank(params[0])
                elif kind in (KIND_POINT_LOOKUP, KIND_RANGE_SCAN):
                    check_range(params[0], params[-1], prover.size)
            except ValueError as exc:
                raise RoutingError("%s: %s" % (descriptor.name, exc)) from None
            return prover
        if kind == KIND_F2:
            return DistributedF2Prover(field, u,
                                       num_workers=descriptor.params[0],
                                       freq=table(0))
        if kind == KIND_HEAVY_HITTERS:
            num, den = descriptor.params
            if den == 0 or not 0 < num / den <= 1:
                raise RoutingError("heavy-hitters phi %d/%d invalid"
                                   % (num, den))
            return HeavyHittersProver(field, u, num / den,
                                      backend=dataset.backend,
                                      freq=table(0))
        raise RoutingError("unroutable kind %r" % (kind,))

    # -- drivers -------------------------------------------------------------

    @staticmethod
    def run(unit: PlanUnit, prover, verifier,
            channel: Optional[Channel] = None):
        """Drive one plan unit's interactive protocol.

        ``prover`` may be a local object or the client's remote proxy —
        the drivers only see the protocol interface.  Returns one
        :class:`~repro.core.base.VerificationResult` for a single-shot
        unit, a list (one per descriptor, in batch order) for a batched
        unit — a batch of one included.
        """
        ch = channel or Channel()
        descriptor = unit.descriptors[0]
        kind = descriptor.kind
        if unit.batched:
            batch = [to_batch_query(q) for q in unit.descriptors]
            return run_batched_sumcheck(prover, verifier, batch, ch)
        if kind == KIND_POINT_LOOKUP:
            return index_query(prover, verifier, descriptor.params[0], ch)
        if kind == KIND_RANGE_SCAN:
            lo, hi = descriptor.params
            return range_query(prover, verifier, lo, hi, ch)
        if kind == KIND_F2:
            return run_distributed_f2(prover, verifier, ch)  # f2(workers=w)
        if kind == KIND_HEAVY_HITTERS:
            return run_heavy_hitters(prover, verifier, ch)
        if kind == KIND_K_LARGEST:
            return k_largest_query(prover, verifier, descriptor.params[0], ch)
        if kind == KIND_PREDECESSOR:
            return predecessor_query(prover, verifier, descriptor.params[0],
                                     ch)
        if kind == KIND_SUCCESSOR:
            return successor_query(prover, verifier, descriptor.params[0], ch)
        raise RoutingError("unroutable kind %r" % (kind,))
