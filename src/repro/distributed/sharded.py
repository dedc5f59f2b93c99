"""A distributed (Map-Reduce-style) prover — Section 7, "Distributed
Computation".

The paper observes that the prover's message in each round "can be
written as the inner product of the input data with a function defined by
the values of r_j revealed so far", so the prover parallelises naturally:
each worker holds a shard of the key space, folds it locally, and emits a
partial round polynomial; the coordinator's reduce step is a 3-word sum.
The paper leaves demonstrating this empirically as future work — this
module is that demonstration (simulated workers, deterministic).

Sharding uses the *high* bits of the key, so a shard is a contiguous
block of leaves and folding never crosses shard boundaries until the
table is smaller than the worker count, at which point the coordinator
takes over (the last few rounds are O(#workers) anyway).

Workers ride the backend seam: every partial message is one
``f2_round_sums`` call over the shard and every fold one ``fold_pairs``
pass, on Python ints once a fold leaves a small table
(:func:`~repro.field.vectorized.small_tables`), as in the engine; the
coordinator's reduce is three sums of Python ints.
:func:`run_distributed_f2` drives it: over the service wire
``f2(workers=w)`` is a begin_proof / round_message unit of its own, not
a batch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.comm.channel import Channel
from repro.core.base import VerificationResult, pow2_dimension, rejected
from repro.core.f2 import F2Verifier
from repro.core.sumcheck import run_sumcheck_rounds
from repro.field.modular import PrimeField
from repro.field.vectorized import (
    canonical_table,
    f2_round_sums,
    fold_pairs,
    get_backend,
    small_tables,
)


class F2ShardWorker:
    """One mapper: a contiguous shard of the frequency vector.

    ``freq`` adopts an existing shard (a slice of a shared read-only
    table) instead of starting from zeros; it is never written.
    """

    def __init__(self, field: PrimeField, shard_index: int, shard_size: int,
                 backend=None, freq=None):
        self.field = field
        self.shard_index = shard_index
        self.shard_size = shard_size
        self.base = shard_index * shard_size
        self.backend = backend if backend is not None else get_backend(field)
        self.freq = freq if freq is not None else [0] * shard_size
        self._table = None
        # The backend the folded shard is on: ``backend`` until a fold
        # leaves it small (small_tables), never replacing ``backend``.
        self._be = self.backend
        self._partial = None

    def process(self, i: int, delta: int) -> None:
        self.freq[i - self.base] += delta

    def begin_proof(self) -> None:
        self._table = canonical_table(self.backend, self.field, self.freq)
        self._be = self.backend
        self._partial = None

    def partial_message(self) -> Tuple[int, int, int]:
        """This shard's contribution to (g(0), g(1), g(2))."""
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        if self._partial is None:
            self._partial = f2_round_sums(self._be, self.field, self._table)
        return tuple(self._partial)

    def fold(self, r: int) -> None:
        if self._table is None:
            raise RuntimeError("begin_proof() must be called first")
        self._be, self._table = small_tables(self._be, self.field, fold_pairs(
            self._be, self.field, self._table, r))
        # Compute the next round's partial immediately, while the folded
        # shard is still cache-resident — halves the memory traffic of a
        # fold-all-then-message-all round trip over every shard.
        self._partial = (
            f2_round_sums(self._be, self.field, self._table)
            if len(self._table) >= 2
            else None
        )

    @property
    def residual(self) -> List[int]:
        """The fully folded shard (length 1) handed to the coordinator."""
        if self._table is None or len(self._table) != 1:
            raise RuntimeError("shard not fully folded yet")
        return [int(v) % self.field.p for v in self._table]


class DistributedF2Prover:
    """Coordinator + workers for the F2 protocol.

    Produces messages identical to the centralised prover's (tested
    against the batched engine's F2 member and the reference prover), so
    the standard :class:`~repro.core.f2.F2Verifier` accepts it unchanged.
    ``num_workers`` must be a power of two that divides the
    padded universe into shards of at least two entries; anything else is
    rejected up front — a shard count that does not divide the padded
    dimension would silently route keys to the wrong worker.

    ``freq`` is the padded frequency table to prove over, adopted like
    the engine's ``freq_a``: worker ``w`` takes the slice
    ``freq[w·s:(w+1)·s]`` (a view of a frozen table, not a copy).
    """

    def __init__(self, field: PrimeField, u: int, num_workers: int = 4,
                 backend=None, freq=None):
        if num_workers < 1 or num_workers & (num_workers - 1):
            raise ValueError(
                "worker count must be a power of two (got %d): the shard "
                "boundaries must align with the fold tree" % num_workers
            )
        self.field = field
        self.u = u
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        if num_workers * 2 > self.size:
            raise ValueError(
                "each worker needs a shard of at least two entries: "
                "%d workers over a padded universe of %d"
                % (num_workers, self.size)
            )
        # Both counts are powers of two with num_workers <= size/2, so the
        # shards always divide the padded universe exactly.
        shard_size = self.size // num_workers
        self.backend = backend if backend is not None else get_backend(field)
        self.num_workers = num_workers
        self.workers = [
            F2ShardWorker(
                field, w, shard_size, backend=self.backend,
                freq=None if freq is None
                else freq[w * shard_size:(w + 1) * shard_size],
            )
            for w in range(num_workers)
        ]
        self._shard_bits = shard_size.bit_length() - 1
        # After the workers fold their shards to single values, the
        # coordinator runs the last log(num_workers) rounds locally.
        self._coordinator_table = None
        self._coordinator_be = self.backend
        self._rounds_done = 0

    def _worker_for(self, i: int) -> F2ShardWorker:
        return self.workers[i >> self._shard_bits]

    def process(self, i: int, delta: int) -> None:
        if not 0 <= i < self.u:
            raise ValueError("key %d outside universe [0, %d)" % (i, self.u))
        self._worker_for(i).process(i, delta)

    def process_stream(self, updates) -> None:
        for i, delta in updates:
            self.process(i, delta)

    # -- the proof interface of run_distributed_f2 ---------------------------

    def begin_proof(self) -> None:
        for worker in self.workers:
            worker.begin_proof()
        self._coordinator_table = None
        self._rounds_done = 0

    def round_message(self) -> List[int]:
        p = self.field.p
        if self._coordinator_table is not None:
            return f2_round_sums(
                self._coordinator_be, self.field, self._coordinator_table
            )
        # Map: each worker computes a partial; reduce: the coordinator
        # sums the partial polynomials column-wise.
        partials = [worker.partial_message() for worker in self.workers]
        return [sum(g[c] for g in partials) % p for c in range(3)]

    def receive_challenge(self, r: int) -> None:
        if self._coordinator_table is not None:
            be = self._coordinator_be
            self._coordinator_be, self._coordinator_table = small_tables(
                be, self.field,
                fold_pairs(be, self.field, self._coordinator_table, r))
            return
        for worker in self.workers:
            worker.fold(r)
        self._rounds_done += 1
        if self._rounds_done == self._shard_bits:
            # Shards are single values now: gather them at the coordinator.
            self._coordinator_be = self.backend
            self._coordinator_table = canonical_table(
                self.backend,
                self.field,
                [worker.residual[0] for worker in self.workers],
            )

    @property
    def max_worker_keys(self) -> int:
        """Peak per-worker storage — the Map-Reduce balance statistic."""
        return max(len(w.freq) for w in self.workers)


def run_distributed_f2(
    prover: DistributedF2Prover,
    verifier: F2Verifier,
    channel: Optional[Channel] = None,
) -> VerificationResult:
    """Run the d-round F2 protocol against the sharded prover; returns the
    verified self-join size (mod p)."""
    ch = channel or Channel()
    if prover.d != verifier.d:
        return rejected(ch.transcript, "prover/verifier dimension mismatch")
    prover.begin_proof()
    return run_sumcheck_rounds(
        prover, verifier, ch, message_len=3,
        target=verifier.lde.value**2, target_name="f_a(r)^2",
    )
