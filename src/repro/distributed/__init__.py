"""Distributed (Map-Reduce-style) provers — Section 7 future work."""

from repro.distributed.sharded import (
    DistributedF2Prover,
    F2ShardWorker,
    run_distributed_f2,
)

__all__ = ["DistributedF2Prover", "F2ShardWorker", "run_distributed_f2"]
