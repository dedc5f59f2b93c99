"""Map-Reduce-style distributed proving (Section 7, future work).

"The prover's message in each round can be written as the inner product
of the input data with a function defined by the values of r_j revealed
so far.  Thus, these protocols easily parallelize, and fit into
Map-Reduce settings very naturally; it remains to demonstrate this
empirically."  This example is that demonstration: a cluster of shard
workers produces byte-identical messages to the centralised prover (the
batched engine), and the unmodified verifier accepts them.

Run:  python examples/distributed_proving.py
"""

import random

from repro import DEFAULT_FIELD, BatchedSumcheckEngine, F2Verifier, batch_f2
from repro.distributed import DistributedF2Prover, run_distributed_f2
from repro.streams.generators import uniform_frequency_stream


def main():
    u = 1 << 12
    stream = uniform_frequency_stream(u, max_frequency=100,
                                      rng=random.Random(77))
    print("stream over u = %d, total mass %d"
          % (u, sum(stream.frequency_vector())))

    # The "cluster": 8 shard workers plus a coordinator.
    cluster = DistributedF2Prover(DEFAULT_FIELD, u, num_workers=8)
    central = BatchedSumcheckEngine(DEFAULT_FIELD, u)
    verifier = F2Verifier(DEFAULT_FIELD, u, rng=random.Random(1))
    for key, delta in stream.updates():
        cluster.process(key, delta)   # routed to the right worker
        central.process(key, delta)
        verifier.process(key, delta)
    print("8 workers, %d keys each" % cluster.max_worker_keys)

    # The messages are identical — the reduce step is a 3-word sum.
    cluster.begin_proof()
    central.receive_batch([batch_f2()])
    assert [cluster.round_message()] == central.round_messages()
    print("round-1 message from the cluster == centralised prover: True")

    # And the standard verifier accepts the cluster's proof unchanged.
    result = run_distributed_f2(cluster, verifier)
    assert result.accepted and result.value == stream.self_join_size()
    print("verified F2 from the cluster: %d  [%s]"
          % (result.value, result.transcript.summary()))


if __name__ == "__main__":
    main()
