"""Quickstart: verify a self-join size computed by an untrusted prover.

The data owner (verifier) watches a stream of items using O(log u) words;
the service provider (prover) stores everything.  Afterwards they run the
Section 3.1 sum-check protocol: the verifier learns the exact F2 with
soundness error ~4·log(u)/2^61, and catches any attempt to cheat.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    DEFAULT_FIELD,
    BatchedSumcheckEngine,
    F2Verifier,
    Stream,
    run_f2,
)
from repro.adversary import ModifiedStreamF2Prover


def main():
    u = 1 << 10  # universe size (keys are in [0, u))
    rng = random.Random(2011)

    # The stream both parties observe: 5000 item occurrences.
    stream = Stream.from_items(
        u, [rng.randrange(u) for _ in range(5000)]
    )

    # The verifier draws its secret point *before* the stream and keeps
    # only O(log u) words while streaming.
    verifier = F2Verifier(DEFAULT_FIELD, u, rng=rng)
    prover = BatchedSumcheckEngine(DEFAULT_FIELD, u)
    for key, delta in stream.updates():
        verifier.process(key, delta)
        prover.process(key, delta)

    result = run_f2(prover, verifier)
    assert result.accepted
    print("verified self-join size :", result.value)
    print("ground truth            :", stream.self_join_size())
    print("verifier space (words)  :", result.verifier_space_words)
    print("communication           :", result.transcript.summary())

    # A cheating prover computes a perfect proof -- for the wrong data.
    cheater = ModifiedStreamF2Prover(DEFAULT_FIELD, u, corrupt_key=7)
    cheater.process_stream(stream.updates())
    fresh_verifier = F2Verifier(DEFAULT_FIELD, u, rng=rng)
    fresh_verifier.process_stream(stream.updates())
    cheat_result = run_f2(cheater, fresh_verifier)
    assert not cheat_result.accepted
    print("cheating prover         : rejected (%s)" % cheat_result.reason)


if __name__ == "__main__":
    main()
