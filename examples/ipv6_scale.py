"""Log-scale verification over an astronomically large key space.

The paper's closing example contemplates 1TB of IPv6 addresses — a
128-bit key universe.  The verifier's costs depend on u only through
log u, and the *sparse* provers (Theorem 4/5's O(n log(u/n)) bound) depend
on the data size, not the universe.  Here we run real protocols over
u = 2^48 with a few hundred active keys: the verifier state is ~50 words
and every proof is a few hundred bytes.

Run:  python examples/ipv6_scale.py
"""

import random

from repro import DEFAULT_FIELD, F2Verifier, TreeHashVerifier
from repro.comm.channel import Channel
from repro.core.sparse import SparseF2Prover, SparseSubVectorProver
from repro.core.subvector import run_subvector
from repro.core.sumcheck import run_sumcheck_rounds
from repro.streams.model import Stream


def main():
    u = 1 << 48  # a 48-bit address space; log u drives every cost
    rng = random.Random(2012)
    keys = sorted(rng.sample(range(u), 300))
    stream = Stream(u, [(k, rng.randint(1, 50)) for k in keys])
    print("universe 2^48, %d active keys, %d updates" % (len(keys),
                                                         len(stream)))

    # Exact F2 with a 49-round conversation.
    verifier = F2Verifier(DEFAULT_FIELD, u, rng=rng)
    prover = SparseF2Prover(DEFAULT_FIELD, u)
    for key, delta in stream.updates():
        verifier.process(key, delta)
        prover.process(key, delta)
    prover.begin_proof()
    result = run_sumcheck_rounds(prover, verifier, Channel(), message_len=3,
                                 target=verifier.lde.value ** 2,
                                 target_name="f_a(r)^2")
    assert result.accepted and result.value == stream.self_join_size()
    print("F2 = %d  [verified]" % result.value)
    print("   verifier space : %d words (%d bytes)"
          % (result.verifier_space_words, result.verifier_space_words * 8))
    print("   communication  : %s" % result.transcript.summary())

    # A verified range scan over a trillion-key slice.
    lo, hi = keys[100], keys[199]
    tree_verifier = TreeHashVerifier(DEFAULT_FIELD, u, rng=rng)
    sub_prover = SparseSubVectorProver(DEFAULT_FIELD, u)
    for key, delta in stream.updates():
        tree_verifier.process(key, delta)
        sub_prover.process(key, delta)
    scan = run_subvector(sub_prover, tree_verifier, lo, hi)
    assert scan.accepted and scan.value.k == 100
    print("range scan over [%d, %d] (%.1e keys wide): %d entries  "
          "[verified]" % (lo, hi, float(hi - lo + 1), scan.value.k))
    print("   communication  : %s" % scan.transcript.summary())


if __name__ == "__main__":
    main()
