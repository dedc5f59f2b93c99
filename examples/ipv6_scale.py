"""Log-scale verification over an astronomically large key space.

The paper's closing example contemplates 1TB of IPv6 addresses — a
128-bit key universe.  The verifier's costs depend on u only through
log u, and the prover's, on sparse data, on n·log(u/n) for n keys
(Theorems 4 & 5): handed its counts as a ``Counter``, the prover never
builds a table of the universe, only the pairs its keys touch.  Here we
run real protocols over u = 2^128 with a few hundred active keys: the
verifier state is ~130 words and every proof is a few KB.

Run:  python examples/ipv6_scale.py
"""

import random
from collections import Counter

from repro import DEFAULT_FIELD, F2Verifier, TreeHashVerifier
from repro.core.f2 import run_f2
from repro.core.multiquery import BatchedSumcheckEngine
from repro.core.subvector import SubVectorProver, run_subvector
from repro.streams.model import Stream


def main():
    u = 1 << 128  # the IPv6 address space; log u drives every cost
    rng = random.Random(2012)
    # range(2**128) is too long for rng.sample; distinct draws suffice.
    keys = sorted({rng.getrandbits(128) for _ in range(300)})
    stream = Stream(u, [(k, rng.randint(1, 50)) for k in keys])
    print("universe 2^128, %d active keys, %d updates" % (len(keys),
                                                          len(stream)))

    # Exact F2 with a 128-round conversation.
    verifier = F2Verifier(DEFAULT_FIELD, u, rng=rng)
    prover = BatchedSumcheckEngine(DEFAULT_FIELD, u, freq_a=Counter())
    for key, delta in stream.updates():
        verifier.process(key, delta)
        prover.process(key, delta)
    result = run_f2(prover, verifier)
    assert result.accepted and result.value == stream.self_join_size()
    print("F2 = %d  [verified]" % result.value)
    print("   verifier space : %d words (%d bytes)"
          % (result.verifier_space_words, result.verifier_space_words * 8))
    print("   communication  : %s" % result.transcript.summary())

    # A verified range scan over an astronomically wide slice.
    lo, hi = keys[100], keys[199]
    tree_verifier = TreeHashVerifier(DEFAULT_FIELD, u, rng=rng)
    sub_prover = SubVectorProver(DEFAULT_FIELD, u, freq=Counter())
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
