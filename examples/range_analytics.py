"""Verified analytics over an outsourced sales ledger.

RANGE-SUM (Section 3.2) answers "total revenue for product IDs in
[lo, hi]" with the range chosen *after* the data was uploaded; the batch
runner (Section 7's direct-sum observation) verifies many ranges in one
round-synchronised conversation; INNER PRODUCT verifies a join size
between two day's streams.

Run:  python examples/range_analytics.py
"""

import random

from repro import DEFAULT_FIELD
from repro.core.inner_product import inner_product_protocol
from repro.core.multiquery import BatchedSumcheckEngine, run_batch_range_sum
from repro.core.range_sum import RangeSumVerifier, range_sum_protocol
from repro.streams.generators import paired_streams_for_join
from repro.streams.model import Stream


def main():
    u = 1 << 12
    rng = random.Random(5)

    # A ledger: (product id, revenue) with distinct ids.
    ids = rng.sample(range(u), 300)
    ledger = Stream(u, [(pid, rng.randint(1, 500)) for pid in ids])
    print("ledger: %d products over id space [0, %d)" % (len(ids), u))

    lo, hi = 1000, 2500
    result = range_sum_protocol(ledger, lo, hi, DEFAULT_FIELD,
                                rng=random.Random(1))
    assert result.accepted and result.value == ledger.range_sum(lo, hi)
    print("revenue for ids [%d, %d]: %d  [verified, %d words]"
          % (lo, hi, result.value, result.transcript.total_words))

    # A dashboard of ranges, verified in parallel with shared randomness:
    # the prover commits every round polynomial before each challenge.
    queries = [(0, 511), (512, 1023), (1024, 2047), (2048, 4095)]
    verifier = RangeSumVerifier(DEFAULT_FIELD, u, rng=random.Random(2))
    prover = BatchedSumcheckEngine(DEFAULT_FIELD, u)
    for key, delta in ledger.updates():
        verifier.process(key, delta)
        prover.process_a(key, delta)
    results = run_batch_range_sum(prover, verifier, queries)
    print("dashboard (one batched conversation):")
    for (qlo, qhi), res in zip(queries, results):
        assert res.accepted and res.value == ledger.range_sum(qlo, qhi)
        print("   ids [%4d, %4d]: revenue %7d  [verified]"
              % (qlo, qhi, res.value))

    # Join size between two days of activity (INNER PRODUCT).
    day1, day2 = paired_streams_for_join(u, 400, overlap=0.5,
                                         rng=random.Random(3))
    join = inner_product_protocol(day1, day2, DEFAULT_FIELD,
                                  rng=random.Random(4))
    assert join.accepted and join.value == day1.inner_product(day2)
    print("day1 x day2 join size : %d  [verified, %s]"
          % (join.value, join.transcript.summary()))


if __name__ == "__main__":
    main()
