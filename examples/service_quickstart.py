"""Prover-as-a-service quickstart: the Section 1 scenario over real TCP.

Boots the prover service, streams a key-value workload from a thin
client verifier (O(log u) state per verifier copy), runs verified
queries of several kinds through the QueryRouter — every protocol round
crossing the wire as binary frames — prints each query's word/byte/frame
cost, demonstrates a second late-joining verifier catching up via
replay, and finishes with a small load-generation run.

Run:  python examples/service_quickstart.py
"""

import random

from repro import DEFAULT_FIELD
from repro.service import (
    ProverServer,
    ServiceClient,
    f2,
    fk,
    heavy_hitters,
    point_lookup,
    predecessor,
    range_scan,
    range_sum,
    run_load,
)
from repro.streams.generators import key_value_pairs


def main():
    server = ProverServer(DEFAULT_FIELD)
    handle = server.serve_in_thread()
    host, port = handle.address
    print("prover service listening on %s:%d" % (host, port))

    u = 1 << 14
    client = ServiceClient(host, port, DEFAULT_FIELD, u, dataset_id=1,
                           rng=random.Random(7))
    # Verifier pools are provisioned *before* the stream (Definition 1):
    # one copy is consumed per verified query; sum-check queries in one
    # query() call (here the two RANGE-SUMs and the Fk) share one copy
    # of the ("batch",) pool via the batched direct-sum rounds.
    client.provision(("tree",), 3)
    client.provision(("batch",), 1)
    client.provision(("f2",), 1)
    client.provision(("heavy-hitters", 1, 32), 1)

    pairs = key_value_pairs(u, 2000, rng=random.Random(11))
    client.send_updates([(k, v + 1) for k, v in pairs])  # DICTIONARY +1
    print("streamed %d key-value puts over the wire" % len(pairs))

    some_key, some_val = pairs[0]
    outcomes = client.query(
        point_lookup(some_key),
        range_sum(0, u // 2),
        range_sum(u // 2, u - 1),
        fk(3),          # joins the range-sums in one batched engine run
        f2(workers=4),  # the sharded Section 7 coordinator, 4 workers
        heavy_hitters(1, 32),
        predecessor(u // 2),
        range_scan(0, 200),
    )
    print("\n%-14s %-9s %7s %7s %7s" % ("query", "verified", "words",
                                        "bytes", "frames"))
    for o in outcomes:
        assert o.result.accepted, (o.descriptor.name, o.result.reason)
        print("%-14s %-9s %7d %7d %7d" % (
            o.descriptor.name, o.result.accepted,
            o.cost.transcript_words,
            o.cost.bytes_sent + o.cost.bytes_received, o.cost.frames))
    got = outcomes[0].result.value
    print("\nget(%d) = %d  [verified; +1 encoding decodes to %d]"
          % (some_key, got, got - 1))
    assert got - 1 == some_val

    # A second verifier joins late and replays the shared server pass.
    late = ServiceClient(host, port, DEFAULT_FIELD, u, dataset_id=1,
                         rng=random.Random(8))
    late.provision(("f2",), 1)
    replayed = late.replay_missed()
    check = late.query(f2())[0]
    assert check.result.accepted
    print("late verifier replayed %d updates and re-verified F2 = %d"
          % (replayed, check.result.value))
    late.close()
    client.close()

    report = run_load(host, port, DEFAULT_FIELD, 1 << 10, sessions=6,
                      updates_per_session=400, concurrency=3, seed=3,
                      dataset_base=100)
    assert not report.failures
    print("\nload: %d sessions -> %.1f sessions/s, %.0f updates/s, "
          "%.1f verified queries/s"
          % (report.sessions, report.sessions_per_second,
             report.updates_per_second, report.queries_per_second))
    handle.stop()


if __name__ == "__main__":
    main()
