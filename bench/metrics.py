"""The benchmark's metric tables; ``BENCHMARK.json`` mirrors them (the
smoke test checks that it does).

``EXACT`` is the regression bound of the protocol-cost counts.  They are
functions of the workload alone — identical in every pass, run and seed —
so the smallest change a program change can cause (one word in one
transcript) is orders of magnitude above it: the bound means *any*
increase is a regression.

The timing bounds are at least three times the widest quartile spread
seen over two sets of ten seeds on a 2-vCPU shared host (README, noise
study).  The metrics that rest on a few 60-300 ms slots of the few-slot
workloads (query_p50_s and query_p95_s are one slot's time there, the
ingest rate a handful) carry 0.25: a busy neighbour slows those slots by
a fifth for longer than a run lasts.
"""

EXACT = 1e-9

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_p50_s", "s", "lower", 0.25),
    ("query_p95_s", "s", "lower", 0.25),
    ("ingest_updates_per_s", "1/s", "higher", 0.25),
    ("session_ready_s", "s", "lower", 0.25),
    ("words_per_query", "words", "lower", EXACT),
    ("wire_bytes_per_query", "bytes", "lower", EXACT),
    ("verifier_space_words", "words", "lower", EXACT),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better)
PER_LAYER = (
    ("field.mul_ns_per_elem", "ns", "lower"),
    ("field.dot_ns_per_elem", "ns", "lower"),
    ("field.row_fold_ns_per_elem", "ns", "lower"),
    ("field.pair_prefix_sums_ns_per_elem", "ns", "lower"),
    ("lde.copy_updates_per_s", "1/s", "higher"),
    ("core.range_sum_single_s", "s", "lower"),
    ("core.f2_s", "s", "lower"),
    ("core.fk3_s", "s", "lower"),
    ("core.inner_product_s", "s", "lower"),
    ("core.batch_mixed_s", "s", "lower"),
    ("core.tree_lookup_s", "s", "lower"),
    ("core.heavy_hitters_s", "s", "lower"),
    ("core.prover_share", "ratio", "lower"),
    ("core.verifier_check_s", "s", "lower"),
    ("comm.encode_words_ns_per_word", "ns", "lower"),
    ("comm.decode_words_ns_per_word", "ns", "lower"),
    ("comm.rounds_per_query", "count", "lower"),
    ("router.plan_us", "us", "lower"),
    ("registry.open_query_s", "s", "lower"),
    ("registry.apply_updates_per_s", "1/s", "higher"),
    ("registry.snapshot_s", "s", "lower"),
    ("registry.snapshot_bytes", "bytes", "lower"),
    ("service.rtt_us", "us", "lower"),
    ("service.frames_per_query", "count", "lower"),
    ("service.round_trips_per_query", "count", "lower"),
    ("service.wire_wait_share", "ratio", "lower"),
    ("service.verify_s", "s", "lower"),
    ("service.frame_overhead_s", "s", "lower"),
    ("service.dial_s", "s", "lower"),
    ("service.ingest_wire_share", "ratio", "lower"),
    ("service.replay_updates_per_s", "1/s", "higher"),
    ("pool.f2_workers2_s", "s", "lower"),
    ("pool.f2_speedup", "ratio", "higher"),
    ("cluster.relay_overhead_s", "s", "lower"),
    ("cluster.fanout_ingest_ratio", "ratio", "higher"),
    ("cluster.hello_s", "s", "lower"),
    ("cluster.primary_skew", "count", "lower"),
    ("harness.slot_spread", "ratio", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
)

#: Count-type layer metrics: identical in every run of the same code.
EXACT_LAYER = (
    "comm.rounds_per_query",
    "service.frames_per_query", "service.round_trips_per_query",
    "cluster.primary_skew",
)
