"""Runs one workload: set-up, R identical passes, validation, metrics.

Method (what makes the numbers repeat): a fixed-count seeded schedule,
one closed-loop client, R identical passes; a slot's time is the best of
its samples (R, or R x ingest_repeats for a load slot of a workload that
repeats its load phase; noise is additive and positive), and every
timing metric is computed from slot-best times.  Counts must be identical in every
pass, and a run that saw any retry, reconnect, refusal or failover is
invalid.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Sequence

import metrics as M
import probes
from nodes import OUT_DIR, Deployment, vm_hwm_mb
from oracle import Oracle
from passes import PassRecord, dataset_id, run_pass
from repro.comm.channel import flip_word
from repro.field.modular import DEFAULT_FIELD as FIELD
from sessions import open_session
from spans import NullTracer, Tracer
from workloads import Inputs, build, lane, spec_for

#: ``--seconds`` at which a workload runs its own R passes; other values
#: scale R (the schedule itself never changes with the clock).
RUN_SECONDS = 25
SETUP_REPEATS = 5
NOISY_SPREAD = 0.5
NULL = NullTracer()

#: In-process request kind behind each per-kind layer metric.
KIND_METRICS = {
    "range_sum": "core.range_sum_single_s",
    "f2": "core.f2_s",
    "fk3": "core.fk3_s",
    "inner_product": "core.inner_product_s",
    "batch_mixed": "core.batch_mixed_s",
    "point_lookup": "core.tree_lookup_s",
    "heavy_hitters": "core.heavy_hitters_s",
    "f2_workers2": "pool.f2_workers2_s",
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule `repro.service.loadgen` uses)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def slot_best(records: List[PassRecord], attr: str) -> List[float]:
    return [min(samples)
            for samples in zip(*(getattr(r, attr) for r in records))]


def at_best(records: List[PassRecord], attr: str, other: str) -> List[float]:
    """Per slot, ``other`` as measured in the pass where ``attr`` was best."""
    out = []
    for slot, samples in enumerate(zip(*(getattr(r, attr) for r in records))):
        out.append(getattr(records[samples.index(min(samples))], other)[slot])
    return out


def slot_spread(records: List[PassRecord]) -> float:
    """Median over all slots of (median sample / best sample - 1)."""
    ratios = []
    for attr in ("ingest_s", "join_s", "request_s"):
        for samples in zip(*(getattr(r, attr) for r in records)):
            ratios.append(statistics.median(samples) / min(samples) - 1.0)
    return statistics.median(ratios)


def make_oracles(inputs: Inputs) -> List[Oracle]:
    return [Oracle(inputs.u, a, b, FIELD.p)
            for a, b in zip(inputs.streams_a, inputs.streams_b)]


def prepare(name: str, seed: int, smoke: bool):
    """Everything before the first timed slot: inputs, oracles, nodes and
    one warm-up pass (the smoke-sized schedule, so every kind is touched)."""
    inputs = build(spec_for(name, smoke), seed)
    oracles = make_oracles(inputs)
    warm = build(spec_for(name, smoke=True), seed)
    deployment = Deployment(inputs.spec.transport)
    try:
        record = run_pass(warm, deployment, make_oracles(warm), NULL, -1)
        if record.failures:
            raise RuntimeError("warm-up failed: %s" % record.failures[:3])
    except BaseException:
        deployment.stop()
        raise
    return inputs, oracles, deployment


def measure(inputs, oracles, deployment, tracers, first_pass=0,
            restart=None, between=None):
    """One pass per tracer; ``restart`` gives every pass fresh server
    state (default: what the workload's spec says); ``between`` is called
    before every pass but the first."""
    if restart is None:
        restart = inputs.spec.restart_nodes
    records = []
    for index, tracer in enumerate(tracers):
        if index and between:
            between()
        if index and restart:
            deployment.restart()
        # As timeit does: no cyclic collection inside a timed pass (where
        # one lands depends on the allocation count, i.e. on the seed).
        gc.collect()
        gc.disable()
        try:
            records.append(run_pass(inputs, deployment, oracles, tracer,
                                    first_pass + index))
        finally:
            gc.enable()
    return records


def tamper_probe(inputs: Inputs, deployment) -> bool:
    """A flipped prover word must be rejected (checked outside the timed
    region, reported under checks)."""
    session = open_session(deployment, inputs.u, 999_000, inputs.seed,
                           tamper=flip_word(1))
    try:
        session.provision({("range-sum",): 1})
        session.ingest(inputs.streams_a[0])
        answer = session.query((inputs.joiner_probe[0],))
        return not answer.results[0].accepted
    finally:
        session.close()


def validate(records: List[PassRecord], deployment) -> List[str]:
    problems = [f for r in records for f in r.failures]
    for index, record in enumerate(records[1:], 1):
        if record.counts != records[0].counts:
            problems.append("pass %d counts %r differ from pass 0 %r"
                            % (index, record.counts, records[0].counts))
    faults = sum(r.faults for r in records)
    if faults:
        problems.append("%d retries/reconnects/refusals" % faults)
    if deployment.router is not None:
        failovers = deployment.router.stats()["failovers"]
        if failovers:
            problems.append("%d cluster failovers" % failovers)
    return problems


def end_to_end(records: List[PassRecord], setup_s: float,
               deployment) -> Dict[str, float]:
    counts = records[0].counts
    requests = slot_best(records, "request_s")
    return {
        "setup_s": setup_s,
        "queries_per_s": counts["descriptors"] / sum(requests),
        "query_p50_s": percentile(requests, 0.50),
        "query_p95_s": percentile(requests, 0.95),
        "ingest_updates_per_s":
            counts["updates"] / sum(slot_best(records, "ingest_s")),
        "session_ready_s": statistics.median(slot_best(records, "join_s")),
        "words_per_query": counts["words"] / counts["descriptors"],
        "wire_bytes_per_query": counts["wire_bytes"] / counts["descriptors"],
        "verifier_space_words": float(counts["space_words"]),
        "peak_rss_mb": vm_hwm_mb() + deployment.peak_rss_mb(),
    }


# -- the traced run --------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _kind_times(inputs: Inputs, records: List[PassRecord]) -> Dict[str, dict]:
    """Per request kind, its median slot: slot-best in-process time and
    the open / prover parts measured in that same pass."""
    total = slot_best(records, "request_s")
    opened = at_best(records, "request_s", "open_s")
    proved = at_best(records, "request_s", "prover_s")
    by_kind: Dict[str, list] = {}
    for slot, request in enumerate(inputs.requests):
        by_kind.setdefault(request.kind, []).append(slot)
    out = {}
    for kind, slots in by_kind.items():
        slot = sorted(slots, key=lambda s: total[s])[len(slots) // 2]
        out[kind] = {"total": total[slot], "open": opened[slot],
                     "prover": proved[slot]}
    return out


@dataclass
class Lane:
    """Dataset 0's traffic through one transport: the passes that carried
    it and where its slots sit in them."""

    deployment: object
    records: List[PassRecord]
    requests: Sequence[int]   # dataset 0's request slots, schedule order
    ingests: Sequence[int]    # dataset 0's ingest slots

    def best(self, attr: str, slots: Sequence[int]) -> List[float]:
        values = slot_best(self.records, attr)
        return [values[s] for s in slots]


def layer_metrics(inputs: Inputs, oracles, deployment, untraced, traced,
                  report, smoke: bool) -> Dict[str, float]:
    """Every per-layer metric, measured from outside.

    Dataset 0's requests travel three lanes: replayed in-process, sent to
    one node, sent through the 3-node router.  One lane is the workload
    itself (its traced passes); the other two are side deployments that
    run the same requests twice.  The in-process lane is split by spans
    into registry / prover / verifier; what the wire adds on top is
    ``service.frame_overhead_s`` and what the router adds on top of that
    is ``cluster.relay_overhead_s`` — residuals, so the layers sum to the
    request as the cluster serves it, by construction.
    """
    spec, seed = inputs.spec, inputs.seed
    out = probes.field_probes(seed, 1 << 14 if smoke else probes.FIELD_ELEMS)
    out.update(probes.lde_probe(inputs.u, inputs.streams_a[0], seed))
    out.update(probes.comm_probes(seed))
    out.update(probes.router_probe(inputs.requests))
    out.update(probes.registry_probes(inputs.u, inputs.streams_a[0], OUT_DIR))

    own = [s for s, r in enumerate(inputs.requests) if r.dataset == 0]
    chunks = sum(-(-len(stream[0]) // spec.ingest_chunk)
                 for stream in (inputs.streams_a, inputs.streams_b))
    lanes: Dict[str, Lane] = {
        spec.transport: Lane(deployment, traced, own, range(chunks))}
    problems: List[str] = []
    with ExitStack() as stack:
        # The in-process lane also runs one request of every kind a
        # per-kind metric needs and dataset 0's schedule lacks; an
        # in-process workload runs only those on the side.
        for kind in ("inproc", "service", "cluster"):
            extras = tuple(KIND_METRICS) if kind == "inproc" else ()
            if kind == spec.transport and not extras:
                continue
            side_inputs = lane(inputs, extras,
                               keep_requests=kind != spec.transport)
            side = Deployment(kind)
            stack.callback(side.stop)
            tracer = Tracer() if kind == "inproc" else NULL
            records = measure(side_inputs, oracles[:1], side, [tracer] * 2,
                              first_pass=100, restart=kind == "inproc")
            problems += validate(records, side)
            if kind == "inproc":
                tracer.dump(os.path.join(
                    OUT_DIR, "spans-%s-%d-inproc.jsonl" % (spec.name, seed)))
                kinds = _kind_times(side_inputs, records)
            if kind != spec.transport:
                lanes[kind] = Lane(side, records, range(len(own)),
                                   range(chunks))
        if problems:
            raise RuntimeError("side lanes failed: %s" % problems[:3])
        _lane_metrics(out, lanes, kinds, inputs, untraced, traced, report)
    return out


def _lane_metrics(out, lanes: Dict[str, Lane], kinds, inputs: Inputs,
                  untraced, traced, report) -> None:
    inproc, service, cluster = (lanes[k] for k in
                                ("inproc", "service", "cluster"))
    if inputs.spec.transport == "inproc":
        kinds.update(_kind_times(inputs, traced))
    for kind, name in KIND_METRICS.items():
        out[name] = kinds[kind]["total"]
    core = [kinds[k] for k in KIND_METRICS if k != "f2_workers2"]
    run_s = sum(k["total"] - k["open"] for k in core)
    prover_s = sum(k["prover"] for k in core)
    out["core.prover_share"] = prover_s / run_s
    out["core.verifier_check_s"] = (run_s - prover_s) / len(core)
    out["registry.open_query_s"] = kinds["range_sum"]["open"]
    out["pool.f2_speedup"] = \
        kinds["f2"]["total"] / kinds["f2_workers2"]["total"]

    counts = traced[0].counts
    out["comm.rounds_per_query"] = counts["rounds"] / counts["requests"]
    out["harness.slot_spread"] = slot_spread(untraced)
    out["harness.trace_overhead_share"] = \
        sum(slot_best(traced, "request_s")) \
        / sum(slot_best(untraced, "request_s")) - 1.0

    # The service layer, from every slot of the single-node lane.
    records, counts = service.records, service.records[0].counts
    request_s = slot_best(records, "request_s")
    wire_s = at_best(records, "request_s", "wire_s")
    out["service.frames_per_query"] = counts["frames"] / counts["requests"]
    out["service.round_trips_per_query"] = \
        counts["frames"] / 2 / counts["requests"]
    out["service.wire_wait_share"] = sum(wire_s) / sum(request_s)
    out["service.verify_s"] = statistics.median(
        t - w for t, w in zip(request_s, wire_s))
    out["service.ingest_wire_share"] = \
        sum(at_best(records, "ingest_s", "ingest_wire_s")) \
        / sum(slot_best(records, "ingest_s"))
    out["service.replay_updates_per_s"] = \
        counts["replayed"] / sum(slot_best(records, "replay_s"))
    out["service.dial_s"] = statistics.median(slot_best(records, "dial_s"))
    session = open_session(service.deployment, inputs.u, 998_000, inputs.seed)
    try:
        out.update(probes.rtt_probe(session))
    finally:
        session.close()

    # The cluster layer: the router lane against the single-node lane.
    out["cluster.hello_s"] = statistics.median(
        slot_best(cluster.records, "dial_s"))
    out["cluster.fanout_ingest_ratio"] = \
        sum(service.best("ingest_s", service.ingests)) \
        / sum(cluster.best("ingest_s", cluster.ingests))
    router = cluster.deployment.router.router
    primaries = [
        router.replicas(dataset_id(p, d))[0]
        for p in range(inputs.spec.passes)
        for d in range(len(inputs.spec.requests))]
    per_node = [primaries.count(n.name) for n in cluster.deployment.nodes]
    out["cluster.primary_skew"] = float(max(per_node) - min(per_node))

    # One request of dataset 0, outside-in.
    base = {attr: [values[s] for s in inproc.requests]
            for attr, values in (
                ("total", slot_best(inproc.records, "request_s")),
                ("open", at_best(inproc.records, "request_s", "open_s")),
                ("prover", at_best(inproc.records, "request_s", "prover_s")))}
    on_node = service.best("request_s", service.requests)
    routed = cluster.best("request_s", cluster.requests)
    out["service.frame_overhead_s"] = _mean(
        n - t for n, t in zip(on_node, base["total"]))
    out["cluster.relay_overhead_s"] = _mean(
        r - n for r, n in zip(routed, on_node))
    rows = [
        ("registry.open_query", _mean(base["open"])),
        ("core.prover", _mean(base["prover"])),
        ("core.verifier", _mean(t - o - p for t, o, p in zip(
            base["total"], base["open"], base["prover"]))),
        ("service.frame_overhead", out["service.frame_overhead_s"]),
        ("cluster.relay_overhead", out["cluster.relay_overhead_s"]),
    ]
    report("")
    report("one request of dataset 0, outside-in (mean of slot-best "
           "seconds over %d slots)" % len(on_node))
    for name, seconds in rows:
        report("  %-24s %10.6f" % (name, seconds))
    report("  %-24s %10.6f  (in-process %.6f, one node %.6f, "
           "3-node router %.6f)"
           % ("sum", sum(s for _n, s in rows), _mean(base["total"]),
              _mean(on_node), _mean(routed)))


def report_spans(report, name: str, tracer: Tracer) -> None:
    """Span self times of the traced passes; they sum to the root spans."""
    selfs = tracer.self_times()
    roots = tracer.root_time()
    report("")
    report("span self times, traced passes of %s (s)" % name)
    for span in sorted(selfs, key=selfs.get, reverse=True):
        report("  %-24s %10.4f  %5.1f%%"
               % (span, selfs[span], 100 * selfs[span] / roots))
    report("  %-24s %10.4f  (root spans: %.4f)"
           % ("sum", sum(selfs.values()), roots))


# -- one workload ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool, import_s: float, report) -> dict:
    spec = spec_for(name, smoke)
    passes = spec.passes if smoke else \
        max(2, round(spec.passes * seconds / RUN_SECONDS))
    repeats = 1 if smoke else SETUP_REPEATS

    prepare_s = []

    def timed_prepare():
        t0 = time.perf_counter()
        prepared = prepare(name, seed, smoke)
        prepare_s.append(time.perf_counter() - t0)
        return prepared

    def set_up_again():
        """The other set-up samples, one between two passes each: a burst
        of host noise lasts seconds, so back-to-back repeats share it."""
        if len(prepare_s) < repeats:
            timed_prepare()[2].stop()

    inputs, oracles, deployment = timed_prepare()

    os.makedirs(OUT_DIR, exist_ok=True)
    gc.collect()
    gc.freeze()  # the generated inputs are the bench's, not the program's
    values: Dict[str, float] = {}
    try:
        t0 = time.perf_counter()
        tracer = Tracer()
        # A traced run alternates untraced and traced passes, two each at
        # most: its side lanes need the rest of the time.
        tracers = [NULL, tracer] * min(2, passes // 2) if trace \
            else [NULL] * passes
        records = measure(inputs, oracles, deployment, tracers,
                          between=set_up_again)
        setup_s = import_s + statistics.median(prepare_s)
        untraced = records[0::2] if trace else records
        report("%s — %s" % (name, spec.why))
        report("wall: %d passes with set-ups between them %.1f s; set-ups %s s"
               % (len(records), time.perf_counter() - t0,
                  " ".join("%.2f" % s for s in prepare_s)))
        problems = validate(records, deployment)
        if not tamper_probe(inputs, deployment):
            problems.append("tamper probe: a flipped prover word was accepted")
        if not problems:
            spread = slot_spread(untraced)
            report("checks: every answer equals the oracle, counts identical "
                   "in %d passes, no retry/reconnect/failover, tamper probe "
                   "rejected" % len(records))
            report("%d slots/pass (%d requests, %d joins), "
                   "harness.slot_spread %.3f%s"
                   % (sum(len(getattr(records[0], a))
                          for a in ("ingest_s", "join_s", "request_s")),
                      len(records[0].request_s), len(records[0].join_s),
                      spread, "  [noisy]" if spread > NOISY_SPREAD else ""))
            if trace:
                report_spans(report, name, tracer)
                tracer.dump(os.path.join(OUT_DIR, "spans-%s-%d.jsonl"
                                         % (name, seed)))
                values = layer_metrics(inputs, oracles, deployment, untraced,
                                       records[1::2], report, smoke)
            else:
                values = end_to_end(records, setup_s, deployment)
    finally:
        deployment.stop()
        gc.unfreeze()

    for problem in problems[:20]:
        report("FAILED: %s" % problem)
    report("")
    result = {"correct": not problems,
              "attempted": max(1, sum(r.attempted for r in records)),
              "failed": sum(len(r.failures) for r in records), "metrics": {}}
    for row in (M.PER_LAYER if trace else M.END_TO_END) if values else ():
        metric, unit = row[0], row[1]
        report("%-36s %16.6f %s" % (metric, values[metric], unit))
        result["metrics"][metric] = {"value": values[metric], "unit": unit}
    return result
