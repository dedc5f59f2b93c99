"""One pass over a workload's schedule, one closed-loop client.

A pass opens a writer session per dataset, streams the updates in timed
chunks, lets the late joiners catch up, then sends the request schedule
one request at a time — the next only after the previous answer has been
verified and compared with the oracle.  Every timed call is a *slot*;
the runner executes R identical passes and keeps each slot's best time.
A workload whose load phase (streaming and joining) is short beside its
requests repeats it inside the pass, so those slots get as much measured
time as the request slots do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from sessions import open_session


@dataclass
class PassRecord:
    ingest_s: List[float] = field(default_factory=list)
    ingest_wire_s: List[float] = field(default_factory=list)
    join_s: List[float] = field(default_factory=list)
    dial_s: List[float] = field(default_factory=list)
    replay_s: List[float] = field(default_factory=list)
    request_s: List[float] = field(default_factory=list)
    wire_s: List[float] = field(default_factory=list)
    open_s: List[float] = field(default_factory=list)
    prover_s: List[float] = field(default_factory=list)
    #: Everything that must be identical in every pass of every run.
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("descriptors", "requests", "words", "wire_bytes", "frames", "rounds",
         "space_words", "updates", "replayed"), 0))
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    faults: int = 0   # retries + reconnects + refusals seen by any client


def _chunks(pairs, size):
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def dataset_id(pass_index: int, dataset: int) -> int:
    """Fresh ids every pass, so long-lived nodes never reuse a dataset."""
    return 1000 * (pass_index + 1) + dataset


def failed_checks(oracle, descriptors, answer, label: str) -> List[str]:
    """One operation per descriptor: it fails on a verifier rejection or
    a verified value that differs from the oracle."""
    failures = []
    for descriptor, result in zip(descriptors, answer.results):
        if not result.accepted:
            failures.append("%s %s rejected: %s"
                            % (label, descriptor.name, result.reason))
        elif not oracle.matches(descriptor.kind, descriptor.params,
                                result.value):
            failures.append(
                "%s %s%r verified a value the oracle disagrees with"
                % (label, descriptor.name, descriptor.params))
    return failures


def tally(counts: Dict[str, int], descriptors, answer) -> None:
    counts["descriptors"] += len(descriptors)
    counts["requests"] += 1
    counts["words"] += answer.words
    counts["wire_bytes"] += answer.wire_bytes
    counts["frames"] += answer.frames
    counts["rounds"] += answer.rounds
    counts["space_words"] = max(
        counts["space_words"],
        max(r.verifier_space_words for r in answer.results))


def _close_all(sessions, record: PassRecord) -> None:
    while sessions:
        session = sessions.pop()
        record.faults += session.faults()
        try:
            session.close()
        except Exception as exc:
            record.failures.append("close failed: %r" % (exc,))


def run_pass(inputs, deployment, oracles, tracer,
             pass_index: int) -> PassRecord:
    record = PassRecord()
    sessions = []
    try:
        _run(inputs, deployment, oracles, tracer, pass_index, record,
             sessions)
    except Exception as exc:  # a failed operation ends the pass
        record.attempted += 1
        record.failures.append("pass %d aborted: %r" % (pass_index, exc))
    finally:
        _close_all(sessions, record)
    return record


#: The load phase's timed lists: the slot time, then what is read beside it.
LOAD_TIMES = (("ingest_s", "ingest_wire_s"), ("join_s", "replay_s"),
              ("dial_s",))


def _keep_best(record: PassRecord, part: PassRecord) -> None:
    """Fold one repeat of the load phase into its pass: every slot keeps
    its best time (and what was measured beside it); the counts must be
    the same in every repeat."""
    first = not record.ingest_s
    for primary, *beside in LOAD_TIMES:
        best, new = getattr(record, primary), getattr(part, primary)
        if first:
            for attr in (primary, *beside):
                getattr(record, attr).extend(getattr(part, attr))
            continue
        for slot, seconds in enumerate(new):
            if seconds < best[slot]:
                for attr in (primary, *beside):
                    getattr(record, attr)[slot] = getattr(part, attr)[slot]
    for name in ("updates", "replayed"):
        if first:
            record.counts[name] = part.counts[name]
        elif record.counts[name] != part.counts[name]:
            record.failures.append(
                "%s differ between repeats of the load phase: %d, %d"
                % (name, record.counts[name], part.counts[name]))
    record.attempted += part.attempted
    record.failures += part.failures


def _run(inputs, deployment, oracles, tracer, pass_index, record,
         sessions) -> None:
    spec = inputs.spec
    clock = time.perf_counter
    # The load phase (writers stream, late joiners catch up) runs
    # ``ingest_repeats`` times on fresh datasets; the last one's writers
    # answer the requests.
    for left in reversed(range(spec.ingest_repeats)):
        part = PassRecord()
        writers = _load(inputs, deployment, oracles, tracer,
                        "p%d.%d" % (pass_index, left), 100 * left
                        + dataset_id(pass_index, 0), part, sessions)
        _keep_best(record, part)
        if left:
            del writers  # with their datasets, before the next are loaded
            _close_all(sessions, record)
            if spec.restart_nodes:
                deployment.restart()

    for index, request in enumerate(inputs.requests):
        label = "p%d/r%d" % (pass_index, index)
        with tracer.span("query.request", request=label):
            t0 = clock()
            answer = writers[request.dataset].query(request.descriptors,
                                                    tracer)
            t1 = clock()
            if answer.frames:
                tracer.child("wire.wait", t0, t0 + answer.wire_s)
                tracer.child("client.verify", t0 + answer.wire_s, t1)
        record.request_s.append(t1 - t0)
        record.wire_s.append(answer.wire_s)
        record.open_s.append(answer.open_s)
        record.prover_s.append(answer.prover_s)
        tally(record.counts, request.descriptors, answer)
        record.attempted += len(request.descriptors)
        record.failures += failed_checks(
            oracles[request.dataset], request.descriptors, answer, label)


def _load(inputs, deployment, oracles, tracer, tag: str, first_id: int,
          record: PassRecord, sessions) -> list:
    """One load phase on datasets ``first_id, first_id + 1, ...``;
    returns the writer sessions, one per dataset."""
    spec, u = inputs.spec, inputs.u
    clock = time.perf_counter

    def connect(dataset: int, seed_salt: int, pools):
        """Dial + provision, as two spans; returns (session, dial seconds)."""
        t0 = clock()
        with tracer.span("session.dial"):
            session = open_session(
                deployment, u, first_id + dataset,
                seed=inputs.seed * 1000 + dataset * 10 + seed_salt)
        dial = clock() - t0
        sessions.append(session)
        with tracer.span("session.provision"):
            session.provision(pools)
        return session, dial

    writers = []
    for dataset in range(len(spec.requests)):
        with tracer.span("session.open", request="%s/d%d" % (tag, dataset)):
            writer, dial = connect(dataset, 0, inputs.provision[dataset])
        record.dial_s.append(dial)
        writers.append(writer)
        for vector, stream in ((0, inputs.streams_a[dataset]),
                               (1, inputs.streams_b[dataset])):
            for index, chunk in enumerate(_chunks(stream, spec.ingest_chunk)):
                wire0 = writer.wire_seconds
                with tracer.span("ingest.block", request="%s/d%d/v%d/i%d" % (
                        tag, dataset, vector, index)):
                    t0 = clock()
                    writer.ingest(chunk, vector)
                    record.ingest_s.append(clock() - t0)
                record.ingest_wire_s.append(writer.wire_seconds - wire0)
                record.counts["updates"] += len(chunk)
                record.attempted += 1

    for dataset in range(len(spec.requests)):
        for joiner in range(spec.joiners):
            label = "%s/d%d/j%d" % (tag, dataset, joiner)
            with tracer.span("session.join", request=label):
                t0 = clock()
                session, _dial = connect(dataset, 1 + joiner,
                                         inputs.joiner_provision)
                t1 = clock()
                with tracer.span("session.replay"):
                    record.counts["replayed"] += session.replay()
                t2 = clock()
            record.join_s.append(t2 - t0)
            record.replay_s.append(t2 - t1)
            # Proof that the joiner can query; part of the join operation.
            probe = (inputs.joiner_probe[dataset],)
            record.attempted += 1
            record.failures += failed_checks(
                oracles[dataset], probe, session.query(probe), label)
    return writers
