"""One verifier session, over the wire or in-process, behind one surface.

:class:`ServiceSession` is a `ServiceClient`; :class:`InprocSession`
drives the same layers without sockets — `SessionRegistry` for the
server side, `QueryRouter.make_verifier/run` and the `lde` batched
ingest for the client side.  Both only call public functions, and both
answer :meth:`query` with an :class:`Answer` so the pass runner and the
oracle check do not care which one they hold.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.comm.channel import Channel
from repro.comm.wire import transcript_wire_bytes
from repro.core.multiquery import IndependentCopies
from repro.field.modular import DEFAULT_FIELD as FIELD
from repro.lde.streaming import apply_stream_batched
from repro.service import QueryRouter, ServiceClient, SessionRegistry
from repro.service.server import REPLAY_BLOCK


@dataclass
class Answer:
    """One request (= one protocol execution), transport-neutral."""

    results: list            # VerificationResult per descriptor
    words: int               # Σ transcript words charged to the descriptors
    wire_bytes: int          # bytes both ways for the whole execution
    frames: int              # frames both ways (0 in-process)
    rounds: int
    wire_s: float = 0.0      # blocked on the socket
    open_s: float = 0.0      # in-process: prover materialisation
    prover_s: float = 0.0    # in-process, traced: inside the prover object


class ServiceSession:
    def __init__(self, address: Tuple[str, int], u: int, dataset_id: int,
                 seed: int, tamper=None):
        self.client = ServiceClient(
            address[0], address[1], FIELD, u, dataset_id=dataset_id,
            rng=random.Random(seed), tamper=tamper)

    def provision(self, pools: Dict[tuple, int]) -> None:
        for key, copies in pools.items():
            self.client.provision(key, copies)

    def ingest(self, pairs, vector: int = 0) -> None:
        self.client.send_updates(pairs, vector=vector)

    def replay(self) -> int:
        return self.client.replay_missed()

    def query(self, descriptors: Sequence, tracer=None) -> Answer:
        wire0 = self.client.wire_seconds
        outcomes = self.client.query(*descriptors)
        cost = outcomes[0].cost
        return Answer(
            results=[o.result for o in outcomes],
            words=sum(o.cost.transcript_words for o in outcomes),
            wire_bytes=cost.bytes_sent + cost.bytes_received,
            frames=cost.frames,
            rounds=outcomes[0].transcript.rounds,
            wire_s=self.client.wire_seconds - wire0,
        )

    @property
    def wire_seconds(self) -> float:
        return self.client.wire_seconds

    def faults(self) -> int:
        c = self.client
        return c.retries + c.reconnects + c.refusals

    def close(self) -> None:
        self.client.close()


class _TimedProver:
    """Forwards every call to the prover and adds up the time inside."""

    def __init__(self, prover):
        self._prover = prover
        self.seconds = 0.0

    def __getattr__(self, name):
        target = getattr(self._prover, name)
        if not callable(target):
            return target

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


class InprocSession:
    def __init__(self, registry: SessionRegistry, u: int, dataset_id: int,
                 seed: int, tamper=None):
        self.registry = registry
        self.u = u
        self.tamper = tamper
        self._rng = random.Random(seed)
        self._session = registry.connect(u, dataset_id)
        self._single: Dict[tuple, IndependentCopies] = {}
        self._paired: Dict[tuple, list] = {}   # two-LDE verifier families
        self.wire_seconds = 0.0

    def provision(self, pools: Dict[tuple, int]) -> None:
        for key, copies in pools.items():
            if key[0] in ("inner-product", "batch"):
                self._paired[key] = [
                    QueryRouter.make_verifier(
                        key, FIELD, self.u,
                        random.Random(self._rng.getrandbits(64)))
                    for _ in range(copies)
                ]
            else:
                self._single[key] = IndependentCopies(
                    copies,
                    lambda rng, key=key: QueryRouter.make_verifier(
                        key, FIELD, self.u, rng),
                    rng=self._rng,
                )

    def _feed(self, pairs, vector: int) -> None:
        if vector == 0:
            for copies in self._single.values():
                copies.process_stream_batched(pairs)
        for verifiers in self._paired.values():
            if verifiers:
                apply_stream_batched(
                    [v.lde_a if vector == 0 else v.lde_b for v in verifiers],
                    pairs, strict_u=self.u)

    def ingest(self, pairs, vector: int = 0) -> None:
        self._feed(pairs, vector)
        self._session.dataset.apply(vector, pairs)

    def replay(self) -> int:
        dataset = self._session.dataset
        for start in range(0, dataset.n_updates, REPLAY_BLOCK):
            by_vector: Dict[int, list] = {}
            for vector, key, delta in dataset.replay_slice(start,
                                                           REPLAY_BLOCK):
                by_vector.setdefault(vector, []).append((key, delta))
            for vector, pairs in sorted(by_vector.items()):
                self._feed(pairs, vector)
        return dataset.n_updates

    def query(self, descriptors: Sequence, tracer=None) -> Answer:
        (unit,) = QueryRouter.plan(list(descriptors))
        key = unit.pool_key
        verifier = (self._paired[key].pop() if key in self._paired
                    else self._single[key].take())
        traced = tracer is not None and tracer.enabled
        t0 = time.perf_counter()
        active = self.registry.open_query(
            self._session.session_id, list(unit.descriptors), unit.batched)
        t1 = time.perf_counter()
        prover = _TimedProver(active.prover) if traced else active.prover
        channel = Channel(tamper=self.tamper)
        try:
            result = QueryRouter.run(unit, prover, verifier, channel)
        finally:
            t2 = time.perf_counter()
            self._session.close_query(active.ref)
        prover_s = prover.seconds if traced else 0.0
        if traced:
            tracer.child("registry.open_query", t0, t1)
            tracer.child("core.prover", t1, t1 + prover_s)
            tracer.child("core.verifier", t1 + prover_s, t2)
        results = result if unit.batched else [result]
        words = (sum(channel.query_cost(i) for i in range(len(results)))
                 if unit.batched else channel.transcript.total_words)
        return Answer(
            results=results, words=words,
            wire_bytes=transcript_wire_bytes(FIELD, channel.transcript),
            frames=0, rounds=channel.transcript.rounds,
            open_s=t1 - t0, prover_s=prover_s,
        )

    def faults(self) -> int:
        return 0

    def close(self) -> None:
        self.registry.disconnect(self._session.session_id)


def open_session(deployment, u: int, dataset_id: int, seed: int, tamper=None):
    if deployment.transport == "inproc":
        return InprocSession(deployment.registry, u, dataset_id, seed, tamper)
    return ServiceSession(deployment.address, u, dataset_id, seed, tamper)
