"""RANGE-SUM on the dyadic fold against the dense-indicator oracle.

The oracle is ``reference_sumcheck.ReferenceProver``: the textbook
inner-product prover with b the explicit u-entry indicator of the query
range, on Python ints.  The dyadic prover must send the same words —
every round message, every transcript, on both backends and through the
service wire.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from reference_sumcheck import ReferenceProver
from repro.comm.channel import Channel
from repro.core.multiquery import BatchedSumcheckEngine, batch_range_sum
from repro.core.range_sum import RangeSumVerifier, run_range_sum
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.service import ProverServer, ServiceClient, range_sum

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

#: Universe sizes: a power of two and one that pads (100 -> 128).
UNIVERSES = [64, 100]


def range_cases(size):
    return {
        "single-key": (5, 5),
        "full-range": (0, size - 1),
        "pow2-aligned": (16, 31),
        "maximally-unaligned": (1, size - 2),
        "last-key": (size - 1, size - 1),
    }


def turnstile_updates(u, seed):
    """Inserts, deletions, a frequency past p and one below zero."""
    rng = random.Random(seed)
    updates = [(rng.randrange(u), rng.randint(-4, 9)) for _ in range(3 * u)]
    return updates + [(3, F.p + 11), (u - 1, -7)]


def loaded(backend_name, u, updates):
    prover = BatchedSumcheckEngine(F, u, backend=get_backend(F, backend_name))
    for key, delta in updates:
        prover.process(key, delta)
    return prover


CASES = [
    (backend, u, name)
    for backend in BACKENDS
    for u in UNIVERSES
    for name in range_cases(64)
]


@pytest.mark.parametrize("backend_name,u,case", CASES)
def test_round_messages_equal_the_dense_oracle(backend_name, u, case):
    updates = turnstile_updates(u, seed=u)
    dyadic = loaded(backend_name, u, updates)
    dense = ReferenceProver(F, u, updates)
    lo, hi = range_cases(dyadic.size)[case]
    rng = random.Random(7)
    for prover in (dyadic, dense):
        prover.receive_batch([batch_range_sum(lo, hi)])
    for _ in range(dyadic.d):
        (message,) = dyadic.round_messages()
        assert [message] == dense.round_messages()
        assert all(type(word) is int for word in message)
        challenge = rng.randrange(F.p)
        dyadic.receive_challenge(challenge)
        dense.receive_challenge(challenge)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_random_ranges_at_the_service_universe(backend_name):
    """u = 2^12: every round of twelve random ranges — each crossing
    from NumPy tables to Python ints on the vectorized backend, its wide
    nodes read as one segment — equals the dense oracle's."""
    u = 1 << 12
    updates = turnstile_updates(u, seed=12)
    dyadic = loaded(backend_name, u, updates)
    dense = ReferenceProver(F, u, updates)
    rng = random.Random(12)
    for _ in range(12):
        lo, hi = sorted(rng.randrange(u) for _ in range(2))
        for prover in (dyadic, dense):
            prover.receive_batch([batch_range_sum(lo, hi)])
        for _ in range(dyadic.d):
            assert dyadic.round_messages() == dense.round_messages(), (lo, hi)
            challenge = rng.randrange(F.p)
            dyadic.receive_challenge(challenge)
            dense.receive_challenge(challenge)


@pytest.mark.parametrize("backend_name,u,case", CASES)
def test_transcripts_equal_the_dense_oracle(backend_name, u, case):
    updates = turnstile_updates(u, seed=u + 1)
    point = F.rand_vector(random.Random(u), RangeSumVerifier(F, u).d)
    lo, hi = range_cases(1 << (u - 1).bit_length())[case]
    transcripts = []
    for dyadic in (True, False):
        verifier = RangeSumVerifier(F, u, point=point)
        verifier.process_stream(updates)
        channel = Channel()
        prover = (loaded(backend_name, u, updates) if dyadic
                  else ReferenceProver(F, u, updates))
        result = run_range_sum(prover, verifier, lo, hi, channel)
        assert result.accepted, result.reason
        # The oracle answer, straight from the stream.
        assert result.value == sum(
            delta for key, delta in updates if lo <= key <= hi) % F.p
        transcripts.append([
            (m.sender, m.round_index, m.label, m.payload)
            for m in channel.transcript.messages
        ])
    assert transcripts[0] == transcripts[1]


def test_the_indicator_is_never_materialised():
    """Not in the query, not when the proof begins, and not by a batch
    either: nothing of size u is allocated for a range."""
    size = 1 << 12
    tracemalloc.start()
    query = batch_range_sum(1, size - 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < size  # bytes: nothing of size u, not even briefly
    prover = BatchedSumcheckEngine(F, size)
    prover.receive_batch([query])
    assert prover._b_table is None and prover._freq_b is None
    (indicator,) = prover._dyadic
    assert len(indicator.nodes) <= 2 * prover.d

    # The engine's a-table is built once per batch; on top of it, four
    # more range members cost O(log u) nodes each — far below one
    # u-entry indicator (>= 8 bytes a word), let alone four.
    ranges = [(1, size - 2), (0, size - 1), (5, 5), (17, 3000)]

    def batch_peak(members):
        engine = BatchedSumcheckEngine(F, size)
        tracemalloc.start()
        engine.receive_batch([batch_range_sum(*r) for r in members])
        engine.round_messages()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert engine._b_table is None and engine._freq_b is None
        return peak

    assert batch_peak(ranges + ranges[:1]) - batch_peak(ranges[:1]) \
        < 8 * size


def test_proof_needs_a_query_first():
    prover = BatchedSumcheckEngine(F, 16)
    with pytest.raises(RuntimeError):
        prover.round_messages()


def _served_transcript(prover_wrapper, u, updates, lo, hi):
    handle = ProverServer(F, prover_wrapper=prover_wrapper).serve_in_thread()
    try:
        host, port = handle.address
        with ServiceClient(host, port, F, u, dataset_id=1,
                           rng=random.Random(23)) as client:
            client.provision(("range-sum",), 1)
            client.send_updates(updates)
            (outcome,) = client.query(range_sum(lo, hi))
    finally:
        handle.stop()
    assert outcome.result.accepted, outcome.result.reason
    return outcome.result.value, [
        (m.sender, m.round_index, m.label, m.payload)
        for m in outcome.transcript.messages
    ]


def test_served_transcript_equals_the_dense_oracle():
    """Through the wire: the router's engine over the dataset's shared
    table, against a server whose prover is swapped for the dense one."""
    u, lo, hi = 100, 1, 126
    updates = [(key, delta) for key, delta in turnstile_updates(u, seed=5)
               if abs(delta) < 100]  # the wire carries small signed deltas

    def dense(unit, prover, dataset):
        return ReferenceProver(F, dataset.u, (
            (key, delta) for vector, key, delta in dataset.log
            if vector == 0))

    assert (_served_transcript(None, u, updates, lo, hi)
            == _served_transcript(dense, u, updates, lo, hi))
