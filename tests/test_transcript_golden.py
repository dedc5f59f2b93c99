"""Golden transcripts: absolute bytes, pinned across commits.

Every other transcript suite is differential (batched == standalone,
scalar == vectorized, wire == in-process), so a refactor that moved all
of them together would pass.  This file pins, per protocol and per
backend, ``sha256(encode_transcript(...))`` of one fixed-seed run plus
the verified value and the verifier's space — generated at commit
a5e7b64; ``fk1``, ``fk2``, ``fk5`` and ``two-order-batch`` at e710c65,
before the moment kernel replaced the line stack under them; the two
``gkr-*`` runs at 9472e4e, while the scalar backend still ran its own
per-gate layer prover; the five single-query ``*-wire`` rows at
16bbfa5, while the service still proved a lone F2, Fk, INNER-PRODUCT or
RANGE-SUM query outside the batched engine; the two ``*-u1024`` runs at
37705d0, while every round of a vectorized proof still ran on NumPy —
their folds reach ``SMALL_TABLE`` mid-proof, where a ``U = 64`` run's
first fold already does; the two ``*-u65536`` runs at 2835c7d, while
every proof still folded its whole dense table from round 0 — a few
hundred Zipf keys in 2^16, so a proof whose early rounds touch few pairs;
the three ``heavy-hitters*`` rows and the two ``sparse-*-u2^48`` rows at
52b13e8, while heavy hitters still built its own count pyramid and the
sparse provers their own scatter-pass tables — 2 355 keys in 2^48, above
the sparse provers' NumPy cut-over then; since those dictionary provers
went they are the engine's and the tree prover's proofs from a key
``Counter`` (``python tests/test_transcript_golden.py`` prints the table).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from repro.comm.channel import Channel, flip_word
from repro.comm.wire import encode_transcript
from repro.core.f2 import F2Verifier, run_f2
from repro.core.f2_general import (
    GeneralF2Prover,
    GeneralF2Verifier,
    run_general_f2,
)
from repro.core.fk import FkVerifier, run_fk
from repro.core.frequency_based import (
    FrequencyBasedProver,
    FrequencyBasedVerifier,
    default_phi,
    run_frequency_based,
)
from repro.core.heavy_hitters import (
    HeavyHittersProver,
    HeavyHittersVerifier,
    run_heavy_hitters,
)
from repro.core.inner_product import (
    InnerProductVerifier,
    run_inner_product,
)
from repro.core.multiquery import (
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batch_range_sum,
    run_batched_sumcheck,
)
from repro.core.range_sum import RangeSumVerifier, run_range_sum
from repro.core.subvector import SubVectorProver, TreeHashVerifier, run_subvector
from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, get_backend
from repro.gkr.circuits import ADD, MUL, Gate, LayeredCircuit, f2_circuit
from repro.gkr.protocol import GKRProver, StreamingGKRVerifier, run_gkr
from repro.service import (
    ProverServer,
    ServiceClient,
    f2,
    fk,
    heavy_hitters,
    inner_product,
    range_sum,
)
from repro.streams.generators import zipf_stream

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])

U = 64


def _updates(seed, u=U, n=80):
    rng = random.Random(seed)
    return [(rng.randrange(u), rng.randrange(1, 6)) for _ in range(n)]


UPDATES_A = _updates(101)
UPDATES_B = _updates(102, n=40)

#: A universe whose proof tables shrink past ``SMALL_TABLE`` mid-proof.
U_LARGE = 1 << 10
LARGE_A = _updates(105, u=U_LARGE, n=600)
LARGE_B = _updates(106, u=U_LARGE, n=300)


#: A universe a few hundred Zipf keys leave almost empty: most pairs of a
#: proof's early rounds hold two zeros.
U_SPARSE = 1 << 16
SPARSE_A = list(zipf_stream(U_SPARSE, 600, rng=random.Random(107)).updates())
SPARSE_B = SPARSE_A[:200] + list(
    zipf_stream(U_SPARSE, 200, rng=random.Random(108)).updates())

#: A strict Zipf stream over ``U_LARGE``: a few heavy keys, and heavy
#: parents on every level down to the leaves.
HEAVY_A = list(zipf_stream(U_LARGE, 2000, rng=random.Random(109)).updates())

#: Keys enough that their compact tables pass ``SMALL_TABLE`` entries
#: and run on NumPy, in a universe no dense table fits: most scattered, a run of them packed close enough
#: that their pairs share ids from round 0.
U_HUGE = 1 << 48
_HUGE_RNG = random.Random(110)
HUGE_A = [(_HUGE_RNG.randrange(U_HUGE), _HUGE_RNG.randrange(1, 6))
          for _ in range(1800)] + [
    ((1 << 40) + _HUGE_RNG.randrange(1000), _HUGE_RNG.randrange(1, 6))
    for _ in range(800)]


def _digest(transcript) -> str:
    return hashlib.sha256(encode_transcript(F, transcript)).hexdigest()


def _single(result, channel):
    return _digest(channel.transcript), result.value, \
        result.verifier_space_words


def _batch(results, channel):
    return (_digest(channel.transcript), [r.value for r in results],
            results[0].verifier_space_words)


def _feed(updates, *parties):
    for i, delta in updates:
        for party in parties:
            party.process(i, delta)


def golden_f2(be, tamper=None):
    prover = BatchedSumcheckEngine(F, U, backend=be)
    verifier = F2Verifier(F, U, rng=random.Random(1))
    _feed(UPDATES_A, prover, verifier)
    channel = Channel(tamper=tamper)
    return _single(run_f2(prover, verifier, channel), channel)


def golden_f2_tampered(be):
    """A rejected run: pins where the loop stops talking."""
    return golden_f2(be, tamper=flip_word(2))


def golden_fk(be, k=3):
    prover = BatchedSumcheckEngine(F, U, backend=be)
    verifier = FkVerifier(F, U, k, rng=random.Random(2))
    _feed(UPDATES_A, prover, verifier)
    channel = Channel()
    return _single(run_fk(prover, verifier, channel), channel)


def golden_inner_product(be):
    prover = BatchedSumcheckEngine(F, U, backend=be)
    verifier = InnerProductVerifier(F, U, rng=random.Random(3))
    for i, delta in UPDATES_A:
        prover.process_a(i, delta)
        verifier.process_a(i, delta)
    for i, delta in UPDATES_B:
        prover.process_b(i, delta)
        verifier.process_b(i, delta)
    channel = Channel()
    return _single(run_inner_product(prover, verifier, channel), channel)


def golden_range_sum(be):
    prover = BatchedSumcheckEngine(F, U, backend=be)
    verifier = RangeSumVerifier(F, U, rng=random.Random(4))
    _feed(UPDATES_A, prover, verifier)
    channel = Channel()
    return _single(run_range_sum(prover, verifier, 5, 40, channel), channel)


def golden_general_f2(be):
    u = 50  # not a power of three: the padded grid is 81
    prover = GeneralF2Prover(F, u, 3)
    verifier = GeneralF2Verifier(F, u, 3, rng=random.Random(5))
    _feed(_updates(103, u=u), prover, verifier)
    channel = Channel()
    return _single(run_general_f2(prover, verifier, channel), channel)


def golden_frequency_based(be):
    phi = default_phi(U)
    prover = FrequencyBasedProver(F, U, phi, backend=be)
    verifier = FrequencyBasedVerifier(F, U, phi, rng=random.Random(6))
    _feed(UPDATES_A, prover, verifier)
    channel = Channel()
    result = run_frequency_based(
        prover, verifier, lambda x: 0 if x == 0 else 1, channel
    )
    return _single(result, channel)


def golden_batch_range_sum(be):
    prover = BatchedSumcheckEngine(F, U, backend=be)
    verifier = RangeSumVerifier(F, U, rng=random.Random(7))
    _feed(UPDATES_A, prover, verifier)
    channel = Channel()
    results = run_batch_range_sum(
        prover, verifier, [(0, 9), (10, 63), (7, 7)], channel
    )
    return _batch(results, channel)


MIXED = [batch_range_sum(2, 50), batch_f2(), batch_fk(3),
         batch_inner_product(), batch_range_sum(0, 63)]


#: Two distinct moment orders beside F2: the members that share one pass
#: over the table per round.
TWO_ORDERS = [batch_f2(), batch_fk(3), batch_fk(4), batch_range_sum(5, 40),
              batch_inner_product()]


def golden_mixed_batch(be, queries=MIXED, seed=8, u=U,
                       updates=(UPDATES_A, UPDATES_B)):
    engine = BatchedSumcheckEngine(F, u, backend=be)
    verifier = BatchedSumcheckVerifier(F, u, rng=random.Random(seed))
    for i, delta in updates[0]:
        engine.process(i, delta)
        verifier.process_a(i, delta)
    for i, delta in updates[1]:
        engine.process_b(i, delta)
        verifier.process_b(i, delta)
    channel = Channel()
    results = run_batched_sumcheck(engine, verifier, queries, channel)
    return _batch(results, channel)


def golden_range_query(be):
    prover = SubVectorProver(F, U_LARGE, backend=be)
    verifier = TreeHashVerifier(F, U_LARGE, rng=random.Random(21))
    _feed(LARGE_A, prover, verifier)
    channel = Channel()
    result = run_subvector(prover, verifier, 100, 160, channel)
    return (_digest(channel.transcript), result.value.k,
            result.verifier_space_words)


def golden_lookup_and_scan(be):
    """A point lookup and a range scan, one after the other on one
    prover."""
    prover = SubVectorProver(F, U_SPARSE, backend=be)
    verifier = TreeHashVerifier(F, U_SPARSE, rng=random.Random(22))
    _feed(SPARSE_A, prover, verifier)
    key = SPARSE_A[0][0]
    digests, counts = [], []
    for lo, hi in ((key, key), (1000, 21000)):
        channel = Channel()
        result = run_subvector(prover, verifier, lo, hi, channel)
        digests.append(_digest(channel.transcript))
        counts.append(result.value.k)
    return digests, counts, result.verifier_space_words


def golden_heavy_hitters(be, low_space=False, seed=24):
    phi = 0.02
    prover = HeavyHittersProver(F, U_LARGE, phi, backend=be)
    verifier = HeavyHittersVerifier(F, U_LARGE, phi, rng=random.Random(seed))
    _feed(HEAVY_A, prover, verifier)
    channel = Channel()
    result = run_heavy_hitters(prover, verifier, channel, low_space=low_space)
    return _single(result, channel)


def golden_sparse_f2(be):
    prover = BatchedSumcheckEngine(F, U_HUGE, backend=be, freq_a=Counter())
    verifier = F2Verifier(F, U_HUGE, rng=random.Random(26))
    _feed(HUGE_A, prover, verifier)
    channel = Channel()
    return _single(run_f2(prover, verifier, channel), channel)


def golden_sparse_range_query(be):
    prover = SubVectorProver(F, U_HUGE, backend=be, freq=Counter())
    verifier = TreeHashVerifier(F, U_HUGE, rng=random.Random(27))
    _feed(HUGE_A, prover, verifier)
    channel = Channel()
    result = run_subvector(prover, verifier, (1 << 40) + 100,
                           (1 << 40) + 700, channel)
    return (_digest(channel.transcript), result.value.k,
            result.verifier_space_words)


def _random_add_mul_circuit(seed):
    """Layers of 2, 4 and 8 random add/mul gates over 16 inputs, wires
    drawn with repetition so values fan out (and a gate may read one
    wire twice)."""
    rng = random.Random(seed)
    sizes = [2, 4, 8, 16]
    return LayeredCircuit(
        [
            [Gate(rng.choice([ADD, MUL]), rng.randrange(sizes[li + 1]),
                  rng.randrange(sizes[li + 1]))
             for _ in range(width)]
            for li, width in enumerate(sizes[:-1])
        ],
        input_size=16,
    )


def golden_gkr(be, circuit, updates, seed):
    prover = GKRProver(F, circuit, backend=be)
    verifier = StreamingGKRVerifier(F, circuit, rng=random.Random(seed),
                                    backend=be)
    _feed(updates, prover, verifier)
    channel = Channel()
    return _single(run_gkr(prover, verifier, channel), channel)


def _signed_updates(seed, u, n):
    rng = random.Random(seed)
    return [(rng.randrange(u), rng.randrange(-9, 10)) for _ in range(n)]


def _through_a_server(descriptors, pool_key, seed, tamper=None):
    handle = ProverServer(F).serve_in_thread()
    try:
        with ServiceClient(*handle.address, F, U, dataset_id=1,
                           rng=random.Random(seed), tamper=tamper) as client:
            client.provision(pool_key, 1)
            client.send_updates(UPDATES_A)
            client.send_updates(UPDATES_B, vector=1)
            outcomes = client.query(*descriptors)
    finally:
        handle.stop()
    assert len({id(o.transcript) for o in outcomes}) == 1  # one unit
    return (_digest(outcomes[0].transcript),
            [o.result.value for o in outcomes],
            outcomes[0].result.verifier_space_words)


def golden_mixed_batch_over_the_wire(be):
    return _through_a_server(
        [range_sum(2, 50), f2(), fk(3), inner_product(), range_sum(0, 63)],
        ("batch",), seed=9,
    )


def golden_range_batch_over_the_wire(be):
    return _through_a_server(
        [range_sum(0, 9), range_sum(10, 63), range_sum(7, 7)],
        ("range-sum",), seed=10,
    )


def golden_single_over_the_wire(descriptor, pool_key, seed, tamper=None):
    """One lone sum-check query through a server (a rejected one pins
    where the conversation stops)."""
    return _through_a_server([descriptor], pool_key, seed, tamper=tamper)


SCENARIOS = {
    "f2": golden_f2,
    "f2-tampered": golden_f2_tampered,
    "fk1": lambda be: golden_fk(be, 1),
    "fk2": lambda be: golden_fk(be, 2),
    "fk3": golden_fk,
    "fk5": lambda be: golden_fk(be, 5),
    "inner-product": golden_inner_product,
    "range-sum": golden_range_sum,
    "general-f2-ell3": golden_general_f2,
    "frequency-based-f0": golden_frequency_based,
    "gkr-f2": lambda be: golden_gkr(be, f2_circuit(U), UPDATES_A, seed=12),
    "gkr-random-add-mul": lambda be: golden_gkr(
        be, _random_add_mul_circuit(13), _signed_updates(104, 16, 60),
        seed=14),
    "batch-range-sum": golden_batch_range_sum,
    "mixed-batch": golden_mixed_batch,
    "two-order-batch": lambda be: golden_mixed_batch(be, TWO_ORDERS, seed=11),
    "mixed-batch-u1024": lambda be: golden_mixed_batch(
        be, [batch_range_sum(2, 500), batch_f2(), batch_fk(3),
             batch_inner_product(), batch_range_sum(37, 1023)],
        seed=20, u=U_LARGE, updates=(LARGE_A, LARGE_B)),
    "range-query-u1024": golden_range_query,
    "mixed-batch-u65536": lambda be: golden_mixed_batch(
        be, [batch_f2(), batch_range_sum(3300, 3400), batch_fk(3),
             batch_range_sum(5000, 30000), batch_inner_product(),
             batch_range_sum(1, U_SPARSE - 2)],
        seed=23, u=U_SPARSE, updates=(SPARSE_A, SPARSE_B)),
    "lookup-and-scan-u65536": golden_lookup_and_scan,
    "mixed-batch-wire": golden_mixed_batch_over_the_wire,
    "range-batch-wire": golden_range_batch_over_the_wire,
    "f2-wire": lambda be: golden_single_over_the_wire(f2(), ("f2",), 15),
    "fk3-wire": lambda be: golden_single_over_the_wire(fk(3), ("fk", 3), 16),
    "inner-product-wire": lambda be: golden_single_over_the_wire(
        inner_product(), ("inner-product",), 17),
    "range-sum-wire": lambda be: golden_single_over_the_wire(
        range_sum(5, 40), ("range-sum",), 18),
    "f2-wire-tampered": lambda be: golden_single_over_the_wire(
        f2(), ("f2",), 19, tamper=flip_word(2)),
    "heavy-hitters": golden_heavy_hitters,
    "heavy-hitters-low-space": lambda be: golden_heavy_hitters(
        be, low_space=True, seed=25),
    "heavy-hitters-wire": lambda be: golden_single_over_the_wire(
        heavy_hitters(1, 32), ("heavy-hitters", 1, 32), 28),
    "sparse-f2-u2^48": golden_sparse_f2,
    "sparse-range-query-u2^48": golden_sparse_range_query,
}

#: name -> (sha256 of the encoded transcript, value(s), verifier words);
#: the same on both backends.
GOLDEN = {
    "batch-range-sum": (
        "e1e2f0c4b4aef10074a8017418e7311b254550ebb5805304d44ae05a7ff7607d",
        [43, 187, 7], 22),
    "f2": (
        "861bd548951c62548e3697aefe7c77d51adb614c364fc2c1ff490beee28346d1",
        1510, 12),
    "f2-tampered": (
        "ae2f45a3756e0a11b8884ce2655f119d0c78aca200bc7f5fbc2c39731ece9ab6",
        None, 12),
    "f2-wire": (
        "543ac55c1cb2e0f810474b2ee3c2756a7882884fc5373c7b0c55ca339e2ad182",
        [1510], 12),
    "f2-wire-tampered": (
        "dc29ac8f6504855cc7c99e2ada45dc0af1e6fa85e1621ea8341a76c801aa1b71",
        [None], 12),
    "fk1": (
        "b5ff45ecd61f56f4a397a964034e969ffaf1a17d0b77663b2070ef89821208ae",
        230, 11),
    "fk2": (
        "6fba95ec196bcbd4d78b42d25c05ec059b9912877d65a1b2fd396fd8590d8803",
        1510, 12),
    "fk3": (
        "cf30a55d9a770ef25a9fb6a8f7e64b746cf617cf90e3aaa949cf6432b5506820",
        11780, 13),
    "fk3-wire": (
        "4a25449a0fa7bc2e8db3a84d2523d3b3470ced5ef849c0b4d65cb2b0df16a378",
        [11780], 13),
    "fk5": (
        "adef2e34fe14676048db3da5686441e3fb27d50ac5ec7ddfaf1a128e3c980ea0",
        999260, 15),
    "frequency-based-f0": (
        "fd9b8dbdd10cd67b06a138dfbf3cc5ff518d7c699e71224ea5890a2b495e0060",
        46, 103),
    "heavy-hitters": (
        "0040cab425061b32151e739e2501f3e502fa650794ab8f0be7f0ceb6c0812b4e",
        {194: 365, 415: 164, 483: 54, 566: 76, 570: 47, 710: 111}, 172),
    "heavy-hitters-low-space": (
        "8a14ce80236ae1a898d48f48ad3b3aab17f2475b3e9c2d5b45199c4e42d975be",
        {194: 365, 415: 164, 483: 54, 566: 76, 570: 47, 710: 111}, 172),
    "heavy-hitters-wire": (
        "95467bb4c85ddb1a5ee7685842e79e234de4421244672ea42e23d63df38bc5ce",
        [{19: 8, 28: 8, 30: 11, 40: 8, 44: 9, 46: 12, 58: 12}], 110),
    "general-f2-ell3": (
        "5a7d34b73d23f71d380c7a05bbb834b7620ad1b386909c69e5c5330b69e73187",
        2032, 12),
    "gkr-f2": (
        "441c179077bd17129e80cae91a5d34c742da03b7d91462c0ee6c78ae01f87f94",
        [1510], 62),
    "gkr-random-add-mul": (
        "913343b2f989a14555ad0586e108274d14602d595eefff9c4b67e4d5514e498a",
        [900, 8], 23),
    "inner-product": (
        "cb27342feb159f8218f1996ccf782cee6d52af052f58a269c1871bedc594b4e1",
        456, 13),
    "inner-product-wire": (
        "cfe51f6c292fe3ad2dc71961d1b8541f19f708f9deb63adf2547a0a2f796042a",
        [456], 13),
    "lookup-and-scan-u65536": (
        ["f5f09ce0d754f8341724871451c69204dd50ce767fbe79cf1e184c484e6c74f1",
         "2a52d279bb12aa0bc08ee907ee0ab60ed96cc699e93fad3c5d1a7abb85e05c43"],
        [1, 84], 81),
    "mixed-batch": (
        "96f1b368edd7d9382f78892582c7e285de4c1ad2058a83f658dbd3b16722646e",
        [182, 1510, 11780, 456, 230], 34),
    "mixed-batch-u1024": (
        "09943f0e3ac83727a35cf517845db59ffcdc6a1b0eed4e87f14710a16f84c529",
        [935, 10057, 67273, 1678, 1804], 38),
    "mixed-batch-u65536": (
        "f3252249c73f3cb7202c3f365e1624b9824b3f9b22c974a11425835cd263c030",
        [10758, 3, 589506, 163, 3536, 600], 49),
    "mixed-batch-wire": (
        "e7b8e2e02aadc3958c8fb6966c11f07ca3b582c09d73ef6a3b4bdf48c39e812e",
        [182, 1510, 11780, 456, 230], 34),
    "range-batch-wire": (
        "b6f6acbf14f50be6da48a69f9f3c8b93e41b7be954a955e3880ed4fd54039325",
        [43, 187, 7], 22),
    "range-query-u1024": (
        "db92fa5896419cea1cd682cdde25063da85a9b4801da8eeb7fcd61306669de5b",
        26, 51),
    # 13 verifier words when pinned: an INNER-PRODUCT verifier stood in
    # for the RANGE-SUM one; the engine reports RangeSumVerifier's d + 6.
    "range-sum": (
        "c1ff793b21449f2b87777c69aa22983c83af63138274240cae041f82b849b9d6",
        136, 12),
    # 13 verifier words when pinned: an INNER-PRODUCT verifier stood in
    # for the RANGE-SUM one; the engine reports RangeSumVerifier's d + 6.
    "range-sum-wire": (
        "6d65b59c24118198455a2dc5e0e1774d9d7b4f8ac7c3fbdfc6401f102beefea3",
        [136], 12),
    "sparse-f2-u2^48": (
        "5dc7d9a13a9b661a6ca03a44174305706ac79edbd607f7eb37c9e4ab00ebfac8",
        33692, 54),
    "sparse-range-query-u2^48": (
        "e25e4dfe813ae1ece88f1b288d2e9d41df765520efa61a56ac4fde35f325269a",
        332, 241),
    "two-order-batch": (
        "a04589a35016cf0e5d799e8508193ca2cfb0b91e74c5adcd824faf8bdf40e499",
        [1510, 11780, 103786, 136, 456], 36),
}


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_transcript_bytes_are_the_golden_ones(monkeypatch, name,
                                              backend_name):
    # The env var reaches the parties that take no backend argument
    # (streaming LDEs, the server's provers).
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    assert SCENARIOS[name](get_backend(F, backend_name)) == GOLDEN[name]


if __name__ == "__main__":
    import os

    for _name in sorted(SCENARIOS):
        rows = set()
        for _backend in BACKENDS:
            os.environ["REPRO_BACKEND"] = _backend
            rows.add(repr(SCENARIOS[_name](get_backend(F, _backend))))
        assert len(rows) == 1, (_name, rows)
        print("    %r: %s," % (_name, rows.pop()))
