"""repro — Streaming Interactive Proofs.

A from-scratch reproduction of *"Verifying Computations with Streaming
Interactive Proofs"* (Cormode, Thaler, Yi; PVLDB 5(1), 2011): a verifier
observes a data stream in O(log u) space and afterwards runs a short
interactive protocol with an untrusted prover to obtain exact,
statistically-sound answers to queries that need linear space in the plain
streaming model.

Quick start::

    import random
    from repro import DEFAULT_FIELD, Stream, self_join_size_protocol

    stream = Stream.from_items(8, [1, 3, 3, 5, 7, 7, 7])
    result = self_join_size_protocol(stream, DEFAULT_FIELD,
                                     rng=random.Random(42))
    assert result.accepted and result.value == stream.self_join_size()

See README.md for the full tour and ROADMAP.md for the architecture.
"""

from repro.comm import Channel, Transcript
from repro.core import (
    BatchQuery,
    BatchedSumcheckEngine,
    BatchedSumcheckVerifier,
    DictionaryAnswer,
    F2Verifier,
    FkVerifier,
    IndependentCopies,
    InnerProductVerifier,
    KLargestProver,
    RangeSumVerifier,
    ReportingProver,
    SingleRoundF2Prover,
    SingleRoundF2Verifier,
    SubVectorAnswer,
    SubVectorProver,
    TreeHashVerifier,
    VerificationResult,
    build_reporting_session,
    dictionary_get,
    f0_protocol,
    fmax_protocol,
    frequency_based_protocol,
    frequency_moment_protocol,
    heavy_hitters_protocol,
    index_query,
    inner_product_protocol,
    inverse_distribution_protocol,
    k_largest_protocol,
    k_largest_query,
    predecessor_query,
    range_query,
    range_sum_protocol,
    batch_f2,
    batch_fk,
    batch_inner_product,
    batch_range_sum,
    run_batch_range_sum,
    run_batched_sumcheck,
    run_f2,
    run_fk,
    run_heavy_hitters,
    run_inner_product,
    run_range_sum,
    run_single_round_f2,
    run_subvector,
    self_join_size_protocol,
    single_round_f2_protocol,
    subvector_protocol,
    successor_query,
)
from repro.field import DEFAULT_FIELD, MERSENNE_61, MERSENNE_127, PrimeField
from repro.lde import StreamingLDE
from repro.streams import (
    KVStreamEncoder,
    OutsourcedKVStore,
    Stream,
    uniform_frequency_stream,
    zipf_stream,
)

__version__ = "1.0.0"

__all__ = [
    "Channel",
    "DEFAULT_FIELD",
    "DictionaryAnswer",
    "F2Verifier",
    "FkVerifier",
    "BatchQuery",
    "BatchedSumcheckEngine",
    "BatchedSumcheckVerifier",
    "IndependentCopies",
    "InnerProductVerifier",
    "KLargestProver",
    "KVStreamEncoder",
    "MERSENNE_61",
    "MERSENNE_127",
    "OutsourcedKVStore",
    "PrimeField",
    "RangeSumVerifier",
    "ReportingProver",
    "SingleRoundF2Prover",
    "SingleRoundF2Verifier",
    "Stream",
    "StreamingLDE",
    "SubVectorAnswer",
    "SubVectorProver",
    "Transcript",
    "TreeHashVerifier",
    "VerificationResult",
    "build_reporting_session",
    "dictionary_get",
    "f0_protocol",
    "fmax_protocol",
    "frequency_based_protocol",
    "frequency_moment_protocol",
    "heavy_hitters_protocol",
    "index_query",
    "inner_product_protocol",
    "inverse_distribution_protocol",
    "k_largest_protocol",
    "k_largest_query",
    "predecessor_query",
    "range_query",
    "range_sum_protocol",
    "batch_f2",
    "batch_fk",
    "batch_inner_product",
    "batch_range_sum",
    "run_batch_range_sum",
    "run_batched_sumcheck",
    "run_f2",
    "run_fk",
    "run_heavy_hitters",
    "run_inner_product",
    "run_range_sum",
    "run_single_round_f2",
    "run_subvector",
    "self_join_size_protocol",
    "single_round_f2_protocol",
    "subvector_protocol",
    "successor_query",
    "uniform_frequency_stream",
    "zipf_stream",
]
