"""Adversaries: cheating provers and in-flight tampering.

Message-level tampering hooks live in :mod:`repro.comm.channel`
(:func:`flip_word`, :func:`drop_last_word`, :func:`replace_payload`); the
semantic cheating strategies live here.
"""

from repro.adversary.cheating_provers import (
    AdaptiveF2Cheater,
    AlteringSubVectorProver,
    ConcealingHeavyHittersProver,
    InflatingHeavyHittersProver,
    InjectingSubVectorProver,
    ModifiedStreamF2Prover,
    OffsetClaimF2Prover,
    OmittingHeavyHittersProver,
    OmittingSubVectorProver,
    OutOfRangeHeavyHittersProver,
    PerQueryCheatingBatchEngine,
    RetryAdaptiveCheater,
    RetryAdaptiveF2Cheater,
    RetryAdaptiveLookupCheater,
    corrupted_copy,
)
from repro.comm.channel import drop_last_word, flip_word, replace_payload

__all__ = [
    "AdaptiveF2Cheater",
    "AlteringSubVectorProver",
    "ConcealingHeavyHittersProver",
    "InflatingHeavyHittersProver",
    "InjectingSubVectorProver",
    "ModifiedStreamF2Prover",
    "OffsetClaimF2Prover",
    "OmittingHeavyHittersProver",
    "OmittingSubVectorProver",
    "OutOfRangeHeavyHittersProver",
    "PerQueryCheatingBatchEngine",
    "RetryAdaptiveCheater",
    "RetryAdaptiveF2Cheater",
    "RetryAdaptiveLookupCheater",
    "corrupted_copy",
    "drop_last_word",
    "flip_word",
    "replace_payload",
]
