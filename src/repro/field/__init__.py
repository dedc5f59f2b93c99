"""Finite-field substrate: primes, ``Z_p`` arithmetic, polynomials."""

from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.field.polynomial import evaluate_from_evals
from repro.field.vectorized import (
    HAVE_NUMPY,
    ScalarBackend,
    VectorizedField,
    get_backend,
)
from repro.field.primes import (
    MERSENNE_61,
    MERSENNE_127,
    field_prime_for,
    is_prime,
    next_prime,
)

__all__ = [
    "DEFAULT_FIELD",
    "HAVE_NUMPY",
    "MERSENNE_61",
    "MERSENNE_127",
    "PrimeField",
    "ScalarBackend",
    "VectorizedField",
    "evaluate_from_evals",
    "field_prime_for",
    "get_backend",
    "is_prime",
    "next_prime",
]
