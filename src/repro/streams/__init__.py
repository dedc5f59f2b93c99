"""Stream model, synthetic workloads and the key-value-store scenario."""

from repro.streams.generators import (
    key_value_pairs,
    paired_streams_for_join,
    sparse_stream,
    turnstile_stream,
    uniform_frequency_stream,
    zipf_stream,
)
from repro.streams.kvstore import (
    DuplicateKeyError,
    KVStreamEncoder,
    OutsourcedKVStore,
)
from repro.streams.model import Stream, StreamStats, UniverseError, Update

__all__ = [
    "DuplicateKeyError",
    "KVStreamEncoder",
    "OutsourcedKVStore",
    "Stream",
    "StreamStats",
    "UniverseError",
    "Update",
    "key_value_pairs",
    "paired_streams_for_join",
    "sparse_stream",
    "turnstile_stream",
    "uniform_frequency_stream",
    "zipf_stream",
]
