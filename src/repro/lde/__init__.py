"""Low-degree-extension substrate: χ bases, streaming evaluation, dyadic ranges."""

from repro.lde.canonical import (
    cover_is_partition,
    dyadic_cover,
    node_range,
    range_indicator_eval,
)
from repro.lde.chi import (
    chi_table,
    chi_value,
    digits,
    from_digits,
    monomial_weight,
    multilinear_chi,
)
from repro.lde.streaming import MultipointStreamingLDE, StreamingLDE, dimension_for

__all__ = [
    "MultipointStreamingLDE",
    "StreamingLDE",
    "chi_table",
    "chi_value",
    "cover_is_partition",
    "digits",
    "dimension_for",
    "dyadic_cover",
    "from_digits",
    "monomial_weight",
    "multilinear_chi",
    "node_range",
    "range_indicator_eval",
]
