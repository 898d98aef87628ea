"""Instrumented parallel primitives: PACK, HISTOGRAM, scans, reductions."""

from repro.primitives.bitops import (
    bit_length64,
    sorted_member_mask,
    sorted_unique,
)
from repro.primitives.histogram import (
    HistogramResult,
    dense_histogram,
    histogram,
)
from repro.primitives.pack import filter_by, pack, pack_index
from repro.primitives.scan import (
    exclusive_scan,
    inclusive_scan,
    reduce_max,
    reduce_sum,
)

__all__ = [
    "HistogramResult",
    "bit_length64",
    "dense_histogram",
    "exclusive_scan",
    "filter_by",
    "histogram",
    "inclusive_scan",
    "pack",
    "pack_index",
    "reduce_max",
    "reduce_sum",
    "sorted_member_mask",
    "sorted_unique",
]
