"""Concurrent data structures: hash bag and bucketing structures."""

from repro.structures.buckets_base import BucketStructure
from repro.structures.fixed_buckets import DEFAULT_NUM_BUCKETS, FixedBuckets
from repro.structures.hash_bag import DEFAULT_LAMBDA, HashBag
from repro.structures.integer_pq import MonotoneIntPQ, dial_sssp
from repro.structures.hbs import (
    ADAPTIVE_THETA,
    SINGLE_KEY_BUCKETS,
    AdaptiveHBS,
    HierarchicalBuckets,
    bucket_index,
    bucket_indices,
)
from repro.structures.null_buckets import NullBuckets
from repro.structures.single_bucket import SingleBucket

__all__ = [
    "ADAPTIVE_THETA",
    "AdaptiveHBS",
    "BucketStructure",
    "DEFAULT_LAMBDA",
    "DEFAULT_NUM_BUCKETS",
    "FixedBuckets",
    "HashBag",
    "MonotoneIntPQ",
    "HierarchicalBuckets",
    "NullBuckets",
    "SINGLE_KEY_BUCKETS",
    "SingleBucket",
    "bucket_index",
    "dial_sssp",
    "bucket_indices",
]
