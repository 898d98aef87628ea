"""Monotone integer priority queue over the HBS interval machinery.

The paper notes (Sec. 5) that its bucketing structure "provides the
interface of a special parallel priority queue with integer keys, which is
useful in many applications" — single-source shortest paths with small
integer weights (Dial / delta-stepping style), clique peeling, nucleus
decomposition.  This module packages the hierarchical interval layout as
a standalone *monotone* priority queue: extracted keys never decrease,
inserted keys must be at least the last extracted key (exactly the
discipline peeling and Dijkstra-with-integer-weights follow).

Unlike the k-core bucket structures (which share the framework's dtilde
array), the queue owns its key table, supports ``decrease_key``, and
extracts one ``(key, items)`` bucket at a time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BucketStructureError
from repro.primitives.bitops import sorted_unique
from repro.structures.flat_table import FlatHashTable
from repro.structures.hash_bag import HashBag
from repro.structures.hbs import interval_layout


class MonotoneIntPQ:
    """Monotone bucket priority queue with non-negative integer keys.

    Args:
        capacity: Expected maximum number of simultaneously-stored items
            (items are non-negative ints, e.g. vertex ids).
        max_key: Upper bound on keys (the layout is built to cover it and
            grows automatically if exceeded).
    """

    def __init__(self, capacity: int, max_key: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # Flat-array key table (item -> current key); replaces the boxed
        # dict so membership filtering at extraction is one bulk probe.
        self._keys = FlatHashTable(capacity)
        self._floor = 0  # extracted keys never go below this
        self._intervals = interval_layout(0, max(max_key, 8))
        self._bags = [HashBag(capacity) for _ in self._intervals]
        self._los = np.asarray(
            [lo for lo, _ in self._intervals], dtype=np.int64
        )
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def _bucket_of(self, key: int) -> int:
        idx = int(np.searchsorted(self._los, key, side="right")) - 1
        if idx < 0:
            raise BucketStructureError(
                f"key {key} below the monotone floor {self._los[0]}"
            )
        while idx >= len(self._bags) or key > self._intervals[-1][1]:
            lo = self._intervals[-1][1] + 1
            width = self._intervals[-1][1] - self._intervals[-1][0] + 1
            self._intervals.append((lo, lo + 2 * width - 1))
            self._bags.append(HashBag(self._capacity))
            self._los = np.asarray(
                [a for a, _ in self._intervals], dtype=np.int64
            )
            idx = int(np.searchsorted(self._los, key, side="right")) - 1
        return idx

    def insert(self, item: int, key: int) -> None:
        """Insert ``item`` with ``key`` (or update it to a smaller key)."""
        if key < self._floor:
            raise BucketStructureError(
                f"monotone violation: key {key} below floor {self._floor}"
            )
        if item in self._keys:
            self.decrease_key(item, key)
            return
        self._keys[item] = key
        self._bags[self._bucket_of(key)].insert(item)
        self._count += 1

    def decrease_key(self, item: int, key: int) -> None:
        """Lower ``item``'s key (no-op if the new key is not smaller)."""
        current = self._keys.get(item)
        if current is None:
            self.insert(item, key)
            return
        if key >= current:
            return
        if key < self._floor:
            raise BucketStructureError(
                f"monotone violation: key {key} below floor {self._floor}"
            )
        self._keys[item] = key
        # Lazy deletion: the old copy stays and is filtered at extraction.
        self._bags[self._bucket_of(key)].insert(item)

    def find_min_key(self) -> int | None:
        """Smallest key currently stored (None when empty)."""
        if self._count == 0:
            return None
        return self._keys.min_value()

    def extract_min_bucket(self) -> tuple[int, list[int]]:
        """Remove and return ``(key, items)`` for the smallest key.

        All items sharing the minimum key are returned together (the
        "frontier" shape peeling and parallel SSSP want).
        """
        while self._bags:
            if len(self._bags[0]) == 0:
                if len(self._bags) == 1:
                    break
                self._bags.pop(0)
                self._intervals.pop(0)
                self._los = self._los[1:]
                continue
            lo, hi = self._intervals[0]
            members = sorted_unique(self._bags[0].extract_all())
            # One bulk probe filters stale copies: a member is live iff
            # it still has a key (-1 marks absence; keys are >= 0) and
            # that key falls inside this interval.  ``members`` is
            # ascending, so ``live`` is too — extraction order matches
            # the dict-backed scan exactly.
            vals = self._keys.get_many(members)
            in_range = (vals >= 0) & (lo <= vals) & (vals <= hi)
            live = members[in_range]
            live_keys = vals[in_range]
            if live.size == 0:
                continue
            if lo == hi:
                at_lo = live_keys == lo
                result = live[at_lo]
                # A fresher copy exists in a lower... impossible for
                # single-key intervals; reinsert defensively.
                for v, key in zip(live[~at_lo], live_keys[~at_lo]):
                    self._bags[self._bucket_of(int(key))].insert(int(v))
                for v in result:
                    del self._keys[int(v)]
                self._count -= int(result.size)
                self._floor = lo
                if result.size:
                    return lo, [int(v) for v in result]
                continue
            # Range interval at the front: split and redistribute.
            refined = interval_layout(lo, hi)
            refined = [(a, min(b, hi)) for a, b in refined if a <= hi]
            new_bags = [HashBag(self._capacity) for _ in refined]
            self._intervals = refined + self._intervals[1:]
            self._bags = new_bags + self._bags[1:]
            self._los = np.asarray(
                [a for a, _ in self._intervals], dtype=np.int64
            )
            for v, key in zip(live, live_keys):
                self._bags[self._bucket_of(int(key))].insert(int(v))
        raise BucketStructureError("extract from an empty priority queue")

    def is_empty(self) -> bool:
        """Whether no items remain."""
        return self._count == 0


def dial_sssp(
    graph, weights: np.ndarray, source: int
) -> np.ndarray:
    """Single-source shortest paths with small integer weights.

    Dial's algorithm driven by :class:`MonotoneIntPQ` — the "independent
    interest" application the paper suggests for its bucketing structure.

    Args:
        graph: A :class:`~repro.graphs.csr.CSRGraph`.
        weights: Positive int weight per *arc*, aligned with
            ``graph.indices``.
        source: Start vertex.

    Returns:
        Distance per vertex (-1 for unreachable).
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape != (graph.m,):
        raise ValueError("need one weight per arc")
    if weights.size and weights.min() < 1:
        raise ValueError("weights must be positive integers")
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range")
    pq = MonotoneIntPQ(capacity=max(n, 1))
    pq.insert(source, 0)
    tentative = FlatHashTable(max(n, 1))
    tentative[source] = 0
    while not pq.is_empty():
        key, items = pq.extract_min_bucket()
        for v in items:
            if dist[v] != -1:
                continue
            dist[v] = key
            start, end = graph.indptr[v], graph.indptr[v + 1]
            for idx in range(start, end):
                u = int(graph.indices[idx])
                if dist[u] != -1:
                    continue
                candidate = key + int(weights[idx])
                current = tentative.get(u)
                if current is None or candidate < current:
                    tentative[u] = candidate
                    pq.decrease_key(u, candidate)
    return dist
