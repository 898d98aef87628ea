"""Parallel hash bag (paper Sec. 2; Dong et al. 2021, Wang et al. 2023).

A hash bag maintains a multiset of elements under concurrent insertion and
supports extracting everything into a consecutive array.  The backing array
is conceptually divided into chunks of sizes ``lambda, 2*lambda, 4*lambda,
...``; insertions target the current chunk by linear probing and move to the
next (doubled) chunk once the current one reaches its load-factor target.
``BagExtractAll`` therefore only scans the prefix of chunks actually used,
costing ``O(lambda + t)`` for ``t`` stored elements rather than ``O(n)``.

The k-core algorithms use hash bags for frontiers and for the per-bucket
vertex sets of the hierarchical bucketing structure.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.simulator import SimRuntime

#: Default smallest chunk size (2^8, the implementation constant in the paper).
DEFAULT_LAMBDA = 256

#: Chunk load factor at which insertion moves on to the next chunk.
LOAD_FACTOR = 0.75

#: Elements a chunk of ``DEFAULT_LAMBDA`` slots takes before insertion
#: moves on (chunk ``c`` of ``DEFAULT_LAMBDA * 2**c`` slots takes
#: ``CHUNK_ROOM * 2**c``: ``DEFAULT_LAMBDA * LOAD_FACTOR`` is whole).
CHUNK_ROOM = math.ceil(DEFAULT_LAMBDA * LOAD_FACTOR)

_EMPTY = -1


def _mix(value: int) -> int:
    """64-bit multiplicative hash (splitmix64 finalizer, deterministic)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def extract_prefix(inserted: int) -> int:
    """:attr:`HashBag.used_prefix` of a default bag after ``inserted``.

    The closed form of the chunk geometry: a bag that took ``inserted``
    elements since its last extraction has filled chunks ``0..c``, ``c``
    the smallest with ``CHUNK_ROOM * (2**(c+1) - 1) >= inserted``, and
    scans their ``DEFAULT_LAMBDA * (2**(c+1) - 1)`` slots, whatever its
    capacity (insertion only moves to a chunk it has elements for).
    """
    chunks = 1  # 2**(c+1) - 1
    while CHUNK_ROOM * chunks < inserted:
        chunks = 2 * chunks + 1
    return DEFAULT_LAMBDA * chunks


class HashBag:
    """A chunked hash bag of non-negative int64 elements.

    Args:
        capacity: Upper bound on the number of elements simultaneously in
            the bag; the backing array is sized to hold it at the target
            load factor.
        lam: Smallest chunk size (``lambda`` in the paper).
        runtime: Optional simulated runtime charged per operation.
    """

    def __init__(
        self,
        capacity: int,
        lam: int = DEFAULT_LAMBDA,
        runtime: SimRuntime | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        if lam < 1:
            raise ValueError(f"lambda must be >= 1, got {lam}")
        self.lam = lam
        self.runtime = runtime

        # Chunk boundaries lam, 2*lam, 4*lam, ... until the cumulative
        # capacity (at the load-factor target) covers the requested one.
        bounds = [0]
        size = lam
        while (bounds[-1]) * LOAD_FACTOR < capacity or len(bounds) == 1:
            bounds.append(bounds[-1] + size)
            size *= 2
        self._bounds = bounds
        # Allocate only the first chunk eagerly; later chunks materialize
        # in ``_advance_chunk`` as the fill actually reaches them.  The
        # chunk geometry (``bounds``) is fixed up front either way, so
        # ``used_prefix`` — and hence every extraction charge — is
        # unchanged; bags that never outgrow ``lambda`` (the common case
        # for HBS buckets, which allocates one bag per interval) never
        # touch the doubled tail.
        self._slots = np.full(bounds[1], _EMPTY, dtype=np.int64)
        self._chunk = 0  # index of the chunk currently receiving inserts
        self._chunk_count = 0  # elements in the current chunk
        self._count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def used_prefix(self) -> int:
        """Length of the slot prefix that extraction must scan."""
        return self._bounds[self._chunk + 1]

    def _chunk_range(self) -> tuple[int, int]:
        return self._bounds[self._chunk], self._bounds[self._chunk + 1]

    def _advance_chunk(self) -> None:
        if self._chunk + 2 >= len(self._bounds):
            # Grow the geometry: append one more doubled chunk bound.
            extra = (self._bounds[-1] - self._bounds[-2]) * 2
            self._bounds.append(self._bounds[-1] + extra)
        self._chunk += 1
        self._chunk_count = 0
        # Materialize the backing store up to the new chunk's end (lazy
        # allocation: ``__init__`` only allocates the first chunk).
        need = self._bounds[self._chunk + 1]
        if self._slots.size < need:
            grown = np.full(need, _EMPTY, dtype=np.int64)
            grown[: self._slots.size] = self._slots
            self._slots = grown

    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """BagInsert: add ``value`` (duplicates allowed) by linear probing."""
        if value < 0:
            raise ValueError(f"hash bag stores non-negative ints: {value}")
        start, end = self._chunk_range()
        width = end - start
        if self._chunk_count >= width * LOAD_FACTOR:
            self._advance_chunk()
            start, end = self._chunk_range()
            width = end - start
        pos = start + (_mix(int(value)) % width)
        # Linear probing within the chunk (wrapping); the chunk load factor
        # bound guarantees termination.
        while self._slots[pos] != _EMPTY:
            pos += 1
            if pos == end:
                pos = start
        self._slots[pos] = value
        self._chunk_count += 1
        self._count += 1
        if self.runtime is not None:
            self.runtime.sequential(
                self.runtime.model.bag_insert_op, tag="bag_insert"
            )

    def insert_many(self, values: np.ndarray) -> None:
        """Insert a batch of values (models a concurrent insertion phase).

        The runtime is charged one parallel step: ``bag_insert_op`` work per
        element with unit span (insertions into distinct slots proceed
        concurrently; CAS retries are folded into the per-insert constant).
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return
        if int(values.min()) < 0:
            raise ValueError("hash bag stores non-negative ints")
        if self.runtime is not None:
            self.runtime.parallel_for(
                self.runtime.model.bag_insert_op,
                count=int(values.size),
                barriers=0,
                tag="bag_insert_many",
            )
        # Batched fill: chunk occupancy (and hence chunk advancement and
        # extraction cost) matches element-by-element insertion exactly;
        # only slot placement within a chunk differs, which no consumer
        # observes — extraction is an unordered multiset.
        offset = 0
        total = int(values.size)
        while offset < total:
            start, end = self._chunk_range()
            width = end - start
            room = math.ceil(width * LOAD_FACTOR) - self._chunk_count
            if room <= 0:
                self._advance_chunk()
                continue
            batch = values[offset : offset + room]
            window = self._slots[start:end]
            if self._chunk_count == 0:
                window[: batch.size] = batch
            else:
                free = np.flatnonzero(window == _EMPTY)
                window[free[: batch.size]] = batch
            self._chunk_count += int(batch.size)
            self._count += int(batch.size)
            offset += int(batch.size)

    def extract_all(self) -> np.ndarray:
        """BagExtractAll: remove and return all elements as an array.

        Scans only the used chunk prefix — ``O(lambda + t)`` — and resets
        the bag to its smallest chunk.
        """
        prefix = self.used_prefix
        window = self._slots[:prefix]
        result = window[window != _EMPTY].copy()
        if self.runtime is not None:
            self.runtime.parallel_for(
                self.runtime.model.bag_extract_op,
                count=max(prefix, 1),
                barriers=1,
                tag="bag_extract",
            )
        window[:] = _EMPTY
        self._chunk = 0
        self._chunk_count = 0
        self._count = 0
        return result

    def peek_all(self) -> np.ndarray:
        """Return all elements without removing them (test helper)."""
        window = self._slots[: self.used_prefix]
        return window[window != _EMPTY].copy()
