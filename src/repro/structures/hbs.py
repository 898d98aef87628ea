"""Hierarchical bucketing structure — HBS (paper Sec. 5.2 / 5.3).

HBS keeps buckets over *static* key intervals that refine lazily, exactly
as the paper's Fig. 4 illustrates: initially the first eight buckets are
single-key (the paper's implementation optimization) and the following
ones cover dyadic ranges ``[8,15], [16,31], [32,63], ...``.  When the
first non-empty bucket is a range bucket, it is *split*: its live members
are redistributed into a refined layout over the same range — eight
single-key buckets followed by doubling ranges — and the scan repeats.
Each bucket is a parallel hash bag.

``DecreaseKey`` inserts the vertex into the bucket of its new key and
leaves the old copy behind (hash bags do not support deletion); a copy is
only inserted when the containing interval actually changes, so a vertex
accumulates ``O(log d(v))`` copies, and extraction filters stale copies
lazily.  Because intervals are static between splits, the freshest copy of
a live vertex is always in the interval covering its current key, which
makes the first-non-empty-bucket scan return the true minimum key.

Total structure cost per vertex: ``O(log d(v))`` — versus
``O(d(v)/b + b)`` for fixed buckets and ``O(d(v))`` scans for the plain
strategy (paper Sec. 5.2).

:class:`AdaptiveHBS` is the final design of Sec. 5.3: graphs whose average
degree is at most ``theta = 16`` are processed with the plain strategy
until the ``theta``-core is reached, at which point the survivors (whose
average degree is then at least ``theta``) are loaded into an HBS.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.perf import NATIVE
from repro.perf.kernels import hbs_load, hbs_next_round, hbs_scatter
from repro.primitives.bitops import bit_length64, sorted_unique
from repro.structures.buckets_base import BucketStructure
from repro.structures.hash_bag import CHUNK_ROOM, DEFAULT_LAMBDA, HashBag
from repro.structures.single_bucket import SingleBucket

#: Number of leading single-key buckets in each (re)fined layout.
SINGLE_KEY_BUCKETS = 8

#: Average-degree / coreness threshold of the adaptive final design.
ADAPTIVE_THETA = 16


def interval_layout(lo: int, max_key: int) -> list[tuple[int, int]]:
    """The refined interval layout starting at ``lo``.

    Eight single-key intervals ``[lo, lo], ..., [lo+7, lo+7]`` followed by
    dyadic ranges ``[lo+8, lo+15], [lo+16, lo+31], ...`` until ``max_key``
    is covered.  This is the layout of the paper's Fig. 4 with the
    first-eight-single-keys optimization of Sec. 5.2.
    """
    intervals = [
        (lo + i, lo + i) for i in range(SINGLE_KEY_BUCKETS)
    ]
    width = SINGLE_KEY_BUCKETS
    start = lo + SINGLE_KEY_BUCKETS
    while start <= max_key:
        intervals.append((start, start + width - 1))
        start += width
        width *= 2
    return intervals


def bucket_index(key: int, base: int) -> int:
    """Index of ``key`` in :func:`interval_layout` ``(base, ...)``.

    Single-key offsets 0..7 map to buckets 0..7; offsets in ``[8, 16)``
    map to bucket 8, ``[16, 32)`` to 9, ``[32, 64)`` to 10, and so on.
    """
    offset = int(key) - base
    if offset < 0:
        raise ValueError(f"key {key} below layout base {base}")
    if offset < SINGLE_KEY_BUCKETS:
        return offset
    return SINGLE_KEY_BUCKETS + (offset >> 3).bit_length() - 1


def bucket_indices(keys: np.ndarray, base: int) -> np.ndarray:
    """Vectorized :func:`bucket_index` for an int array of keys."""
    offsets = np.asarray(keys, dtype=np.int64) - base
    if offsets.size and offsets.min() < 0:
        raise ValueError("key below layout base")
    ids = offsets.copy()
    high = offsets >= SINGLE_KEY_BUCKETS
    if np.any(high):
        # Integer bit-length arithmetic: float64 log2 loses exactness near
        # power-of-two boundaries once offsets outgrow the 53-bit mantissa.
        ids[high] = (
            SINGLE_KEY_BUCKETS + bit_length64(offsets[high] >> 3) - 1
        )
    return ids


class HierarchicalBuckets(BucketStructure):
    """The hierarchical bucketing structure over parallel hash bags.

    Under a ``native`` run scratch the same structure runs in C
    (:func:`repro.perf.kernels.hbs_next_round` and friends): a round
    step or a DecreaseKey batch is one call, and its ledger steps one
    block.  The ``HashBag`` flavour below is the reference.
    """

    name = "hbs"

    def __init__(self) -> None:
        super().__init__()
        # Drained front buckets are skipped via ``_head`` rather than
        # ``list.pop(0)``: popping shifts every remaining element, which is
        # O(B) per drop and O(B^2) over a run.  ``_intervals``/``_bags``
        # keep the full layout; indices ``>= _head`` are live, and ``_los``
        # always mirrors the live intervals (it is resliced when the head
        # advances and rebuilt on splits).
        self._intervals: list[tuple[int, int]] = []
        self._bags: list[HashBag] = []
        self._head = 0
        self._los: np.ndarray = np.zeros(0, dtype=np.int64)
        self._capacity = 1
        #: The native twin's buffers, once loaded under a native scratch.
        self._native = None

    # ------------------------------------------------------------------
    def _build(self, graph: CSRGraph) -> None:
        self.load(np.arange(graph.n, dtype=np.int64), base=0)

    def load(self, vertices: np.ndarray, base: int) -> None:
        """Initialize the layout at ``base`` and bulk-insert ``vertices``.

        This is BuildBuckets; exposed separately so :class:`AdaptiveHBS`
        can hand over the survivors of its plain phase.
        """
        assert self.dtilde is not None and self.runtime is not None
        vertices = np.asarray(vertices, dtype=np.int64)
        self._capacity = max(int(vertices.size), 1)
        max_key = (
            int(self.dtilde[vertices].max()) if vertices.size else base
        )
        layout = interval_layout(base, max_key)
        if self.scratch is not None and self.scratch.mode == NATIVE:
            self._native = hbs_load(
                self.scratch, self.dtilde, vertices, layout, self.runtime
            )
            return
        self._set_intervals(layout)
        if vertices.size:
            self._scatter(vertices, self.dtilde[vertices])

    def _set_intervals(self, intervals: list[tuple[int, int]]) -> None:
        self._intervals = intervals
        self._bags = [
            HashBag(self._capacity, runtime=self.runtime)
            for _ in intervals
        ]
        self._head = 0
        self._los = np.asarray([lo for lo, _ in intervals], dtype=np.int64)

    def _bucket_of(self, keys: np.ndarray) -> np.ndarray:
        """Live-bucket offset of the interval covering each key.

        Offsets are relative to ``_head``; callers add it back when
        indexing ``_bags``.
        """
        idx = np.searchsorted(self._los, keys, side="right") - 1
        if idx.size and idx.min() < 0:
            raise ValueError("key below the current interval layout")
        return idx

    def _scatter(self, vertices: np.ndarray, keys: np.ndarray) -> None:
        """Insert vertices into the bags covering their keys."""
        if vertices.size == 0:
            return
        ids = self._bucket_of(keys)
        if int(ids.min()) == int(ids.max()):
            # Single destination bucket — the dominant case during a
            # round's DecreaseKey storms (all movers land just below the
            # current threshold).  Skip the argsort/run-boundary pass;
            # within-bag placement order is unobservable (extraction is
            # an unordered multiset and every consumer canonicalizes).
            self._bags[self._head + int(ids[0])].insert_many(vertices)
            return
        order = np.argsort(ids, kind="stable")
        ids_sorted = ids[order]
        verts_sorted = vertices[order]
        # Visit only the occupied buckets (ascending): run boundaries in
        # the sorted id array, instead of probing every bucket in the
        # layout per scatter.
        starts = np.flatnonzero(
            np.diff(ids_sorted, prepend=ids_sorted[0] - 1)
        )
        ends = np.append(starts[1:], ids_sorted.size)
        for lo, hi in zip(starts, ends):
            bucket = self._head + int(ids_sorted[lo])
            self._bags[bucket].insert_many(verts_sorted[lo:hi])

    def _split_front(self, live: np.ndarray, keys: np.ndarray) -> None:
        """Refine the front (range) interval and rescatter its members."""
        lo, hi = self._intervals[self._head]
        refined = interval_layout(lo, hi)
        # Keep only the refined intervals that stay within [lo, hi]; the
        # construction covers it exactly for power-of-two widths and may
        # overshoot otherwise, which is harmless (clamp the last hi).
        refined = [(a, min(b, hi)) for a, b in refined if a <= hi]
        tail_intervals = self._intervals[self._head + 1 :]
        tail_bags = self._bags[self._head + 1 :]
        new_bags = [
            HashBag(self._capacity, runtime=self.runtime)
            for _ in refined
        ]
        self._intervals = refined + tail_intervals
        self._bags = new_bags + tail_bags
        self._head = 0
        self._los = np.asarray(
            [a for a, _ in self._intervals], dtype=np.int64
        )
        if live.size:
            self._scatter(live, keys)

    # ------------------------------------------------------------------
    def next_round(self) -> tuple[int, np.ndarray] | None:
        assert self.dtilde is not None and self.peeled is not None
        if self._native is not None:
            return hbs_next_round(
                self.scratch, self._native, self.dtilde, self.peeled,
                (DEFAULT_LAMBDA, CHUNK_ROOM), self.runtime,
            )
        while True:
            # Skip drained front buckets (their key ranges are consumed) by
            # advancing the head index — O(1) per drop.
            while (
                self._head < len(self._bags)
                and len(self._bags[self._head]) == 0
            ):
                self._head += 1
                self._los = self._los[1:]
            if self._head >= len(self._bags):
                return None
            lo, hi = self._intervals[self._head]
            members = self._bags[self._head].extract_all()
            live = sorted_unique(members[~self.peeled[members]])
            if live.size == 0:
                continue
            keys = self.dtilde[live]
            if lo == hi:
                # Single-key bucket: every live member's freshest copy is
                # here, and DecreaseKey fires on interval changes, so live
                # keys match lo exactly; anything else is a stale copy.
                frontier = live[keys == lo]
                if frontier.size:
                    return lo, frontier
                continue
            # Range bucket reached the front: split it (Fig. 4's arrows).
            self._split_front(live, keys)

    def on_decrements(
        self, vertices: np.ndarray, old_keys: np.ndarray | None = None
    ) -> None:
        assert self.dtilde is not None and self.runtime is not None
        if self._native is not None:
            hbs_scatter(
                self._native, self.dtilde, vertices, old_keys, self.runtime
            )
            return
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0 or self._head >= len(self._bags):
            return
        keys = self.dtilde[vertices]
        new_ids = self._bucket_of(keys)
        if old_keys is not None:
            # Insert a fresh copy only when the covering interval changed —
            # this is what bounds copies per vertex by O(log d(v)).
            old_ids = self._bucket_of(
                np.asarray(old_keys, dtype=np.int64)
            )
            moved = new_ids != old_ids
            vertices = vertices[moved]
            keys = keys[moved]
        if vertices.size == 0:
            return
        # Hash bags support concurrent insertion, so DecreaseKey inserts
        # overlap the peel phase: no extra barrier, only insertion work.
        self.runtime.parallel_for(
            self.runtime.model.bucket_move_op,
            count=int(vertices.size),
            barriers=0,
            tag="hbs_decreasekey",
        )
        self._scatter(vertices, keys)


class AdaptiveHBS(BucketStructure):
    """Final design (Sec. 5.3): plain strategy below the density threshold.

    Bucketing structures only pay off when the average degree exceeds a
    constant; this wrapper runs :class:`SingleBucket` until either the
    graph is dense from the start (average degree above ``theta``) or the
    peeling reaches the ``theta``-core — whose average degree is at least
    ``theta`` by definition — and switches to
    :class:`HierarchicalBuckets` there.
    """

    name = "adaptive-hbs"

    def __init__(self, theta: int = ADAPTIVE_THETA) -> None:
        super().__init__()
        self.theta = theta
        self._plain = SingleBucket()
        self._hbs = HierarchicalBuckets()
        self._use_hbs = False
        self._graph: CSRGraph | None = None

    def _build(self, graph: CSRGraph) -> None:
        self._graph = graph
        assert self.dtilde is not None and self.peeled is not None
        assert self.runtime is not None
        self._use_hbs = graph.average_degree > self.theta
        if self._use_hbs:
            self._hbs.build(
                graph, self.dtilde, self.peeled, self.runtime, self.scratch
            )
        else:
            self._plain.build(
                graph, self.dtilde, self.peeled, self.runtime, self.scratch
            )

    def _switch_to_hbs(self, k: int) -> None:
        """Hand the plain strategy's surviving active set to an HBS."""
        assert self._graph is not None
        assert self.dtilde is not None and self.peeled is not None
        assert self.runtime is not None
        active = self._plain._active
        assert active is not None
        survivors = active[
            (~self.peeled[active]) & (self.dtilde[active] >= k)
        ]
        self._hbs.dtilde = self.dtilde
        self._hbs.peeled = self.peeled
        self._hbs.runtime = self.runtime
        self._hbs.scratch = self.scratch
        self._hbs.load(survivors, base=k)
        self._use_hbs = True

    def next_round(self) -> tuple[int, np.ndarray] | None:
        if self._use_hbs:
            return self._hbs.next_round()
        return self._plain.next_round()

    def on_decrements(
        self, vertices: np.ndarray, old_keys: np.ndarray | None = None
    ) -> None:
        if self._use_hbs:
            self._hbs.on_decrements(vertices, old_keys)
        else:
            self._plain.on_decrements(vertices, old_keys)

    def round_finished(self, k: int) -> None:
        """Switch to the HBS once the remaining graph is dense enough.

        Two triggers, per Sec. 5.3: reaching the ``theta``-core (whose
        average degree is at least ``theta`` by definition), or — the
        "ideal" condition the paper describes — the surviving active set's
        average induced degree exceeding ``theta`` even at a smaller k
        (peeling the sparse fringe can expose a dense interior early).
        """
        if self._use_hbs:
            return
        if k + 1 >= self.theta or (
            self._plain.active_avg_degree > self.theta
        ):
            self._switch_to_hbs(k + 1)
