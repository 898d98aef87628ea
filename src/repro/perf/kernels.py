"""Peel kernels, bit-exact with the reference loops.

The VGC subround is the wall-clock hot path of the ``ours`` engine: a
per-edge Python loop over every local-search queue.  This module drives
its compiled C transcription (:func:`vgc_peel_tasks_native`, built by
:mod:`repro.perf.native`) while reproducing the reference execution
*exactly* — same coreness output, same ``RunMetrics`` ledger, same RNG
stream — which the regression goldens and the kernel-equivalence
property tests enforce.  The same treatment extends to the baseline
engines: the PKC chain drain (:func:`pkc_chain_drain_native`), the fused
scan/peel subround that ParK, Julienne and the plain online peel share
(:func:`scan_peel_round`), the full-array frontier scans
(:func:`threshold_frontier`), and the sampling scheme's neighborhood
recount (:func:`recount_alive`).  The last three have no separate
reference loop: outside ``native`` mode they evaluate the reference
NumPy expression itself.  The batch-dynamic insertion repair runs one
whole round, all its levels, in C (:func:`insertion_round_native`) and
charges it as one ledger block, and so do the hierarchical bucketing
structure's round step and DecreaseKey (:func:`hbs_next_round`,
:func:`hbs_scatter`), whose reference is the ``HashBag`` structure.

No kernel reads ``REPRO_KERNELS``: each branches on the mode its run
resolved once and carries on its :class:`KernelScratch`.

The exactness argument of the VGC wrapper, per mechanism:

* **Deferred RNG draws.**  Sample-mode membership cannot change
  mid-subround (absorption only touches vertices whose mode bit is
  already clear; resampling runs at subround end), and the coin-flip
  *outcome* influences nothing inside the task loop: sampled edges
  never decrement, the flip cost is charged per encounter regardless,
  and hit counters are not read until the subround epilogue.  So the
  kernel only records the encounter stream in task-major order and the
  wrapper draws ``rng.random(total)`` once at the end —
  ``numpy.random.Generator`` produces the identical sequence whether
  values are drawn one at a time or as arrays, in any block structure.
* **Saturation.**  Hit counters advance by unit increments, so they
  cannot skip ``mu``; batching the increments per distinct vertex and
  testing ``old < mu <= new`` recovers exactly the reference's
  ``cnt == mu`` events.
* **First-seen keys.**  The reference records ``dtilde[u]`` at a
  vertex's first decrement of the subround; since nothing else mutates
  ``dtilde`` inside the task loop, that value is the post-kernel
  ``dtilde[u]`` plus the number of decrements ``u`` received, which the
  kernel counts first-touch style and reduces, unsorted, to the
  decrement total, the largest count and the survivors in first-touch
  order (the reference's dictionary order).
* **Cost accumulation.**  Per-task costs are accumulated as
  ``count * constant`` instead of repeated addition; this is exact
  because every pinned cost model uses dyadic-rational constants (see
  docs/PERFORMANCE.md).  Aggregation orderings the kernels change
  (contention multisets, touched sets, bucket updates, frontier merges)
  are all canonicalized downstream (a sort) or order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf import NATIVE
from repro.runtime.atomics import (
    DecrementOutcome,
    batch_decrement,
    batch_increment_clamped,
    segment_contention,
)
from repro.runtime.metrics import StepBlock


class PointerCache:
    """Raw data addresses of run-stable arrays, cached by identity."""

    def __init__(self) -> None:
        self._ptrs: dict[int, tuple[np.ndarray, int]] = {}

    def ptr(self, array: np.ndarray) -> int:
        """Raw data address of a run-stable array, cached by identity.

        ``array.ctypes.data`` costs microseconds per access (a ctypes
        helper object is built each time), which the per-subround native
        calls pay a dozen times over; the cache keeps a reference to
        every array it has seen, so an entry can never dangle (the id
        key stays pinned to the same object).  Use only for arrays that
        persist across calls — per-round temporaries would accumulate.
        """
        entry = self._ptrs.get(id(array))
        if entry is None:
            entry = (array, array.ctypes.data)
            self._ptrs[id(array)] = entry
        return entry[1]

    def forget(self) -> None:
        """Drop every cached address (after replacing grown buffers)."""
        self._ptrs.clear()


class KernelScratch(PointerCache):
    """One run's graph, kernel ``mode`` and lazily allocated buffers.

    ``mode`` is the ``REPRO_KERNELS`` decision the run made where it
    started.  The flat kernels used to allocate their output streams per
    subround (``np.empty(indices.size)`` is tens of megabytes on the
    large tier); one arena per run amortizes that to a single
    allocation.  Buffer contents are scratch between calls — except
    :meth:`count_buf`, which is kept all-zero: every user must re-zero
    exactly the entries it dirtied before returning.
    """

    def __init__(self, graph, mode: str) -> None:
        super().__init__()
        self.graph = graph
        self.mode = mode
        self._n = int(graph.n)
        self._cap = int(graph.indices.size)
        self._enc: np.ndarray | None = None
        self._nf: np.ndarray | None = None
        self._queue: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._touched: np.ndarray | None = None
        self._tasks: tuple[np.ndarray, ...] | None = None
        self._old: np.ndarray | None = None
        self._buckets: BucketScratch | None = None
        self._views: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def enc_buf(self) -> np.ndarray:
        """Sampled-encounter-stream buffer (capacity: the degree sum)."""
        if self._enc is None:
            self._enc = np.empty(self._cap, dtype=np.int64)
        return self._enc

    def nf_buf(self) -> np.ndarray:
        """Denied-crossings buffer (at most one crossing per vertex)."""
        if self._nf is None:
            self._nf = np.empty(self._n, dtype=np.int64)
        return self._nf

    def queue_buf(self, size: int) -> np.ndarray:
        """Task-queue scratch of at least ``size`` slots."""
        size = max(int(size), 1)
        if self._queue is None or self._queue.size < size:
            self._queue = np.empty(size, dtype=np.int64)
        return self._queue

    def count_buf(self) -> np.ndarray:
        """All-zero per-vertex counter array (users re-zero their marks)."""
        if self._count is None:
            self._count = np.zeros(self._n, dtype=np.int64)
        return self._count

    def touched_buf(self) -> np.ndarray:
        """First-touch output buffer paired with :meth:`count_buf`."""
        if self._touched is None:
            self._touched = np.empty(self._n, dtype=np.int64)
        return self._touched

    def old_buf(self) -> np.ndarray:
        """Per-vertex key buffer paired with :meth:`touched_buf`."""
        if self._old is None:
            self._old = np.empty(self._n, dtype=np.int64)
        return self._old

    def bucket_scratch(self) -> "BucketScratch":
        """The buffers of the run's native HBS (one structure per run)."""
        if self._buckets is None:
            self._buckets = BucketScratch(self._n)
        return self._buckets

    def task_bufs(self) -> tuple[np.ndarray, ...]:
        """Per-task ``(nv, ne, ns)`` counter buffers (frontier <= n)."""
        if self._tasks is None:
            self._tasks = tuple(
                np.empty(self._n, dtype=np.int64) for _ in range(3)
            )
        return self._tasks

    def u8(self, array: np.ndarray) -> np.ndarray:
        """Cached ``uint8`` reinterpretation of a run-stable bool array."""
        entry = self._views.get(id(array))
        if entry is None:
            entry = (array, array.view(np.uint8))
            self._views[id(array)] = entry
        return entry[1]


@dataclass
class VGCTaskResult:
    """Everything a VGC task loop produces for the shared epilogue.

    Attributes:
        task_costs: Per-task simulated cost (vertex/edge/flip ops).
        next_frontier: Crossing vertices denied absorption (each crossing
            fires exactly once per vertex per subround).
        saturated: Sample counters that reached ``mu`` this subround.
        atomics: Atomic updates issued: decrements plus sampler hits.
        contention: Most atomic updates on one vertex (decrement and hit
            targets are disjoint: sample mode is fixed in a subround).
        survivors: Decremented vertices still in the structure (unpeeled,
            key above ``k``) in first-touch order; no consumer observes
            the order (bucket copies are multisets).
        survivor_keys: Each survivor's ``dtilde`` before its first
            decrement of the subround.
        local_search_hits: Number of absorptions performed.
        sample_draws: Sampled edges seen (RNG draws) across all tasks.
        sample_hits: Draws that hit (incremented a sample counter).
    """

    task_costs: np.ndarray
    next_frontier: np.ndarray
    saturated: np.ndarray
    atomics: int
    contention: int
    survivors: np.ndarray
    survivor_keys: np.ndarray
    local_search_hits: int
    sample_draws: int = 0
    sample_hits: int = 0


_EMPTY = np.zeros(0, dtype=np.int64)


def _sampling_arrays(state):
    """The subround's sampling arrays, or all-``None`` when inactive.

    When nothing is in sample mode the whole sampling branch is dead (no
    RNG draws would occur), so the non-sampled fast path is exact.
    """
    sampling = state.sampling
    if sampling is not None and sampling.active():
        return (
            sampling.mode,
            sampling.rate,
            sampling.cnt,
            sampling.rng,
            sampling.mu,
        )
    return None, None, None, None, 0


def vgc_peel_tasks_native(
    state,
    frontier: np.ndarray,
    k: int,
    budget: int,
    edge_budget: int,
) -> VGCTaskResult:
    """Run every local search of a VGC subround (compiled C kernel).

    The C loop decrements, absorbs, records the sampled-encounter stream
    in task-major order and reduces its first-touch list (decrement
    total, largest count, survivors with their old keys) without
    sorting it; what is left here is replaying the deferred coin flips
    over that stream and applying the sampler hits.
    """
    from repro.perf import native

    graph = state.graph
    model = state.runtime.model
    mode, rate, cnt, rng, mu = _sampling_arrays(state)
    scratch = state.scratch
    (
        enc, next_frontier, nv, ne, ns, ls_hits, survivors, keys,
        decrements, top,
    ) = native.run_task_loop(
        graph,
        state.dtilde,
        state.peeled,
        state.coreness,
        mode,
        frontier,
        k,
        budget,
        edge_budget,
        scratch=scratch,
    )
    # Exact despite the reordering: counts stay well below 2**53 and the
    # pinned cost constants are dyadic rationals (docs/PERFORMANCE.md).
    task_costs = (
        model.vertex_op * nv + model.edge_op * ne + model.sample_flip_op * ns
    )
    hits = _EMPTY
    if enc.size:
        hits = enc[rng.random(enc.size) < rate[enc]]
    saturated = _EMPTY
    if hits.size:
        hit_counts, saturated = batch_increment_clamped(cnt, hits, mu)
        top = max(top, int(hit_counts.max()))
    return VGCTaskResult(
        task_costs=task_costs,
        next_frontier=next_frontier,
        saturated=saturated,
        atomics=decrements + int(hits.size),
        contention=top,
        survivors=survivors.copy(),
        survivor_keys=keys.copy(),
        local_search_hits=ls_hits,
        sample_draws=int(enc.size),
        sample_hits=int(hits.size),
    )


# ---------------------------------------------------------------------------
# Hierarchical bucketing structure: round step and DecreaseKey in C
# ---------------------------------------------------------------------------

#: Ledger step and barriers of each HBS row tag (``hbs_*`` kernels).
_HBS_TAGS = ("bag_extract", "bag_insert_many", "hbs_decreasekey")
_HBS_BARRIERS = (1, 0, 0)


class BucketScratch(PointerCache):
    """The buffers of a run's native HBS (:mod:`repro.structures.hbs`).

    Python owns every buffer and C never allocates.  The live layout is
    a stack of slots in descending key order, front last: per slot the
    interval bounds, the first and last block of its copy chain and its
    copy count, plus an all-zero per-slot count scratch (``slots``).
    Copies live in ``pool`` blocks of :attr:`BLOCK`, linked through
    ``nxt``; ``state`` is ``[live slots, free-list head, free blocks]``.
    ``rows`` are one call's ledger rows (tag, count), ``live``/``out``
    per-vertex outputs of a round step and :meth:`ids_buf` the per-vertex
    slot ids of a DecreaseKey.  A kernel that might overrun a buffer
    says what it needs before it changes anything, and :meth:`grow`
    makes that room (keeping the contents) before the wrapper resumes.
    """

    #: Copies per pool block (``HBS_BLOCK`` in the embedded source).
    BLOCK = 256

    def __init__(self, n: int) -> None:
        super().__init__()
        self.state = np.zeros(3, dtype=np.int64)
        self.slots = tuple(np.zeros(64, dtype=np.int64) for _ in range(6))
        self.pool = np.empty(0, dtype=np.int64)
        self.nxt = np.empty(0, dtype=np.int64)
        self.rows = tuple(np.empty(64, dtype=np.int64) for _ in range(2))
        self.live = np.empty(n, dtype=np.int64)
        self.out = np.empty(n, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    def reset(self, layout: list[tuple[int, int]], copies: int) -> None:
        """Install ``layout`` (ascending intervals), every slot empty.

        Every block returns to the free list, which is then grown to
        hold ``copies`` copies spread over the layout.
        """
        nb = len(layout)
        self.grow(0, nb, 0)
        slo, shi, _, _, scount, _ = self.slots
        slo[:nb] = [lo for lo, _ in reversed(layout)]
        shi[:nb] = [hi for _, hi in reversed(layout)]
        scount[:nb] = 0
        blocks = self.nxt.size
        self.nxt[:] = np.arange(1, blocks + 1)
        if blocks:
            self.nxt[-1] = -1
        self.state[:] = (nb, 0 if blocks else -1, blocks)
        self.grow(0, 0, copies // self.BLOCK + nb + 1)

    def grow(self, rows: int, slots: int, free_blocks: int) -> None:
        """Make room for ``rows`` rows, ``slots`` slots, free blocks."""
        grown = False
        if rows > self.rows[0].size:
            self.rows = _grown(self.rows, rows)
            grown = True
        if slots > self.slots[0].size:
            self.slots = _grown(self.slots, slots, fill=0)
            grown = True
        free = int(self.state[2])
        if free_blocks > free:
            old = self.nxt.size
            add = max(free_blocks - free, old)
            (self.nxt,) = _grown((self.nxt,), old + add)
            (self.pool,) = _grown((self.pool,), (old + add) * self.BLOCK)
            self.nxt[old:-1] = np.arange(old + 1, old + add)
            self.nxt[-1] = self.state[1]
            self.state[1] = old
            self.state[2] = free + add
            grown = True
        if grown:
            self.forget()

    def ids_buf(self, size: int) -> np.ndarray:
        """Per-vertex slot-id scratch of at least ``size`` entries."""
        if self._ids.size < size:
            self._ids = np.empty(max(size, 2 * self._ids.size), np.int64)
            self.forget()
        return self._ids


def _grown(arrays, size: int, fill: int | None = None):
    """Copies of ``arrays`` grown to ``max(size, 2 * len)``, contents kept."""
    out = []
    for array in arrays:
        grown = np.empty(max(size, 2 * array.size), dtype=array.dtype)
        grown[: array.size] = array
        if fill is not None:
            grown[array.size :] = fill
        out.append(grown)
    return tuple(out)


def _charge_hbs_rows(runtime, buckets: BucketScratch, rows: int) -> None:
    """Charge one HBS call's ledger rows as one block.

    Each row is the ``parallel_for`` its reference step charges: a flat
    unit per count (``bag_extract_op`` per scanned slot, one barrier;
    ``bag_insert_op`` per copy; ``bucket_move_op`` per moved vertex),
    span one unit.  The products are the reference's ``float(unit) *
    count``, so the block is bit-identical.
    """
    if not rows:
        return
    model = runtime.model
    units = (
        float(model.bag_extract_op),
        float(model.bag_insert_op),
        float(model.bucket_move_op),
    )
    tag, count = buckets.rows
    codes = tag[:rows].tolist()
    span = [units[code] for code in codes]
    runtime.charge_block(
        StepBlock(
            kind=["parallel_for"] * rows,
            work=[unit * c for unit, c in zip(span, count[:rows].tolist())],
            span=span,
            barriers=[_HBS_BARRIERS[code] for code in codes],
            atomics=[0] * rows,
            contention=[0] * rows,
            frontier=[-1] * rows,
        ),
        tags=[_HBS_TAGS[code] for code in codes],
    )


def hbs_load(
    scratch: KernelScratch,
    dtilde: np.ndarray,
    vertices: np.ndarray,
    layout: list[tuple[int, int]],
    runtime,
) -> BucketScratch:
    """BuildBuckets of the native HBS: ``layout``, then one scatter.

    Returns the run's :class:`BucketScratch`, holding the structure.
    """
    buckets = scratch.bucket_scratch()
    buckets.reset(layout, int(vertices.size))
    hbs_scatter(buckets, dtilde, vertices, None, runtime, charge_move=False)
    return buckets


def hbs_scatter(
    buckets: BucketScratch,
    dtilde: np.ndarray,
    vertices: np.ndarray,
    old_keys: np.ndarray | None,
    runtime,
    charge_move: bool = True,
) -> None:
    """DecreaseKey of the native HBS, charged as one ledger block.

    A copy of each vertex goes to the bucket of its ``dtilde`` key where
    that differs from its ``old_keys`` bucket (always without
    ``old_keys``); ``charge_move`` charges the ``hbs_decreasekey`` step
    first (the bulk load does not).  Raises ``ValueError`` on a key
    below the layout, before anything changes.
    """
    from repro.perf import native

    while True:
        status, rows, need = native.run_hbs_decrease(
            dtilde, vertices, old_keys, charge_move, buckets
        )
        if status != native.HBS_ROOM:
            break
        buckets.grow(*need)
    if status == native.HBS_BELOW:
        raise ValueError("key below the current interval layout")
    _charge_hbs_rows(runtime, buckets, rows)


def hbs_next_round(
    scratch: KernelScratch,
    buckets: BucketScratch,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    geometry: tuple[int, int],
    runtime,
) -> tuple[int, np.ndarray] | None:
    """GetNextBucket of the native HBS, charged as one ledger block.

    ``geometry`` is the hash bags' ``(lambda, chunk room)`` that prices
    the extractions.  Returns ``(k, frontier)`` or ``None`` when the
    structure is drained.
    """
    from repro.perf import native

    lam, room = geometry
    rows = 0
    while True:
        status, rows, k, size, need = native.run_hbs_next_round(
            dtilde, peeled, scratch.count_buf(), buckets, lam, room, rows,
            scratch,
        )
        if status != native.HBS_ROOM:
            break
        buckets.grow(*need)
    _charge_hbs_rows(runtime, buckets, rows)
    if status == native.HBS_BELOW:
        raise ValueError("key below the current interval layout")
    if status == native.HBS_FOUND:
        return k, buckets.out[:size].copy()
    return None


# ---------------------------------------------------------------------------
# Baseline kernels: PKC chain drain, fused scan/peel, frontier scan
# ---------------------------------------------------------------------------


def pkc_thread_works(model, nv: np.ndarray, ne: np.ndarray) -> np.ndarray:
    """Per-thread PKC work recomputed in closed form from the counters.

    The reference drain accumulates ``vertex_op`` per queue item and
    ``edge_op + atomic_op`` per edge by repeated addition; with the
    pinned dyadic cost constants and counts far below ``2**53`` every
    partial sum is exact, so the closed form is bit-equal (R007
    cross-checks this expression against ``PKC_COST_COUNTERS`` and the
    embedded C source).
    """
    task_costs = (
        model.vertex_op * nv + model.edge_op * ne + model.atomic_op * ne
    )
    return task_costs


def pkc_chain_drain_native(
    graph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    frontier: np.ndarray,
    k: int,
    p: int,
    scratch: KernelScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One PKC round's thread-local chain drains (compiled C kernel).

    The C routine is a line-for-line transcription of the reference
    drain (same FIFO, same immediate claims); only the contention
    bookkeeping is batched — first-touch counting into the scratch
    arena instead of an append-and-``np.unique`` pass, which preserves
    the count multiset exactly.
    """
    from repro.perf import native

    count_arr = scratch.count_buf()
    touched = scratch.touched_buf()
    nv, ne, marks, claimed = native.run_pkc_round(
        graph,
        dtilde,
        peeled,
        coreness,
        frontier,
        k,
        p,
        scratch.queue_buf(graph.n),
        count_arr,
        touched,
        scratch=scratch,
    )
    counts = count_arr[marks].copy()
    count_arr[marks] = 0  # restore the all-zero invariant
    return nv, ne, counts, claimed


def scan_peel_round(
    scratch: KernelScratch, dtilde: np.ndarray, frontier: np.ndarray, k: int
) -> DecrementOutcome:
    """Fused gather + batch-decrement of a frontier's neighborhoods.

    The flat helper behind the non-sampled online subround (ParK, the
    plain online peel) and the offline histogram peel (Julienne).
    Semantically identical to ``batch_decrement(dtilde,
    gather_neighbors(frontier), k)`` — same mutation, same sorted
    ``touched`` / ``counts`` / ``old`` / ``new`` / ``crossed`` — but the
    native flavor counts occurrences in one pass over the adjacency
    lists (no materialized target stream, no full-stream sort; only the
    distinct touched vertices are sorted).
    """
    graph = scratch.graph
    if scratch.mode == NATIVE:
        from repro.perf import native

        count_arr = scratch.count_buf()
        marks = native.run_scan_peel(
            graph,
            dtilde,
            frontier,
            count_arr,
            scratch.touched_buf(),
            scratch=scratch,
        )
        touched = np.sort(marks)
        counts = count_arr[touched].copy()
        count_arr[marks] = 0  # restore the all-zero invariant
        new = dtilde[touched]
        old = new + counts
        crossed = touched[(old > k) & (new <= k)]
        return DecrementOutcome(
            counts=counts, crossed=crossed, touched=touched, old=old, new=new
        )
    targets = graph.gather_neighbors(frontier)
    return batch_decrement(dtilde, targets, k)


def recount_alive(
    scratch: KernelScratch,
    peeled: np.ndarray,
    vertices: np.ndarray,
    coreness: np.ndarray | None = None,
    k: int = 0,
) -> np.ndarray:
    """Per vertex of ``vertices``: how many of its neighbors are unpeeled.

    Alg. 5's RESAMPLE recount (line 19).  With ``coreness`` it is the
    Sec. 4.1.4 retrospective check instead: a peeled neighbor also
    counts when its coreness is at least ``k``.  Repeated and unsorted
    vertices are each counted on their own.  The native flavor counts
    in one C pass per neighborhood; the fallback is the reference
    expression, a gather of every neighborhood summed per vertex with
    ``np.add.reduceat``.
    """
    graph = scratch.graph
    vertices = np.asarray(vertices, dtype=np.int64)
    if scratch.mode == NATIVE:
        from repro.perf import native

        return native.run_recount(graph, peeled, vertices, coreness, k)
    neighbors = graph.gather_neighbors(vertices)
    ok = ~peeled[neighbors]
    if coreness is not None:
        ok |= coreness[neighbors] >= k
    lengths = graph.indptr[vertices + 1] - graph.indptr[vertices]
    counts = np.zeros(vertices.size, dtype=np.int64)
    # Only non-empty segments reduce: reduceat reports the next
    # segment's first entry for an empty one.
    full = np.flatnonzero(lengths)
    if full.size:
        starts = (np.cumsum(lengths) - lengths)[full]
        counts[full] = np.add.reduceat(ok.astype(np.int64), starts)
    return counts


def threshold_frontier(
    scratch: KernelScratch, dtilde: np.ndarray, peeled: np.ndarray, k: int
) -> np.ndarray:
    """All unpeeled vertices with ``dtilde <= k``, in ascending order.

    The full-array frontier scan of the scan-based baselines (ParK,
    PKC).  The native flavor packs matches in one C pass; the fallback
    is the reference expression itself, so every mode returns the exact
    ``np.nonzero`` output.
    """
    if scratch.mode == NATIVE:
        from repro.perf import native

        return native.run_scan_frontier(
            dtilde, peeled, k, scratch.touched_buf(), scratch=scratch
        )
    return np.nonzero((~peeled) & (dtilde <= k))[0]


# ---------------------------------------------------------------------------
# Batch-dynamic insertion round: every level's BFS, cd init and peel in C
# ---------------------------------------------------------------------------

#: Ledger step of each row tag the round kernel writes, and its kind.
_ROUND_TAGS = (
    "dyn_subcore", "frontier_bag", "dyn_cd_init", "dyn_peel", "dyn_relabel"
)
_ROUND_KINDS = (
    "parallel_for", "parallel_for", "parallel_for", "parallel_update",
    "parallel_for",
)
_SUBCORE, _BAG, _PEEL, _RELABEL = 0, 1, 3, 4


class RoundScratch(PointerCache):
    """Per-service buffers of :func:`insertion_round_native`.

    One set per :class:`repro.core.batch_dynamic.BatchDynamicKCore`
    (the vertex count never changes), allocated once; pages are only
    touched as far as a round reaches.  ``marks`` is kept all-zero
    between calls (the kernel re-zeros the candidates it marked).  A
    level writes at most ``3n`` rows, ``n`` risers and one contention
    count per arc, and the kernel starts a level only while that much
    room is left, so the buffers hold ``levels`` such worst cases: with
    two, a round stops early only once its earlier levels filled one.
    The contention buffer grows with the graph's arc count.
    """

    def __init__(self, n: int, levels: int = 2) -> None:
        super().__init__()
        self.levels = levels
        self.marks = np.zeros(n, dtype=np.uint8)
        self.cd, self.cand, self.queue, self.touched = (
            np.empty(n, dtype=np.int64) for _ in range(4)
        )
        self.risers = np.empty(levels * n, dtype=np.int64)
        self.rows = tuple(
            np.empty(levels * 3 * n, dtype=np.int64) for _ in range(5)
        )
        self.contention = np.empty(0, dtype=np.int64)

    def reserve(self, arcs: int) -> None:
        """Grow the contention buffer to ``levels`` times ``arcs``."""
        need = self.levels * arcs
        if self.contention.size < need:
            self.contention = np.empty(
                max(need, 2 * self.contention.size), dtype=np.int64
            )


def insertion_round_native(
    graph,
    coreness: np.ndarray,
    roots: np.ndarray,
    levels: np.ndarray,
    start: int,
    scratch: RoundScratch,
    model,
) -> tuple[int, np.ndarray, int, StepBlock | None, list[str]]:
    """One batch-dynamic insertion round in C, priced as one ledger block.

    Runs ``levels[start:]`` as far as ``scratch`` holds them and raises
    their survivors in ``coreness``.  Returns ``(next_start, risers,
    candidates, block, tags)``: the first level not run (``levels.size``
    when the round is done), the raised vertices (a fresh unsorted array,
    a vertex once per level it rose at), the candidate count, and the
    levels' steps for :meth:`SimRuntime.charge_block` (``None`` and no
    tags when no root was at its level).  The block is the reference
    rounds' ledger step for step: per level, per BFS subround
    ``dyn_subcore`` and, unless it is the last, ``frontier_bag``;
    ``dyn_cd_init``; per peel subround ``dyn_peel``; ``dyn_relabel`` when
    a candidate survives.  Each row's frontier set is the reference's,
    so its costs follow in closed form — exact with the dyadic cost
    constants, as for the VGC kernel — and each peel step's atomics and
    contention reduce from its contention segment.
    """
    from repro.perf import native

    scratch.reserve(graph.indices.size)
    done, risers, candidates, (tag, nv, ne, dmax, seg), segments = (
        native.run_insertion_round(
            graph, coreness, roots, levels, start, scratch
        )
    )
    if tag.size == 0:
        return done, risers.copy(), candidates, None, []
    # One task per frontier vertex costing vertex_op + edge_op * degree:
    # the row's work in closed form and, edge_op >= 0, its span at the
    # largest degree.  Bag and relabel rows cost a flat unit per count.
    task_costs = model.vertex_op * nv + model.edge_op * ne
    span = model.vertex_op + model.edge_op * dmax
    peel = tag == _PEEL
    atomics = np.zeros(tag.size, dtype=np.int64)
    contention = np.zeros(tag.size, dtype=np.int64)
    atomics[peel], contention[peel] = segment_contention(segments, seg[peel])
    task_costs[peel] += atomics[peel] * model.atomic_op
    span[peel] += contention[peel] * model.contended_atomic_op
    for code, unit in ((_BAG, model.bag_insert_op), (_RELABEL, model.scan_op)):
        flat = tag == code
        task_costs[flat] = unit * nv[flat]
        span[flat] = unit
    barriers = np.where(
        (tag == _BAG) | (tag == _RELABEL), 0, model.online_barriers
    )
    frontier = np.where((tag == _SUBCORE) | peel, nv, -1)
    codes = tag.tolist()
    block = StepBlock(
        kind=[_ROUND_KINDS[code] for code in codes],
        work=task_costs.tolist(),
        span=span.tolist(),
        barriers=barriers.tolist(),
        atomics=atomics.tolist(),
        contention=contention.tolist(),
        frontier=frontier.tolist(),
    )
    return (
        done,
        risers.copy(),
        candidates,
        block,
        [_ROUND_TAGS[code] for code in codes],
    )
