"""Sequential k-core algorithms: Batagelj–Zaversnik and Matula–Beck.

These are the ``O(n + m)`` sequential baselines of the paper (the "BZ"
column of Table 2 and the smallest-last ordering of Matula and Beck 1983).
Both use the bucket-sort layout: vertices sorted by induced degree with
per-degree bucket boundaries, swapped in place as degrees decrement.

The implementations run genuinely sequentially (one Python loop over the
peeling order) and charge their true operation counts to a metrics ledger so
the benchmark harness can compare them against simulated parallel times.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.obs.registry import active_registry
from repro.perf import REFERENCE, kernel_mode
from repro.perf.kernels import (
    KernelScratch,
    scan_peel_round,
    threshold_frontier,
)
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.metrics import RunMetrics


def _bz_peel(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Core of the BZ algorithm.

    Returns ``(coreness, order, ops)`` where ``order`` is the peeling
    (degeneracy) order and ``ops`` counts executed operations.
    """
    n = graph.n
    degrees = graph.degrees.astype(np.int64)
    dtilde = degrees.copy()
    max_deg = int(degrees.max()) if n else 0

    # Bucket sort vertices by degree: vert is the sorted vertex array,
    # pos[v] the position of v in vert, bin_start[d] the first index of
    # degree-d vertices.
    bin_count = np.bincount(degrees, minlength=max_deg + 1)
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    np.cumsum(bin_count, out=bin_start[1 : max_deg + 2])
    vert = np.argsort(degrees, kind="stable").astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n, dtype=np.int64)

    coreness = np.zeros(n, dtype=np.int64)
    ops = 2 * n  # initialization passes
    indptr, indices = graph.indptr, graph.indices
    boundary = bin_start[:-1].copy()  # first un-peeled index per degree

    for i in range(n):
        v = vert[i]
        coreness[v] = dtilde[v]
        ops += 1
        for u in indices[indptr[v] : indptr[v + 1]]:
            ops += 1
            du = dtilde[u]
            if du > dtilde[v]:
                # Swap u with the first vertex of its degree bucket, then
                # shrink the bucket: u's degree drops by one.
                pu = pos[u]
                pw = boundary[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                boundary[du] += 1
                dtilde[u] = du - 1
    return coreness, vert, ops


def _bz_peel_flat(scratch: KernelScratch) -> tuple[np.ndarray, int]:
    """NumPy bucket peel, bit-exact with :func:`_bz_peel`'s outputs.

    Peels whole degree levels at once instead of one vertex at a time.
    Both produce the (unique) core numbers, so the coreness arrays are
    identical; the operation count has the closed form the reference
    accumulates step by step — two initialization passes (``2n``), one
    pop per vertex (``n``) and one scan per directed arc (``m``) —
    regardless of peeling order.  Equality of both is pinned by
    ``tests/test_sequential.py`` and the regression goldens.

    Returns ``(coreness, ops)``; the peeling *order* is deliberately not
    produced (level peeling has no canonical within-level order), so
    :func:`degeneracy_order` keeps using the reference loop.
    """
    graph = scratch.graph
    n = graph.n
    ops = 3 * n + graph.m
    coreness = np.zeros(n, dtype=np.int64)
    if n == 0:
        return coreness, ops
    dtilde = graph.degrees.astype(np.int64)
    peeled = np.zeros(n, dtype=bool)
    remaining = n
    sentinel = np.iinfo(np.int64).max
    k = 0
    while remaining:
        # Jump to the lowest occupied level, then peel its cascade.
        k = max(k, int(np.min(np.where(peeled, sentinel, dtilde))))
        frontier = threshold_frontier(scratch, dtilde, peeled, k)
        while frontier.size:
            peeled[frontier] = True
            coreness[frontier] = k
            remaining -= int(frontier.size)
            # The fused scan decrements every gathered neighbor, peeled
            # ones included; a peeled vertex's dtilde is never read
            # again (every consumer masks on ``peeled``), so the values
            # the algorithm observes match the alive-filtered loop.
            outcome = scan_peel_round(scratch, dtilde, frontier, k)
            cross = outcome.crossed
            frontier = cross[~peeled[cross]]
    return coreness, ops


def bz_core(
    graph: CSRGraph, model: CostModel = DEFAULT_COST_MODEL
) -> CorenessResult:
    """Batagelj–Zaversnik sequential k-core decomposition (``O(n + m)``).

    ``REPRO_KERNELS=reference`` runs the original per-edge bucket-sort
    loop; every other mode runs the equivalent NumPy level peel (the
    differential oracle's wall-clock depends on it at the large tier).
    """
    # BZ runs without a SimRuntime, so the process-wide registry (if
    # any) is fed its mode and its single sequential step directly.
    registry = active_registry()
    mode = kernel_mode(registry)
    if mode == REFERENCE:
        coreness, _, ops = _bz_peel(graph)
    else:
        coreness, ops = _bz_peel_flat(KernelScratch(graph, mode))
    metrics = RunMetrics()
    metrics.record_sequential(float(ops), tag="bz")
    if registry is not None:
        registry.attach_model(model)
        registry.on_step("sequential", float(ops), float(ops), 0, "bz")
    return CorenessResult(
        coreness=coreness, metrics=metrics, algorithm="bz", model=model
    )


def degeneracy_order(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Matula–Beck smallest-last ordering.

    Returns ``(order, coreness)``; ``order`` lists vertices in peeling
    order (a degeneracy ordering, useful for greedy coloring and as a
    building block of many dense-subgraph algorithms).
    """
    coreness, order, _ = _bz_peel(graph)
    return order, coreness


def degeneracy(graph: CSRGraph) -> int:
    """The degeneracy of the graph (equals ``k_max`` of the decomposition)."""
    if graph.n == 0:
        return 0
    coreness, _, _ = _bz_peel(graph)
    return int(coreness.max())
