"""PKC baseline (Kabir & Madduri 2017) — thread-local buffers.

PKC is an online peeler that, like ParK, scans the full vertex array at the
start of every round (``O(m + k_max * n)`` work, no active set).  Its
distinguishing optimization is the *thread-local buffer*: the round's
frontier is statically partitioned over the P threads and each thread
peels its share **and every vertex its own decrements drop to k**
sequentially, with no intermediate barrier — exactly one subround per
round.  That eliminates synchronization but sacrifices load balance: a
peeling chain stays on the thread that discovered it, so one thread can
end up with nearly all the work (the paper's critique in Sec. 4.2).  The
simulated step records per-thread work and takes the maximum as the span.

The round drain comes in two bit-exact implementations behind the
``REPRO_KERNELS`` switch: the original per-edge Python loop
(:func:`_chain_drain_reference`, the equivalence oracle) and the
compiled C drain (:func:`repro.perf.kernels.pkc_chain_drain_native`).
Both produce the same coreness, the same contention-count multiset and
— via the closed form :func:`repro.perf.kernels.pkc_thread_works` — the
same per-thread work vector, so the metrics ledger is bit-identical
(enforced by the regression goldens and the kernel-matrix tests).
"""

from __future__ import annotations

import numpy as np

from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.perf import REFERENCE, kernel_mode
from repro.perf.kernels import (
    KernelScratch,
    pkc_chain_drain_native,
    pkc_thread_works,
    threshold_frontier,
)
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime


def _chain_drain_reference(
    graph: CSRGraph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    frontier: np.ndarray,
    k: int,
    p: int,
    model: CostModel,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The original per-edge Python drain (equivalence oracle).

    Returns ``(thread_works, counts, claimed)``: per-thread accumulated
    work, the round's contention counts per distinct decrement target,
    and the number of chain claims.
    """
    indptr, indices = graph.indptr, graph.indices
    thread_works = np.zeros(p, dtype=np.float64)
    decrement_targets: list[int] = []
    claimed = 0
    for tid in range(p):
        buffer = [int(v) for v in frontier[tid::p]]
        head = 0
        work = 0.0
        while head < len(buffer):
            v = buffer[head]
            head += 1
            work += model.vertex_op
            for u in indices[indptr[v] : indptr[v + 1]]:
                u = int(u)
                work += model.edge_op + model.atomic_op
                old = dtilde[u]
                dtilde[u] = old - 1
                decrement_targets.append(u)
                if old == k + 1 and not peeled[u]:
                    # The atomic claim: the decrementing thread takes
                    # the whole chain into its own buffer — the source
                    # of PKC's load imbalance.
                    peeled[u] = True
                    coreness[u] = k
                    claimed += 1
                    buffer.append(u)
        thread_works[tid] = work

    targets = np.asarray(decrement_targets, dtype=np.int64)
    if targets.size:
        _, counts = np.unique(targets, return_counts=True)
    else:
        counts = np.zeros(0, dtype=np.int64)
    return thread_works, counts, claimed


def pkc_kcore(
    graph: CSRGraph,
    model: CostModel = DEFAULT_COST_MODEL,
    threads: int | None = None,
) -> CorenessResult:
    """Run PKC and return the coreness of every vertex.

    Args:
        graph: Input graph.
        model: Cost model (supplies the simulated thread count by default).
        threads: Number of simulated threads owning local buffers.
    """
    runtime = SimRuntime(model)
    scratch = KernelScratch(graph, kernel_mode(runtime.registry))
    p = threads if threads is not None else model.n_cores
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    if n:
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="init_degrees"
        )

    remaining = n
    k = 0
    while remaining:
        runtime.begin_round()
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="pkc_scan"
        )
        frontier = threshold_frontier(scratch, dtilde, peeled, k)
        if frontier.size == 0:
            k += 1
            continue
        runtime.begin_subround(int(frontier.size))
        coreness[frontier] = k
        peeled[frontier] = True
        remaining -= int(frontier.size)

        # Static partition of the frontier over the thread-local buffers;
        # each thread drains its buffer sequentially, chains included.
        if scratch.mode == REFERENCE:
            thread_works, counts, claimed = _chain_drain_reference(
                graph, dtilde, peeled, coreness, frontier, k, p, model
            )
        else:
            nv, ne, counts, claimed = pkc_chain_drain_native(
                graph, dtilde, peeled, coreness, frontier, k, p, scratch
            )
            thread_works = pkc_thread_works(model, nv, ne)
        remaining -= claimed

        if counts.size:
            runtime.metrics.observe_contention(
                int(counts.max()), int(counts.sum())
            )
            span_penalty = float(counts.max()) * model.contended_atomic_op
        else:
            span_penalty = 0.0
        runtime.metrics.record_parallel(
            work=float(thread_works.sum()),
            span=float(thread_works.max()) + span_penalty,
            barriers=1,
            tag="pkc_round",
        )
        k += 1

    return CorenessResult(
        coreness=coreness, metrics=runtime.metrics, algorithm="pkc",
        model=model,
    )
