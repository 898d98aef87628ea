"""ParK baseline (Dasari, Desh, Zubair 2014) — online peel, no active set.

ParK peels with direct atomic decrements like our framework's online peel,
but never maintains an active set: the initial frontier of every round is
found by scanning the *entire* vertex array, giving ``O(m + k_max * n)``
work (paper Sec. 3.2).  On graphs with a large ``k_max`` (HCNS) the scans
dominate, and on high-degree graphs (TW, SD) the unmitigated contention
does — the two failure modes Table 2 shows for ParK.
"""

from __future__ import annotations

import numpy as np

from repro.core.peel_online import OnlinePeel
from repro.core.result import CorenessResult
from repro.core.state import PeelState
from repro.graphs.csr import CSRGraph
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch, threshold_frontier
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime
from repro.structures.null_buckets import NullBuckets


def park_kcore(
    graph: CSRGraph, model: CostModel = DEFAULT_COST_MODEL
) -> CorenessResult:
    """Run ParK and return the coreness of every vertex."""
    runtime = SimRuntime(model)
    scratch = KernelScratch(graph, kernel_mode(runtime.registry))
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    if n:
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="init_degrees"
        )

    buckets = NullBuckets()
    buckets.build(graph, dtilde, peeled, runtime)
    peel = OnlinePeel(vgc=None)
    state = PeelState(
        graph=graph,
        dtilde=dtilde,
        peeled=peeled,
        coreness=coreness,
        runtime=runtime,
        buckets=buckets,
        scratch=scratch,
    )

    remaining = n
    k = 0
    while remaining:
        runtime.begin_round()
        # The work-inefficiency: a full scan of V to build the frontier.
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="park_scan"
        )
        frontier = threshold_frontier(scratch, dtilde, peeled, k)
        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            coreness[frontier] = k
            peeled[frontier] = True
            remaining -= int(frontier.size)
            runtime.parallel_for(
                model.scan_op,
                count=int(frontier.size),
                barriers=0,
                tag="assign_coreness",
            )
            frontier = peel.subround(state, frontier, k)
        k += 1

    return CorenessResult(
        coreness=coreness, metrics=runtime.metrics, algorithm="park",
        model=model,
    )
