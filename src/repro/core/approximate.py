"""Approximate k-core decomposition by geometric threshold peeling.

The paper's related work (Sec. 7) covers approximate decompositions in
both sequential (King, Thomo, Yong 2022) and parallel settings
(Esfandiari, Lattanzi, Mirrokni 2018; Dhulipala et al. 2022; Liu et al.
2022/2024).  The classic scheme peels at *geometrically growing*
thresholds: phase ``i`` repeatedly removes every vertex whose induced
degree is at most ``t_i = ceil(base * (1 + eps)^i)`` and stamps the
removed vertices with the estimate ``t_i``.

Guarantee: a vertex peeled in phase ``i`` survived the exhaustive
threshold-``t_{i-1}`` peel (so its coreness exceeds ``t_{i-1}``) and fell
to the threshold-``t_i`` peel (so its coreness is at most ``t_i``), hence

    kappa(v) <= estimate(v) < (1 + eps) * kappa(v)   (phases i >= 1)

with only ``O(log_{1+eps} d_max)`` phases — each phase is one frontier
cascade, so the subround count drops from the exact algorithm's ``rho``
(which can be ``Theta(sqrt(n))``) to ``O(log d_max / eps)`` cascades.
The test suite asserts the two-sided bound vertex by vertex.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.perf import kernel_mode
from repro.perf.kernels import (
    KernelScratch,
    scan_peel_round,
    threshold_frontier,
)
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime


def approximate_coreness(
    graph: CSRGraph,
    eps: float = 0.5,
    model: CostModel = DEFAULT_COST_MODEL,
) -> CorenessResult:
    """(1 + eps)-approximate coreness for every vertex.

    Args:
        graph: Input graph.
        eps: Approximation slack (> 0).  Smaller eps means more phases
            and estimates closer to the exact coreness.
        model: Simulated-machine cost model.

    Returns:
        A :class:`CorenessResult` whose ``coreness`` array holds the
        estimates: ``kappa(v) <= estimate(v) < (1 + eps) *
        max(kappa(v), 1)`` for every vertex.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    runtime = SimRuntime(model)
    scratch = KernelScratch(graph, kernel_mode(runtime.registry))
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    estimate = np.zeros(n, dtype=np.int64)
    if n:
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="init_degrees"
        )

    remaining = n
    threshold = 0
    while remaining:
        runtime.begin_round()
        # Exhaustively peel everything with induced degree <= threshold.
        runtime.parallel_for(
            model.scan_op, count=max(remaining, 1), barriers=1,
            tag="approx_frontier",
        )
        frontier = threshold_frontier(scratch, dtilde, peeled, threshold)
        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            estimate[frontier] = threshold
            peeled[frontier] = True
            remaining -= int(frontier.size)
            task_costs = (
                model.vertex_op
                + model.edge_op
                * (graph.indptr[frontier + 1] - graph.indptr[frontier])
            ).astype(np.float64)
            outcome = scan_peel_round(scratch, dtilde, frontier, threshold)
            if outcome.touched.size:
                crossed = outcome.crossed[~peeled[outcome.crossed]]
                runtime.parallel_update(
                    task_costs, outcome.counts, barriers=1,
                    tag="approx_peel",
                )
            else:
                crossed = np.zeros(0, dtype=np.int64)
                runtime.parallel_for(
                    task_costs, barriers=1, tag="approx_peel"
                )
            frontier = crossed
        # Grow the threshold geometrically.
        threshold = max(threshold + 1, math.ceil(threshold * (1 + eps)))

    return CorenessResult(
        coreness=estimate,
        metrics=runtime.metrics,
        algorithm=f"approx(eps={eps})",
        model=model,
    )


def approximation_phases(max_degree: int, eps: float) -> int:
    """Number of threshold phases for a given maximum degree."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    phases = 1
    threshold = 0
    while threshold < max_degree:
        threshold = max(threshold + 1, math.ceil(threshold * (1 + eps)))
        phases += 1
    return phases
