"""Offline peeling (paper Alg. 2) — the Julienne strategy.

The offline peel is batch-synchronous and race-free: it concatenates the
neighbor lists of the frontier into a list ``L``, counts the occurrences of
each vertex with a semisort-based HISTOGRAM, applies all decrements at once,
and packs the vertices that crossed the threshold into the next frontier.
Each subround therefore needs several global synchronizations (gather,
histogram phases, apply/pack), which is exactly why its burdened span is a
constant factor worse than the online peel's and why it collapses on graphs
with many tiny subrounds (the GRID adversary, paper Fig. 2).
"""

from __future__ import annotations

import numpy as np

from repro.core.state import PeelState
from repro.perf.kernels import scan_peel_round


class OfflinePeel:
    """Offline (histogram-based) peel strategy."""

    name = "offline"

    def subround(
        self, state: PeelState, frontier: np.ndarray, k: int
    ) -> np.ndarray:
        graph, runtime = state.graph, state.runtime
        model = runtime.model

        # Gather the concatenated neighbor list L (Alg. 2 line 3).
        degrees = graph.indptr[frontier + 1] - graph.indptr[frontier]
        task_costs = (
            model.vertex_op + model.edge_op * degrees
        ).astype(np.float64)
        runtime.parallel_for(task_costs, barriers=1, tag="offline_gather")

        edge_total = int(degrees.sum())
        if edge_total == 0:
            return np.zeros(0, dtype=np.int64)

        # HISTOGRAM via semisort (two phases) and batched application,
        # fused into one flat kernel pass: the charge is the semisort's
        # (per element of L), the counting itself runs in
        # :func:`repro.perf.kernels.scan_peel_round` — whose sorted
        # ``touched`` / ``counts`` are exactly the semisort's groups.
        runtime.parallel_for(
            model.histogram_op, count=edge_total, barriers=2,
            tag="offline_hist",
        )
        outcome = scan_peel_round(state.scratch, state.dtilde, frontier, k)
        survivors = (outcome.new > k) & (~state.peeled[outcome.touched])
        runtime.parallel_for(
            model.scan_op,
            count=int(outcome.touched.size),
            barriers=1,
            tag="offline_apply",
        )

        if np.any(survivors):
            state.buckets.on_decrements(
                outcome.touched[survivors], outcome.old[survivors]
            )
        return outcome.crossed[~state.peeled[outcome.crossed]]
