"""Structural graph statistics used by the adaptive strategies and tables.

The paper classifies inputs into *dense* graphs (social / web networks,
HCNS, HPL — large average degree, high coreness) and *sparse* graphs (road,
k-NN, mesh, grid — small constant degrees), and its final HBS design switches
behaviour at average degree ``theta = 16`` (Sec. 5.3).  This module computes
those statistics and the classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.primitives.bitops import sorted_unique

#: Average-degree threshold separating dense from sparse graphs; the same
#: constant the final HBS design switches at (paper Sec. 5.3).
DENSITY_THETA = 16.0


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph (the left block of Table 2)."""

    name: str
    n: int
    m: int
    max_degree: int
    average_degree: float
    degree_p99: float
    is_dense: bool

    def describe(self) -> str:
        """One-line human-readable summary."""
        kind = "dense" if self.is_dense else "sparse"
        return (
            f"{self.name or 'graph'}: n={self.n:,} m={self.m:,} "
            f"d_max={self.max_degree} d_avg={self.average_degree:.2f} "
            f"({kind})"
        )


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute :class:`GraphStats` for a graph."""
    degrees = graph.degrees
    p99 = float(np.percentile(degrees, 99)) if graph.n else 0.0
    return GraphStats(
        name=graph.name,
        n=graph.n,
        m=graph.m,
        max_degree=graph.max_degree,
        average_degree=graph.average_degree,
        degree_p99=p99,
        is_dense=graph.average_degree > DENSITY_THETA,
    )


def is_dense(graph: CSRGraph, theta: float = DENSITY_THETA) -> bool:
    """Whether the average degree exceeds the density threshold ``theta``."""
    return graph.average_degree > theta


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """Counts of vertices per degree (index d = number of degree-d vertices)."""
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(graph.degrees)


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex (BFS; labels are 0..c-1 by discovery).

    Not on the peeling hot path — used by generators' self-checks and tests.
    """
    labels = np.full(graph.n, -1, dtype=np.int64)
    current = 0
    for root in range(graph.n):
        if labels[root] != -1:
            continue
        labels[root] = current
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            neighbors = graph.gather_neighbors(frontier)
            fresh = neighbors[labels[neighbors] == -1]
            fresh = sorted_unique(fresh)
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels
