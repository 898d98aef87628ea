"""Directed graph representation (dual-CSR) for the D-core extension.

The paper's related work (Sec. 7) covers D-core decomposition on directed
graphs (Giatsidis et al. 2013; Liao et al. 2022; Luo et al. 2024).  A
:class:`DirectedCSRGraph` stores both the out-adjacency and in-adjacency
in CSR form so peeling can decrement in- and out-degrees symmetrically.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph
from repro.primitives.bitops import sorted_unique


class DirectedCSRGraph:
    """A simple directed graph with both adjacency directions in CSR."""

    def __init__(self, n: int, edges: np.ndarray | list[tuple[int, int]],
                 name: str = "") -> None:
        if n < 0:
            raise GraphFormatError(f"negative vertex count: {n}")
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError(
                f"edge list must have shape (m, 2), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise GraphFormatError("edge endpoint out of range")
        keep = arr[:, 0] != arr[:, 1]
        arr = arr[keep]
        # Deduplicate arcs.
        key = sorted_unique(arr[:, 0] * np.int64(max(n, 1)) + arr[:, 1])
        src = key // max(n, 1)
        dst = key % max(n, 1)

        self.n = n
        self.name = name
        self.out = CSRGraph.from_edges(
            n, np.stack([src, dst], axis=1), symmetrize=False,
            name=f"{name}/out",
        )
        self.inn = CSRGraph.from_edges(
            n, np.stack([dst, src], axis=1), symmetrize=False,
            name=f"{name}/in",
        )

    @property
    def m(self) -> int:
        """Number of arcs."""
        return self.out.m

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return self.out.degrees

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return self.inn.degrees

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out.neighbors(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.inn.neighbors(v)

    def as_undirected(self) -> CSRGraph:
        """Forget directions (symmetrize)."""
        src = np.repeat(
            np.arange(self.n, dtype=np.int64), self.out.degrees
        )
        return CSRGraph.from_edges(
            self.n,
            np.stack([src, self.out.indices], axis=1),
            name=self.name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"DirectedCSRGraph({label} n={self.n}, m={self.m})"


def random_digraph(
    n: int, avg_out_degree: float, seed: int = 0, name: str = ""
) -> DirectedCSRGraph:
    """Uniform random digraph with the given expected out-degree."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_out_degree)
    edges = rng.integers(0, max(n, 1), size=(m, 2), dtype=np.int64)
    return DirectedCSRGraph(n, edges, name=name or f"digraph-{n}")
