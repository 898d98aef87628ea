"""Compressed sparse row (CSR) graph representation.

All algorithms in this library operate on undirected simple graphs stored in
CSR form: an ``indptr`` array of length ``n + 1`` and an ``indices`` array of
length ``2 * |E|`` holding each vertex's sorted neighbor list.  This matches
the representation used by the paper's C++ implementation (and by GBBS /
Ligra), and keeps the peeling loops vectorizable with numpy.

Directed inputs are symmetrized on construction, mirroring the paper's
data preparation ("directed graphs are symmetrized by converting edges to
bidirectional", Sec. 6.1.1).  Self-loops and duplicate edges are removed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import GraphFormatError, InvalidGraphError
from repro.primitives.bitops import sorted_unique


class CSRGraph:
    """An undirected simple graph in compressed sparse row form.

    Attributes:
        indptr: int64 array of length ``n + 1``; vertex ``v``'s neighbors are
            ``indices[indptr[v]:indptr[v + 1]]``.
        indices: int64 array of length ``2 * |E|``, sorted within each row.
        name: Optional human-readable label (used in benchmark tables).
    """

    __slots__ = ("indptr", "indices", "name", "__dict__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str = "",
        validate: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.name = name
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise InvalidGraphError("indptr and indices must be 1-D arrays")
        if self.indptr.size == 0:
            raise InvalidGraphError("indptr must have length n + 1 >= 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise InvalidGraphError(
                "indptr must start at 0 and end at len(indices)"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise InvalidGraphError("indptr must be non-decreasing")
        n = self.indptr.size - 1
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise InvalidGraphError("neighbor index out of range")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray | list[tuple[int, int]],
        name: str = "",
        symmetrize: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Args:
            n: Number of vertices (ids ``0 .. n-1``).
            edges: Array of shape ``(m, 2)`` or list of pairs.  Treated as
                directed arcs; with ``symmetrize=True`` (the default, and the
                paper's convention) each arc also contributes its reverse.
            name: Label for reporting.
            symmetrize: Add reverse arcs before deduplication.

        Self-loops and duplicate (multi-)edges are dropped.
        """
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

        src, dst = arr[:, 0], arr[:, 1]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if symmetrize:
            src, dst = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
            )
        # Deduplicate arcs via a fused key sort.
        key = src * np.int64(n) + dst
        key = sorted_unique(key)
        src = key // n
        dst = key % n

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        # Arcs are already sorted by (src, dst) thanks to the key sort.
        return cls(indptr, dst, name=name, validate=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        """Number of directed arcs (``2 *`` undirected edge count)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (int64 array of length ``n``)."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        """Largest degree, 0 for the empty graph."""
        if self.n == 0:
            return 0
        return int(self.degrees.max())

    @property
    def average_degree(self) -> float:
        """Average degree ``m / n`` (counting arcs), 0 for the empty graph."""
        if self.n == 0:
            return 0.0
        return self.m / self.n

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor list of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    # ------------------------------------------------------------------
    # Bulk operations used by the peeling algorithms
    # ------------------------------------------------------------------
    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of all frontier vertices.

        This is the list ``L`` of the offline peel (Alg. 2 line 3) and the
        flattened iteration space of the online peel's nested parallel-for.
        Fully vectorized: no per-vertex Python loop.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return np.zeros(0, dtype=np.int64)
        starts = self.indptr[frontier]
        lengths = self.indptr[frontier + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        # Offsets trick: positions [0, total) mapped into self.indices.
        ends = np.cumsum(lengths)
        first = np.repeat(starts - (ends - lengths), lengths)
        flat = first + np.arange(total, dtype=np.int64)
        return self.indices[flat]

    def frontier_edge_count(self, frontier: np.ndarray) -> int:
        """Total neighborhood size of a frontier (peel work of a subround)."""
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return 0
        return int(
            (self.indptr[frontier + 1] - self.indptr[frontier]).sum()
        )

    def induced_subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Subgraph induced by ``vertices``, with vertices relabeled 0..k-1.

        Used to materialize a specific ``G_k`` from a decomposition and by
        the max k'-core extraction of Appendix B.
        """
        vertices = sorted_unique(np.asarray(vertices, dtype=np.int64))
        keep = np.zeros(self.n, dtype=bool)
        keep[vertices] = True
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.size, dtype=np.int64)

        src = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
        )
        mask = keep[src] & keep[self.indices]
        edges = np.stack(
            [relabel[src[mask]], relabel[self.indices[mask]]], axis=1
        )
        return CSRGraph.from_edges(
            vertices.size, edges, name=f"{self.name}/induced",
            symmetrize=False,
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"CSRGraph({label} n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash
        return id(self)
