"""Semi-external k-core decomposition (edges on disk, vertices in RAM).

The paper's related work spans external-memory k-core (Cheng et al.
2011; Wen et al. 2018 — refs [15, 75]) and the single-PC low-memory
setting (Khaouid et al. 2015 — ref [39]).  The common regime: ``O(n)``
memory for vertex state, edges too large for RAM and streamed from disk.

This module implements the classic *semi-external* algorithm built on
the locality (H-index) characterization: keep one estimate per vertex in
memory, and per round stream the edge file once, accumulating for every
vertex the histogram of its neighbors' (clipped) estimates; at the end
of the pass, lower each estimate to the H-index of what streamed past.
Estimates start at the degrees and converge monotonically to the exact
coreness.  Each round is exactly one sequential pass over the edge file
— the I/O pattern that matters in this setting — and the result reports
the pass count.  The update itself is one vectorised H-index,
:func:`repro.core.locality.clipped_h_index`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.locality import clipped_h_index
from repro.graphs.csr import CSRGraph

#: Number of int64 edge endpoints read per chunk (bounded RAM).
DEFAULT_CHUNK_EDGES = 65_536


def write_edge_file(
    graph: CSRGraph,
    path: str | os.PathLike,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> int:
    """Serialize a graph's undirected edges as raw little-endian int64.

    Returns the number of edges written.  This is the on-disk input the
    semi-external solver streams.  The writer itself honors the
    semi-external memory contract: edges are emitted in vertex-range
    chunks of at most ``chunk_edges`` buffered pairs, never
    materializing the full ``(m, 2)`` edge array.
    """
    if chunk_edges <= 0:
        raise ValueError(f"chunk_edges must be positive: {chunk_edges}")
    indptr = graph.indptr
    written = 0
    with open(path, "wb") as handle:
        lo = 0
        while lo < graph.n:
            # Grow the vertex range [lo, hi) until it covers at least
            # chunk_edges directed entries (a single high-degree vertex
            # may exceed the budget on its own; it still ships whole).
            hi = int(
                np.searchsorted(
                    indptr, indptr[lo] + chunk_edges, side="left"
                )
            )
            hi = min(max(hi, lo + 1), graph.n)
            src = np.repeat(
                np.arange(lo, hi, dtype=np.int64),
                np.diff(indptr[lo : hi + 1]),
            )
            dst = graph.indices[indptr[lo] : indptr[hi]]
            mask = src < dst
            pairs = np.stack([src[mask], dst[mask]], axis=1)
            pairs.astype("<i8").tofile(handle)
            written += pairs.shape[0]
            lo = hi
    return written


def _stream_edges(path: str | os.PathLike, chunk_edges: int):
    """Yield (u_array, v_array) chunks from a raw edge file."""
    with open(path, "rb") as handle:
        while True:
            block = np.fromfile(
                handle, dtype="<i8", count=2 * chunk_edges
            )
            if block.size == 0:
                return
            if block.size % 2:
                raise ValueError("corrupt edge file: odd element count")
            pairs = block.reshape(-1, 2)
            yield pairs[:, 0], pairs[:, 1]


@dataclass
class SemiExternalResult:
    """Output of the semi-external decomposition.

    Attributes:
        coreness: Exact coreness per vertex.
        passes: Edge-file passes (the I/O cost that matters here).
        peak_memory_values: Array entries held in RAM at the peak —
            the vertex arrays plus the final pass's clipped histogram
            (far below the edge count once estimates shrink).
    """

    coreness: np.ndarray
    passes: int
    peak_memory_values: int


def semi_external_coreness(
    edge_path: str | os.PathLike,
    n: int,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    max_passes: int | None = None,
) -> SemiExternalResult:
    """Exact coreness with vertex-resident memory, streaming the edges.

    Args:
        edge_path: Raw int64 edge file from :func:`write_edge_file`.
        n: Number of vertices.
        chunk_edges: Edges buffered per read (bounds RAM).
        max_passes: Safety limit (default ``2n + 2``).

    The per-round update: for every vertex accumulate
    ``hist[v][min(estimate[u], estimate[v])]`` over streamed neighbors
    ``u``, then lower ``estimate[v]`` to the largest ``h`` with at least
    ``h`` neighbors of clipped estimate ``>= h`` — the H-index computed
    from counts without materializing adjacency.
    """
    if n < 0:
        raise ValueError(f"negative vertex count: {n}")
    # Pass 0: degrees.
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in _stream_edges(edge_path, chunk_edges):
        np.add.at(degrees, u, 1)
        np.add.at(degrees, v, 1)
    estimate = degrees.copy()
    passes = 1

    limit = max_passes if max_passes is not None else 2 * n + 2
    # Each pass accumulates, per vertex, a histogram of its neighbors'
    # estimates clipped at the vertex's own estimate — a ragged layout of
    # size sum(e(v) + 1).  That is O(n + m) in the first refinement pass
    # and shrinks with the estimates afterwards; the classic EM papers
    # additionally cap the histogram and spend extra passes on the few
    # high-estimate vertices, a refinement we document but skip.
    for _ in range(limit):
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(estimate + 1, out=offsets[1:])
        hist = np.zeros(int(offsets[-1]), dtype=np.int64)
        for u, v in _stream_edges(edge_path, chunk_edges):
            eu = estimate[u]
            ev = estimate[v]
            np.add.at(hist, offsets[u] + np.minimum(ev, eu), 1)
            np.add.at(hist, offsets[v] + np.minimum(eu, ev), 1)
        passes += 1
        # Vertex blocks of at most chunk_edges histogram entries (a larger
        # vertex goes alone) keep the update's temporaries in the budget.
        changed = False
        lo = 0
        while lo < n:
            hi = np.searchsorted(offsets, offsets[lo] + chunk_edges, "right")
            hi = max(int(hi) - 1, lo + 1)
            old = estimate[lo:hi]
            new = clipped_h_index(hist[offsets[lo] : offsets[hi]], old)
            changed |= not np.array_equal(new, old)
            estimate[lo:hi] = new
            lo = hi
        if not changed:
            break
    else:
        raise RuntimeError(
            "semi-external iteration did not converge within the limit"
        )

    return SemiExternalResult(
        coreness=estimate,
        passes=passes,
        peak_memory_values=2 * n + 2 + int(offsets[-1]) if n else 0,
    )
