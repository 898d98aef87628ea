"""The H-index locality algorithm for k-core (distributed-style).

The paper's related work covers distributed k-core (Montresor, De
Pellegrini, Miorandi 2011, its ref [58]) and low-memory settings
(Khaouid et al., ref [39]).  Both build on the *locality* theorem of
k-core: a vertex's coreness equals the **H-index** of its neighbors'
corenesses —

    kappa(v) = H({kappa(u) : u in N(v)})

where ``H(S)`` is the largest ``h`` such that at least ``h`` elements of
``S`` are ``>= h``.  Iterating ``estimate(v) <- H(neighbors' estimates)``
from the degree upper bound converges monotonically (from above) to the
exact coreness, with every vertex updated independently — no shared
frontier, no synchronized peeling — which is what makes it the algorithm
of choice for distributed and vertex-centric systems.

Convergence takes at most ``O(n)`` rounds in theory but typically a few
dozen on real graphs; the returned metrics expose the round count so
tests and benchmarks can compare it against the peeling complexity.

The round iteration itself is written once, in :mod:`repro.shard.rounds`;
this module keeps the H-index primitives and :func:`hindex_coreness`.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


def h_index(values: np.ndarray) -> int:
    """The H-index of a multiset: max h with at least h values >= h."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return 0
    counts = np.bincount(np.minimum(values, values.size))
    total = 0
    for h in range(values.size, 0, -1):
        total += counts[h] if h < counts.size else 0
        if total >= h:
            return h
    return 0


def clipped_h_index(counts: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """``min(caps[i], h_index(values_i))`` per segment, from histograms.

    ``counts`` concatenates one histogram per segment ``i``: ``caps[i] + 1``
    entries, entry ``c`` counting the values clipped to ``c`` by
    ``min(x, caps[i])``.  No per-segment loop: the count of values ``>= c``
    only shrinks as ``c`` grows, so the qualifying levels are ``1..h``.
    """
    caps = np.asarray(caps, dtype=np.int64)
    if caps.size == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    sizes = caps + 1
    starts = np.cumsum(sizes) - sizes
    if counts.size != starts[-1] + sizes[-1]:
        raise ValueError(
            f"{counts.size} histogram entries for segments of total size "
            f"{starts[-1] + sizes[-1]}"
        )
    running = np.cumsum(counts)
    # Values >= c in c's segment: the segment's running total at its
    # end, minus the running total before c.
    at_least = np.repeat(running[starts + caps], sizes) - running + counts
    level = np.arange(counts.size) - np.repeat(starts, sizes)
    qualifies = (level > 0) & (at_least >= level)
    return np.add.reduceat(qualifies, starts, dtype=np.int64)


def hindex_coreness(
    graph: CSRGraph,
    model: CostModel = DEFAULT_COST_MODEL,
    max_rounds: int | None = None,
) -> CorenessResult:
    """Exact coreness via H-index iteration (Montresor-style).

    Each round recomputes every *active* vertex's estimate as the H-index
    of its neighbors' current estimates, all from the previous round's
    snapshot (Jacobi); only neighbors of vertices that changed are
    active in the next round (the standard "push on change"
    optimization).  This is the shard engine's inline schedule
    (:func:`repro.shard.rounds.run_rounds`), labelled ``"hindex"``: each
    round is one parallel scan over the active vertices, and the
    ``REPRO_KERNELS`` switch selects the compiled or the reference round.
    """
    # Imported here: repro.shard.rounds imports h_index from this module.
    from repro.shard.rounds import run_rounds

    return run_rounds(graph, model, "hindex", max_rounds=max_rounds)
