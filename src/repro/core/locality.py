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
"""

from __future__ import annotations

import numpy as np

from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime


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


def hindex_coreness(
    graph: CSRGraph,
    model: CostModel = DEFAULT_COST_MODEL,
    max_rounds: int | None = None,
) -> CorenessResult:
    """Exact coreness via H-index iteration (Montresor-style).

    Each round recomputes every *active* vertex's estimate as the H-index
    of its neighbors' current estimates; vertices whose estimate did not
    change and whose neighbors' estimates did not change are skipped (the
    standard "push on change" optimization).  Rounds are counted in the
    metrics' ``rounds`` field.  The rounds themselves run on the shard
    engine's :class:`repro.shard.rounds.RoundKernels`, so the
    ``REPRO_KERNELS`` switch selects the compiled or the reference loop.
    """
    # Imported here: repro.shard.rounds imports h_index from this module.
    from repro.shard.rounds import RoundKernels

    runtime = SimRuntime(model)
    n = graph.n
    estimate = graph.degrees.astype(np.int64).copy()
    if n == 0:
        return CorenessResult(
            coreness=estimate, metrics=runtime.metrics,
            algorithm="hindex", model=model,
        )
    runtime.parallel_for(model.scan_op, count=n, barriers=1, tag="init")

    degrees = estimate.copy()
    kernels = RoundKernels(
        graph.indptr, graph.indices, hist_size=int(degrees.max()) + 2
    )
    limit = max_rounds if max_rounds is not None else 2 * n + 2
    active = np.arange(n, dtype=np.int64)
    for _ in range(limit):
        if active.size == 0:
            break
        runtime.begin_round()
        # Synchronous (Jacobi) update from a snapshot: all vertices read
        # the previous round's estimates, as distributed nodes would.
        new = kernels.hindex_round(estimate, active)
        changed = new != estimate[active]
        # ``cumsum`` adds sequentially in vertex order, so the round's
        # work equals a running per-vertex total under any cost model.
        work = np.cumsum(model.vertex_op + model.edge_op * degrees[active])
        runtime.parallel_for(
            np.array([max(float(work[-1]), 1.0)]),
            barriers=1,
            tag="hindex_round",
        )
        estimate[active[changed]] = new[changed]
        active = kernels.next_active(active[changed], 0, n)
    else:
        raise RuntimeError(
            "H-index iteration did not converge within the round limit"
        )

    return CorenessResult(
        coreness=estimate,
        metrics=runtime.metrics,
        algorithm="hindex",
        model=model,
    )
