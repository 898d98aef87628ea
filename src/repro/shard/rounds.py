"""The H-index iteration, once: one round step and one coordinator loop.

One round recomputes each active vertex's estimate as ``min(est[v],
H({est[u] : u in N(v)}))`` from a snapshot of the estimates — the
Montresor locality update (see :mod:`repro.core.locality`).  The
snapshot read is what makes the round *partition-independent*: the same
global active set produces the same new estimates whether one process
computes it or seven workers each compute a contiguous slice, which is
the invariant the ``shard`` oracle subject enforces bit-for-bit.

The iteration is written once, as :meth:`RoundKernels.step` (one round
over a vertex range, run by the inline path and by every pool worker)
and :func:`run_rounds` (the coordinator loop: ledger, convergence, round
limit).  ``hindex_coreness`` and ``shard_coreness(workers=0)`` are its
inline schedule.  The H-index round has two implementations, selected
by the ``REPRO_KERNELS`` switch and bit-exact with each other:

* ``native`` — the compiled ``hindex_round`` / ``mark_dirty`` kernels
  (:mod:`repro.perf.native`), a clipped-histogram H-index whose reset
  and suffix scans are bounded by ``O(deg(v))`` because estimates start
  at the degree bound and only decrease;
* ``reference`` — the straight-line Python loop over
  :func:`repro.core.locality.h_index`, kept as the equivalence oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.locality import h_index
from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.obs.registry import HOST
from repro.perf import NATIVE, kernel_mode
from repro.runtime.cost_model import CostModel
from repro.runtime.simulator import SimRuntime

_EMPTY = np.zeros(0, dtype=np.int64)


class RoundKernels:
    """One process's share of the iteration: estimates, range, scratch.

    Holds all ``n`` estimates (from the degree bound) and steps ``[lo,
    hi)`` of its (possibly mmap-backed) CSR arrays.  The dirty mask
    covers all ``n`` vertices because the compiled ``mark_dirty`` marks
    out-of-range neighbors too (harmlessly — :meth:`next_active` scans
    only the range).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        lo: int = 0,
        hi: int | None = None,
        mode: str,
    ):
        self.indptr = indptr
        self.indices = indices
        self.mode = mode
        self.est = np.ascontiguousarray(np.diff(indptr), dtype=np.int64)
        n = self.est.size
        self.lo, self.hi = lo, n if hi is None else hi
        self.dirty = np.zeros(n, dtype=np.uint8)
        self._hist = (
            np.zeros(int(self.est.max(initial=0)) + 2, dtype=np.int64)
            if self.mode == NATIVE
            else None
        )
        self._deltas: np.ndarray | None = None  # None: first round

    def reset(self) -> None:
        """Rewind to the degree bound (a fresh decomposition)."""
        self.est[:] = np.diff(self.indptr)
        self._deltas = None

    def step(
        self, ext_ids: np.ndarray = _EMPTY, ext_vals: np.ndarray = _EMPTY
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round over ``[lo, hi)``; returns ``(ids, vals, active)``.

        ``ext_ids`` / ``ext_vals`` are the previous round's deltas outside
        the range that it reads (none inline).  With the range's own
        previous deltas they select the active set (the whole range at
        first); the changed pairs are written back and returned.
        """
        est = self.est
        if ext_ids.size:
            est[ext_ids] = ext_vals
        if self._deltas is None:
            active = np.arange(self.lo, self.hi, dtype=np.int64)
        else:
            active = self.next_active(np.concatenate((self._deltas, ext_ids)))
        out = self.hindex_round(active)
        changed = out != est[active]
        ids = active[changed]
        vals = out[changed]
        est[ids] = vals
        self._deltas = ids
        return ids, vals, active

    def hindex_round(self, active: np.ndarray) -> np.ndarray:
        """New estimates of ``active``, from a snapshot of the estimates."""
        if active.size == 0:
            return _EMPTY
        est = self.est
        out = np.empty(active.size, dtype=np.int64)
        if self.mode == NATIVE:
            from repro.perf.native import run_hindex_round

            return run_hindex_round(
                self.indptr, self.indices, est, active, out, self._hist
            )
        for i, v in enumerate(active):
            v = int(v)
            nbrs = np.asarray(
                self.indices[self.indptr[v] : self.indptr[v + 1]]
            )
            out[i] = min(int(est[v]), h_index(est[nbrs]))
        return out

    def next_active(self, changed: np.ndarray) -> np.ndarray:
        """Neighbors of ``changed`` in ``[lo, hi)``, ascending."""
        self.dirty[:] = 0
        if changed.size:
            if self.mode == NATIVE:
                from repro.perf.native import run_mark_dirty

                run_mark_dirty(
                    self.indptr, self.indices, changed, self.dirty
                )
            else:
                for v in changed:
                    v = int(v)
                    row = self.indices[self.indptr[v] : self.indptr[v + 1]]
                    self.dirty[np.asarray(row)] = 1
        lo, hi = self.lo, self.hi
        return lo + np.nonzero(self.dirty[lo:hi])[0].astype(np.int64)


def run_rounds(
    graph: CSRGraph,
    model: CostModel,
    algorithm: str,
    *,
    pool=None,
    max_rounds: int | None = None,
) -> CorenessResult:
    """The coordinator loop: H-index rounds to the global fixed point.

    Inline (``pool=None``) the coordinator steps ``[0, n)`` itself, in
    the kernel mode it resolves; over a
    :class:`~repro.shard.pool.ShardPool` each round is one
    ``pool.round``, whose merged deltas keep the coordinator's estimates
    current.  Every simulated charge is made here, from the round's
    merged aggregates in ascending vertex order, so the ledger does not
    depend on the pool: one ``shard_init`` scan, then per round
    ``shard_hindex`` (``vertex_op + edge_op * deg(v)`` per active
    vertex) and ``shard_exchange`` (per changed pair).  The first round
    without a delta is the fixed point; ``max_rounds`` (default
    ``2n + 2``) rounds without one raise ``RuntimeError``.  Delta counts
    go to the observing registry's ``sim`` family; the pool size,
    shipped bytes and walls, which depend on the pool, to ``host``.
    """
    runtime = SimRuntime(model)
    degrees = np.ascontiguousarray(graph.degrees, dtype=np.int64)
    if pool is None:
        mode = kernel_mode(runtime.registry)  # once per run
        kernels = RoundKernels(graph.indptr, graph.indices, mode=mode)
        est = kernels.est
    else:
        est = degrees.copy()
    result = CorenessResult(
        coreness=est, metrics=runtime.metrics, algorithm=algorithm,
        model=model,
    )
    n = graph.n
    if n == 0:
        return result
    registry = runtime.registry
    if registry is not None:
        registry.set_gauge(
            "shard.workers",
            float(pool.shards if pool is not None else 0),
            family=HOST,
        )
    runtime.parallel_for(model.scan_op, count=n, barriers=1, tag="shard_init")

    limit = max_rounds if max_rounds is not None else 2 * n + 2
    round_walls: list[list[float]] = []
    ids, vals = _EMPTY, _EMPTY
    for _ in range(limit):
        if pool is None:
            ids, vals, active = kernels.step()
            walls, shipped = [], 0
        else:
            ids, vals, active, walls, shipped = pool.round(ids, vals)
            est[ids] = vals
        runtime.begin_round()
        task_costs = model.vertex_op + model.edge_op * degrees[active]
        runtime.parallel_for(task_costs, barriers=1, tag="shard_hindex")
        if ids.size:
            runtime.parallel_for(
                model.scan_op, count=int(ids.size), barriers=1,
                tag="shard_exchange",
            )
        if registry is not None:
            registry.inc("shard.rounds")
            registry.inc("shard.deltas", float(ids.size))
            registry.inc("shard.bytes_shipped", float(shipped), family=HOST)
            if walls:
                registry.observe(
                    "shard.round_imbalance_s",
                    max(walls) - min(walls),
                    family=HOST,
                )
        if walls:
            round_walls.append(walls)
        if ids.size == 0:
            break
    else:
        raise RuntimeError(
            "H-index iteration did not converge within the round limit"
        )
    if registry is not None:
        for shard in range(pool.shards if pool is not None else 0):
            offset = 0.0
            for index, walls in enumerate(round_walls, start=1):
                registry.host_span(
                    f"shard round {index}",
                    walls[shard],
                    track=f"worker {shard}",
                    start_s=offset,
                    round=index,
                )
                offset += walls[shard]
    return result
