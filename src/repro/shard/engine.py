"""The shard engine: coordinator loop, simulated ledger, observability.

``shard_coreness`` runs frontier-synchronous Jacobi H-index rounds to
the global fixed point, either inline (``workers=0``, the single-process
oracle) or over a :class:`repro.shard.pool.ShardPool` of worker
processes sharing the graph's ``.npz`` file via mmap.  Exactness across
the two paths — and across every worker count — rests on three
invariants:

* **Snapshot rounds.**  Every round reads the previous round's
  estimates only (:mod:`repro.shard.rounds`), so the new estimates are
  a pure function of the global active set, not of the partition.
* **Canonical merge.**  Shards own ascending contiguous ranges and the
  pool collects replies in worker order, so merged active sets and
  delta lists are in ascending vertex order — bit-identical to the
  inline schedule (lint rule R009 guards this).
* **Coordinator-side ledger.**  All simulated charges are computed by
  the coordinator from the merged per-round aggregates through the
  sanctioned ``parallel_for`` APIs (tags ``shard_init`` /
  ``shard_hindex`` / ``shard_exchange``), so ``RunMetrics`` — including
  the float work sums, accumulated over canonical arrays — are
  deterministic regardless of worker count or kernel mode.

Worker walls, delta counts and shipped bytes land in the optional
``MetricsRegistry`` (``shard.*``) and as per-worker Perfetto wall
tracks; neither affects the ledger or the payload.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.bench.wallclock import available_cpus
from repro.core.result import CorenessResult
from repro.graphs.csr import CSRGraph
from repro.graphs.io import save_npz
from repro.obs.registry import WALL
from repro.perf import kernel_mode
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime
from repro.shard.partition import partition_ranges
from repro.shard.pool import ShardPool
from repro.shard.rounds import RoundKernels

_EMPTY = np.zeros(0, dtype=np.int64)


def default_workers() -> int:
    """Default pool size: the CPUs actually available to this process."""
    return available_cpus()


def resolve_graph_path(graph: CSRGraph) -> str | None:
    """The ``.npz`` file backing ``graph``'s arrays, if it is mmap-backed.

    Graphs loaded through the cache (:func:`repro.graphs.io.load_npz`
    with ``mmap=True``) carry their backing file on the memmap arrays;
    reusing it means the workers map the very same pages the
    coordinator already has warm.
    """
    ptr_file = _backing_file(graph.indptr)
    idx_file = _backing_file(graph.indices)
    if ptr_file is not None and ptr_file == idx_file:
        return os.fspath(ptr_file)
    return None


def _backing_file(array: np.ndarray) -> str | None:
    """The memmap file behind ``array``, walking view bases (or None)."""
    node = array
    while node is not None:
        filename = getattr(node, "filename", None)
        if filename is not None:
            return os.fspath(filename)
        node = getattr(node, "base", None)
    return None


def shard_coreness(
    graph: CSRGraph,
    model: CostModel = DEFAULT_COST_MODEL,
    *,
    workers: int | None = None,
    pool: ShardPool | None = None,
    graph_path: str | None = None,
    context: str | None = None,
    max_rounds: int | None = None,
) -> CorenessResult:
    """Exact coreness via sharded frontier-synchronous H-index rounds.

    ``workers=None`` sizes the pool from :func:`default_workers`;
    ``workers=0`` runs the identical schedule inline in this process
    (the reference of the ``shard`` oracle subject).  A
    caller-provided ``pool`` is reused and left open (the bench runner
    spawns it outside the timed region); otherwise the pool — and, for
    graphs that are not already mmap-backed, a temporary uncompressed
    ``.npz`` for the workers to map — is created and torn down here.

    The coreness array, the simulated ledger and the round trajectory
    are bit-identical for every ``workers`` value and kernel mode.
    """
    runtime = SimRuntime(model)
    n = graph.n
    est = np.ascontiguousarray(graph.degrees, dtype=np.int64).copy()
    if n == 0:
        return CorenessResult(
            coreness=est, metrics=runtime.metrics,
            algorithm="shard", model=model,
        )
    degrees = est.copy()

    own_pool = pool is None
    tmp_dir: str | None = None
    kernels: RoundKernels | None = None
    if pool is None:
        if workers is None:
            workers = default_workers()
        if workers > 0:
            if graph_path is None:
                graph_path = resolve_graph_path(graph)
            if graph_path is None:
                tmp_dir = tempfile.mkdtemp(prefix="repro-shard-")
                graph_path = os.path.join(tmp_dir, "graph.npz")
                save_npz(graph, graph_path, compress=False)
            pool = ShardPool(
                graph_path,
                partition_ranges(graph.indptr, workers),
                mode=kernel_mode(),
                context=context,
            )
    if pool is None:
        kernels = RoundKernels(
            graph.indptr, graph.indices,
            hist_size=int(degrees.max(initial=0)) + 2,
        )

    registry = runtime.registry
    if registry is not None:
        registry.set_gauge(
            "shard.workers", float(pool.shards if pool is not None else 0)
        )

    runtime.parallel_for(model.scan_op, count=n, barriers=1, tag="shard_init")

    if pool is not None and not own_pool:
        # A caller-provided (reused) pool may hold a previous run's
        # converged estimates; rewind it to the degree bound.
        pool.reset()

    limit = max_rounds if max_rounds is not None else 2 * n + 2
    round_walls: list[list[float]] = []
    active = np.arange(n, dtype=np.int64)
    ids, vals = _EMPTY, _EMPTY
    first_round = True
    try:
        for _ in range(limit):
            if pool is not None:
                ids, vals, active, walls, shipped = pool.round(ids, vals)
                est[ids] = vals
            else:
                if not first_round:
                    active = kernels.next_active(ids, 0, n)
                out = kernels.hindex_round(est, active)
                changed = out != est[active]
                ids = active[changed]
                vals = out[changed]
                est[ids] = vals
                walls, shipped = [], 0
            first_round = False
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
                registry.inc("shard.bytes_shipped", float(shipped))
                if walls:
                    registry.observe(
                        "shard.round_imbalance_s",
                        max(walls) - min(walls),
                        family=WALL,
                    )
            if walls:
                round_walls.append(walls)
            if ids.size == 0:
                break
        else:
            raise RuntimeError(
                "shard H-index iteration did not converge within the "
                "round limit"
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
    finally:
        if own_pool and pool is not None:
            pool.close()
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    return CorenessResult(
        coreness=est,
        metrics=runtime.metrics,
        algorithm="shard",
        model=model,
    )
