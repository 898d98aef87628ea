"""The shard engine: pool lifecycle around the one coordinator loop.

``shard_coreness`` runs frontier-synchronous Jacobi H-index rounds to
the global fixed point, either inline (``workers=0``, the single-process
oracle) or over a :class:`repro.shard.pool.ShardPool` of worker
processes sharing the graph's ``.npz`` file via mmap; both drive the one
loop in :mod:`repro.shard.rounds`.  Exactness across the two paths —
and across every worker count — rests on three invariants:

* **Snapshot rounds.**  Every round reads the previous round's
  estimates only (:mod:`repro.shard.rounds`), so the new estimates are
  a pure function of the global active set, not of the partition.
* **Canonical merge.**  Shards own ascending contiguous ranges and the
  pool collects replies in worker order, so merged active sets and
  delta lists are in ascending vertex order — bit-identical to the
  inline schedule (lint rule R009 guards this).
* **Coordinator-side ledger.**  All simulated charges are computed by
  the coordinator loop from the merged per-round aggregates through the
  sanctioned ``parallel_for`` APIs (tags ``shard_init`` /
  ``shard_hindex`` / ``shard_exchange``), so ``RunMetrics`` — including
  the float work sums, accumulated over canonical arrays — are
  deterministic regardless of worker count or kernel mode.
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
from repro.obs.registry import active_registry
from repro.perf import kernel_mode
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.shard.partition import partition_ranges
from repro.shard.pool import ShardPool
from repro.shard.rounds import run_rounds


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
    (the reference of the ``shard`` oracle subject); a negative count
    raises ``ValueError``.  Both drive
    :func:`repro.shard.rounds.run_rounds`.  A caller-provided ``pool``
    is reset, reused and left open (the bench runner spawns it outside
    the timed region); otherwise the pool — and, for graphs that are not
    already mmap-backed, a temporary uncompressed ``.npz`` for the
    workers to map — is created and torn down here.

    The coreness array, the simulated ledger and the round trajectory
    are bit-identical for every ``workers`` value and kernel mode, which
    each call resolves once (a caller's ``pool`` runs in its own).
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (0: inline), got {workers}")
    if pool is None and workers is None:
        workers = default_workers()
    if graph.n == 0 or (pool is None and workers == 0):
        return run_rounds(graph, model, "shard", max_rounds=max_rounds)

    mode = kernel_mode(active_registry())
    own_pool = pool is None
    tmp_dir: str | None = None
    if pool is None:
        if graph_path is None:
            graph_path = resolve_graph_path(graph)
        if graph_path is None:
            tmp_dir = tempfile.mkdtemp(prefix="repro-shard-")
            graph_path = os.path.join(tmp_dir, "graph.npz")
            save_npz(graph, graph_path, compress=False)
        pool = ShardPool(
            graph_path,
            partition_ranges(graph.indptr, workers),
            mode=mode,
            context=context,
        )
    else:
        # A reused pool may hold a previous run's converged estimates;
        # rewind it to the degree bound.
        pool.reset()
    try:
        return run_rounds(
            graph, model, "shard", pool=pool, max_rounds=max_rounds
        )
    finally:
        if own_pool:
            pool.close()
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
