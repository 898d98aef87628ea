"""Sharded multi-process k-core decomposition over shared mmap graphs.

The package partitions the CSR into degree-balanced contiguous vertex
ranges (:mod:`repro.shard.partition`), runs frontier-synchronous Jacobi
H-index rounds per shard in a persistent pool of worker processes that
memory-map the same cached ``.npz`` (:mod:`repro.shard.pool`), and
merges the per-round ``(vertex, new_estimate)`` deltas canonically in
the coordinator (:mod:`repro.shard.engine`).  The result — coreness,
simulated ledger, round trajectory — is bit-identical for every worker
count and kernel mode; ``python -m repro.regress oracle --subject shard``
sweeps exactly that, and ``python -m repro.shard`` emits a worker-count
invariant report for CI's byte-identity check.

See docs/SHARDING.md for the protocol and the exactness argument.
"""

from __future__ import annotations

import importlib

#: Each export and the submodule defining it.  Resolved on first access,
#: so importing one submodule (``core.locality`` runs its H-index rounds
#: on ``shard.rounds``) loads neither the engine nor what it imports.
_EXPORTS = {
    "RoundKernels": "repro.shard.rounds",
    "ShardPlan": "repro.shard.partition",
    "ShardPool": "repro.shard.pool",
    "ShardWorkerError": "repro.shard.pool",
    "default_workers": "repro.shard.engine",
    "graph_digest": "repro.shard.pool",
    "partition_ranges": "repro.shard.partition",
    "resolve_graph_path": "repro.shard.engine",
    "shard_coreness": "repro.shard.engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
