"""Pinned update-sequence goldens for the batch-dynamic engine.

:data:`UPDATE_CASES` fixes twelve update sequences over the dedicated
regression graphs; their per-batch coreness trajectory, final
fingerprint and simulated-runtime ledger are blessed under
``goldens/updates.json`` and checked by the usual
``python -m repro.regress run`` gate.  The randomized differential sweep
of the same engine against a full recompute is the ``updates`` subject
of :mod:`repro.regress.harness`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.batch_dynamic import BatchDynamicKCore
from repro.generators.streams import (
    PROFILES,
    UpdateBatch,
    generate_stream,
)
from repro.graphs.csr import CSRGraph
from repro.regress.matrix import coreness_fingerprint, load_graph
from repro.runtime.cost_model import DEFAULT_COST_MODEL

#: Golden-file name the pinned update cases are blessed under.
UPDATE_GOLDEN = "updates"


@dataclass(frozen=True)
class UpdateCase:
    """One pinned (graph, stream profile, seed) update sequence."""

    graph: str
    profile: str
    seed: int
    batches: int = 10
    batch_size: int = 12

    @property
    def entry_key(self) -> str:
        return f"{self.graph}/{self.profile}-s{self.seed}"

    @property
    def case_id(self) -> str:
        return f"{UPDATE_GOLDEN}/{self.entry_key}"


#: Twelve pinned sequences: every stream profile on four dedicated
#: regression graphs (never the resizable benchmark suite).
UPDATE_CASES: tuple[UpdateCase, ...] = tuple(
    UpdateCase(graph=graph, profile=profile, seed=seed)
    for graph, seed in (
        ("er-300", 11),
        ("hub-500", 12),
        ("grid-24", 13),
        ("knn-400", 14),
    )
    for profile in PROFILES
)


def _batches_of(case: UpdateCase, graph: CSRGraph) -> list[UpdateBatch]:
    events = generate_stream(
        graph,
        case.profile,
        batches=case.batches,
        batch_size=case.batch_size,
        queries_per_batch=0,
        seed=case.seed,
    )
    return [event for event in events if isinstance(event, UpdateBatch)]


def run_update_case(case: UpdateCase) -> dict[str, object]:
    """Execute one pinned sequence and return its golden payload.

    The trajectory hash folds the coreness array after every batch, so
    a drift anywhere along the sequence — not just at the end — breaks
    the golden.  Payloads are kernel-mode independent (all modes are
    bit-exact), like every other golden.
    """
    graph = load_graph(case.graph)
    engine = BatchDynamicKCore(graph)
    trajectory = hashlib.sha256()
    for batch in _batches_of(case, graph):
        engine.apply_batch(
            insertions=batch.insertions, deletions=batch.deletions
        )
        trajectory.update(
            np.ascontiguousarray(engine.coreness, dtype="<i8").tobytes()
        )
    final = engine.snapshot()
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "stream": {
            "profile": case.profile,
            "seed": case.seed,
            "batches": case.batches,
            "batch_size": case.batch_size,
        },
        "final_graph": {"n": final.n, "m": final.m},
        "coreness": coreness_fingerprint(engine.coreness),
        "trajectory_sha256": trajectory.hexdigest()[:16],
        "metrics": engine.metrics.to_stable_dict(DEFAULT_COST_MODEL),
    }


def run_update_matrix(
    pattern: str | None = None,
) -> dict[str, dict[str, dict[str, object]]]:
    """The pinned update cases as a ``run_matrix``-shaped result.

    Returns ``{"updates": {entry_key: payload}}``, merged by the regress
    CLI into the engine matrix so the same run/diff/bless pipeline (and
    the same drift reporting) covers update sequences.  Empty when a
    filter matches no update case.
    """
    entries = {
        case.entry_key: run_update_case(case)
        for case in UPDATE_CASES
        if not pattern or pattern in case.case_id
    }
    return {UPDATE_GOLDEN: entries} if entries else {}


__all__ = [
    "UPDATE_CASES",
    "UPDATE_GOLDEN",
    "UpdateCase",
    "run_update_case",
    "run_update_matrix",
]
