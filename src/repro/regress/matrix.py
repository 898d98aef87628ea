"""The pinned regression matrix: (engine x graph x cost model) cases.

Everything here is deliberately frozen.  The graphs are built by seeded
generators at fixed sizes, the cost-model variants list every constant they
override, and the case list is an explicit enumeration — so the only way a
golden value changes is a change to the algorithms or the cost model
itself, which is exactly what the gate exists to catch.

The graphs are *dedicated* to the regression matrix (they are not the
benchmark suite): resizing the suite for a figure must not invalidate the
goldens.  One small graph per structural family the paper exercises —
power-law hubs, uniform random, grid, road chains, k-NN clusters, HCNS.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.analysis.experiments import ALGORITHMS
from repro.core.approximate import approximate_coreness
from repro.core.result import CorenessResult
from repro.generators import (
    erdos_renyi,
    grid_2d,
    hcns,
    knn_graph,
    power_law_with_hub,
    road_like,
)
from repro.graphs.csr import CSRGraph
from repro.runtime.cost_model import (
    CostModel,
    CostModelOverrides,
    DEFAULT_COST_MODEL,
)

Runner = Callable[[CSRGraph, CostModel], CorenessResult]

#: Approximation slack of the matrix's approximate-engine entries.
APPROX_EPS = 0.5


def _approx(graph: CSRGraph, model: CostModel) -> CorenessResult:
    return approximate_coreness(graph, eps=APPROX_EPS, model=model)


def _shard(graph: CSRGraph, model: CostModel) -> CorenessResult:
    # Late import: the shard package pulls in multiprocessing plumbing
    # that the matrix's other consumers never need.
    from repro.shard import shard_coreness

    return shard_coreness(graph, model)


#: Engines under regression: the Table 2 roster plus the approximate and
#: sharded engines.  The shard runner uses its default (real) worker
#: pool; its ledger is worker-count independent by construction, which
#: is exactly what pins its goldens.
ENGINES: dict[str, Runner] = dict(ALGORITHMS) | {
    "approx": _approx,
    "shard": _shard,
}

#: Pinned regression graphs — name -> seeded zero-argument builder.
GRAPH_BUILDERS: dict[str, Callable[[], CSRGraph]] = {
    "er-300": lambda: erdos_renyi(300, 6.0, seed=101),
    "hub-500": lambda: power_law_with_hub(
        500, 4, hub_count=2, hub_degree=120, seed=102
    ),
    "grid-24": lambda: grid_2d(24, 24),
    "road-600": lambda: road_like(600, seed=103),
    "knn-400": lambda: knn_graph(400, 4, dim=3, clusters=8, seed=104),
    "hcns-64": lambda: hcns(64),
    # Dense from round one (average degree 42): ``ours`` uses the HBS
    # throughout, resamples, moves vertices between intervals and splits
    # a range bucket, which none of the graphs above does together.
    "hub-700": lambda: power_law_with_hub(
        700, 20, hub_count=3, hub_degree=350, seed=106
    ),
}

#: Pinned cost-model variants.  ``default`` is the paper's model; the two
#: alternates stress the constants the analysis is most sensitive to.
COST_MODELS: dict[str, CostModel] = {
    "default": DEFAULT_COST_MODEL,
    "cheap-sync": CostModelOverrides().with_fields(
        omega=1_000.0, omega_time=50.0
    ),
    "hot-atomics": CostModelOverrides().with_fields(
        contended_atomic_op=500.0
    ),
}


@dataclass(frozen=True)
class RegressCase:
    """One pinned (engine, graph, cost model) combination."""

    engine: str
    graph: str
    model: str

    @property
    def case_id(self) -> str:
        return f"{self.engine}/{self.graph}/{self.model}"

    @property
    def entry_key(self) -> str:
        """Key inside the engine's golden file (graph and model only)."""
        return f"{self.graph}/{self.model}"


def _build_cases() -> tuple[RegressCase, ...]:
    cases = [
        RegressCase(engine, graph, "default")
        for engine in ENGINES
        for graph in GRAPH_BUILDERS
    ]
    # Alternate cost models: the flagship and one baseline on the two
    # graphs where scheduling overhead and contention dominate.
    for model in ("cheap-sync", "hot-atomics"):
        for engine in ("ours", "julienne"):
            for graph in ("grid-24", "hub-500"):
                cases.append(RegressCase(engine, graph, model))
    return tuple(cases)


#: The full pinned matrix.
CASES: tuple[RegressCase, ...] = _build_cases()


@lru_cache(maxsize=None)
def load_graph(name: str) -> CSRGraph:
    """Build (once per process) the pinned regression graph ``name``."""
    try:
        builder = GRAPH_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(GRAPH_BUILDERS))
        raise KeyError(f"unknown regression graph {name!r}; known: {known}")
    graph = builder()
    graph.name = name
    return graph


def coreness_fingerprint(coreness: np.ndarray) -> dict[str, object]:
    """Exact, compact fingerprint of a coreness array.

    The sha256 prefix pins the array bit-for-bit; kmax and the sum are
    redundant but make drift reports readable without the full array.
    """
    canonical = np.ascontiguousarray(coreness, dtype="<i8")
    return {
        "kmax": int(canonical.max()) if canonical.size else 0,
        "sum": int(canonical.sum()),
        "sha256": hashlib.sha256(canonical.tobytes()).hexdigest()[:16],
    }


def run_case(case: RegressCase) -> dict[str, object]:
    """Execute one matrix case and return its golden payload entry."""
    graph = load_graph(case.graph)
    model = COST_MODELS[case.model]
    result = ENGINES[case.engine](graph, model)
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "coreness": coreness_fingerprint(result.coreness),
        "metrics": result.metrics.to_stable_dict(model),
    }


def select_cases(pattern: str | None = None) -> list[RegressCase]:
    """Matrix cases whose id contains ``pattern`` (all when None)."""
    if not pattern:
        return list(CASES)
    return [case for case in CASES if pattern in case.case_id]


def run_matrix(
    pattern: str | None = None,
) -> dict[str, dict[str, dict[str, object]]]:
    """Run the (filtered) matrix, grouped ``engine -> entry_key -> payload``.

    Case order inside each engine follows the pinned enumeration, so the
    serialized goldens are line-stable across runs.
    """
    out: dict[str, dict[str, dict[str, object]]] = {}
    for case in select_cases(pattern):
        out.setdefault(case.engine, {})[case.entry_key] = run_case(case)
    return out
