"""Benchmark inputs: seeded suite graphs in the benchmark's own cache.

Every graph is an entry of :data:`repro.generators.suite.SUITE`: the
large tier for the engines, the full tier for the service.  The
benchmark seed shifts the generator seed of the suite's seeded entries
that the workloads use (TW-S, CW-S, EU-S and AS-S); HCNS, GRID and LJ-S
are fixed.  Seed 0 reproduces the suite's own graphs.

Graphs are stored as uncompressed ``.npz`` files keyed by recipe
(:func:`repro.graphs.io.graph_cache_key`) and memory-mapped on load, so
a timed run never pays for generation.  :func:`prepare` fills the cache;
:func:`load` refuses to generate.
"""

from __future__ import annotations

import os

from repro.generators import suite
from repro.graphs.csr import CSRGraph
from repro.graphs.io import (
    cached_graph_path,
    graph_cache_key,
    load_cached_graph,
    store_cached_graph,
)

#: Suite entries whose generator seed follows the benchmark seed.
SEEDED = ("TW-S", "CW-S", "EU-S", "AS-S")

#: Graphs every engine decomposes, as ``(suite name, size tier)``.
GRAPHS: dict[str, tuple[tuple[str, str], ...]] = {
    "dense": (("HCNS", "large"), ("TW-S", "large"), ("CW-S", "large")),
    "sparse": (("GRID", "large"), ("EU-S", "large"), ("AS-S", "large")),
}

#: The graph behind the workload's :class:`repro.serve.CoreService`.
SERVE_GRAPH: dict[str, tuple[str, str]] = {
    "dense": ("LJ-S", "full"),
    "sparse": ("EU-S", "full"),
}

#: Seed-independent small graphs the set-up warm-up runs the engines on.
WARMUP_GRAPHS: dict[str, tuple[tuple[str, str], ...]] = {
    "dense": (("HCNS", "tiny"), ("TW-S", "tiny"), ("CW-S", "tiny")),
    "sparse": (("GRID", "tiny"), ("EU-S", "tiny"), ("AS-S", "tiny")),
}


def entries(workload: str) -> tuple[tuple[str, str], ...]:
    """Every graph a run of ``workload`` loads."""
    return (
        GRAPHS[workload] + (SERVE_GRAPH[workload],) + WARMUP_GRAPHS[workload]
    )


def recipe(name: str, size: str, seed: int) -> tuple[str, dict]:
    """The ``(generator, params)`` recipe of a suite graph at ``seed``."""
    generator, params = suite.SUITE[name].recipe(size)
    params = dict(params)
    if name in SEEDED and size != "tiny":
        params["seed"] = int(params["seed"]) + seed
    return generator, params


def cache_path(cache_dir: str, name: str, size: str, seed: int) -> str:
    """Where the cache keeps ``name`` at ``size`` for ``seed``."""
    generator, params = recipe(name, size, seed)
    return cached_graph_path(
        cache_dir, name, size, graph_cache_key(generator, params)
    )


def needed(workload: str, seed: int, cache_dir: str) -> list[str]:
    """Cache files a run of ``workload`` at ``seed`` loads."""
    return [cache_path(cache_dir, n, s, seed) for n, s in entries(workload)]


def load(cache_dir: str, name: str, size: str, seed: int) -> CSRGraph:
    """Memory-map a cached graph; a missing entry is an error."""
    path = cache_path(cache_dir, name, size, seed)
    graph = load_cached_graph(path)
    if graph is None:
        raise FileNotFoundError(f"graph cache entry missing: {path}")
    graph.name = name
    return graph


def prepare(cache_dir: str, workload: str, seed: int) -> None:
    """Fill the cache for ``workload`` at ``seed``; drop other seeds.

    Files no workload needs at ``seed`` are deleted, so the cache holds
    one seed's graphs (about 200 MB) however many seeds are run.
    """
    keep = set()
    for name in GRAPHS:
        keep.update(os.path.abspath(p) for p in needed(name, seed, cache_dir))
    os.makedirs(cache_dir, exist_ok=True)
    for entry in sorted(os.listdir(cache_dir)):
        path = os.path.abspath(os.path.join(cache_dir, entry))
        if os.path.isfile(path) and path not in keep:
            os.unlink(path)
    for name, size in entries(workload):
        path = cache_path(cache_dir, name, size, seed)
        if load_cached_graph(path) is None:
            generator, params = recipe(name, size, seed)
            store_cached_graph(suite.GENERATORS[generator](**params), path)
