"""The benchmark graph suite — a scaled-down mirror of the paper's Table 2.

Each entry reproduces the *family* and the structural property that drives
the corresponding experiment, at a size a pure-Python simulated runtime can
sweep in minutes:

* social / web graphs  -> power-law hubs (contention; sampling's target),
* road / mesh / grid   -> long shallow peeling chains (VGC's target),
* k-NN graphs          -> uniform small coreness, very few subrounds,
* HCNS                 -> one vertex per coreness value (HBS's target),
* HPL                  -> Barabási–Albert, as in the paper.

Every entry comes in three sizes: ``tiny`` (hundreds of vertices; smoke
tests and the differential oracle), ``full`` (the default benchmark tier)
and ``large`` (roughly 10x full; the scaling tier the vectorized kernels
exist for).  A spec is a *recipe* — a generator name plus its keyword
parameters — rather than a closure, so the graph cache can derive a
content key from the recipe itself (see :func:`repro.graphs.io.graph_cache_key`).

Use :func:`load` to build (and memoize) a graph by name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

from repro.generators.grid import cube_3d, grid_2d
from repro.generators.highcore import hcns
from repro.generators.knn import knn_graph
from repro.generators.mesh import delaunay_mesh
from repro.generators.powerlaw import (
    barabasi_albert,
    power_law_with_hub,
    rmat,
)
from repro.generators.road import road_like
from repro.graphs.csr import CSRGraph

#: Suite tiers, smallest first.
SIZES: tuple[str, ...] = ("tiny", "full", "large")

#: Generator registry: the names usable in a :class:`GraphSpec` recipe.
GENERATORS: dict[str, Callable[..., CSRGraph]] = {
    "barabasi_albert": barabasi_albert,
    "rmat": rmat,
    "power_law_with_hub": power_law_with_hub,
    "road_like": road_like,
    "knn_graph": knn_graph,
    "delaunay_mesh": delaunay_mesh,
    "grid_2d": grid_2d,
    "cube_3d": cube_3d,
    "hcns": hcns,
}

#: A recipe: generator name + keyword parameters (the cache-key content).
Recipe = tuple[str, Mapping[str, object]]


@dataclass(frozen=True)
class GraphSpec:
    """One suite entry.

    Attributes:
        name: Suite name (paper acronym with an ``-S`` scaled suffix).
        family: Table 2 family ("social", "web", "road", "knn", "other").
        paper_name: The dataset this entry scales down.
        dense: The paper's dense/sparse classification of the family.
        recipes: Size tier -> ``(generator, params)`` recipe.
    """

    name: str
    family: str
    paper_name: str
    dense: bool
    recipes: Mapping[str, Recipe] = field(default_factory=dict)

    def recipe(self, size: str) -> Recipe:
        """The ``(generator, params)`` recipe for a size tier."""
        if size not in SIZES:
            raise ValueError(
                f"unknown suite size {size!r}; known: {', '.join(SIZES)}"
            )
        return self.recipes[size]

    def cache_key(self, size: str) -> str:
        """Content key of this entry at a tier (recipe hash, seeds included)."""
        from repro.graphs.io import graph_cache_key

        generator, params = self.recipe(size)
        return graph_cache_key(generator, params)

    def build_size(self, size: str) -> CSRGraph:
        """Build the graph at a tier (no caching; see :func:`load`)."""
        generator, params = self.recipe(size)
        graph = GENERATORS[generator](**params)
        graph.name = self.name
        return graph

    def build(self) -> CSRGraph:
        """Build the default (full) tier."""
        return self.build_size("full")

    def build_tiny(self) -> CSRGraph:
        """Build the tiny tier (smoke tests, differential oracle)."""
        return self.build_size("tiny")

    def build_large(self) -> CSRGraph:
        """Build the large tier (~10x full; the scaling benchmarks)."""
        return self.build_size("large")


def _spec(
    name: str,
    family: str,
    paper_name: str,
    dense: bool,
    generator: str,
    tiny: dict,
    full: dict,
    large: dict,
) -> GraphSpec:
    return GraphSpec(
        name, family, paper_name, dense,
        {"tiny": (generator, tiny), "full": (generator, full),
         "large": (generator, large)},
    )


SUITE: dict[str, GraphSpec] = {
    spec.name: spec
    for spec in [
        # ----- social networks (dense, power-law) ---------------------
        _spec("LJ-S", "social", "soc-LiveJournal1", True, "barabasi_albert",
              dict(n=400, attach=6, seed=11, attach_min=2),
              dict(n=8_000, attach=12, seed=11, attach_min=2),
              dict(n=100_000, attach=12, seed=11, attach_min=2)),
        _spec("OK-S", "social", "com-orkut", True, "barabasi_albert",
              dict(n=300, attach=10, seed=12, attach_min=4),
              dict(n=6_000, attach=20, seed=12, attach_min=4),
              dict(n=60_000, attach=20, seed=12, attach_min=4)),
        _spec("WB-S", "social", "soc-sinaweibo", True, "rmat",
              dict(scale=8, edge_factor=8, seed=13),
              dict(scale=13, edge_factor=8, seed=13),
              dict(scale=16, edge_factor=8, seed=13)),
        _spec("TW-S", "social", "Twitter", True, "power_law_with_hub",
              dict(n=600, attach=4, hub_count=2, hub_degree=150, seed=14),
              dict(n=12_000, attach=6, hub_count=6, hub_degree=3_000,
                   seed=14),
              dict(n=120_000, attach=6, hub_count=6, hub_degree=30_000,
                   seed=14)),
        _spec("FS-S", "social", "Friendster", True, "barabasi_albert",
              dict(n=500, attach=8, seed=15, attach_min=3),
              dict(n=16_000, attach=16, seed=15, attach_min=3),
              dict(n=120_000, attach=16, seed=15, attach_min=3)),
        # ----- web graphs (dense, very skewed) ------------------------
        _spec("EH-S", "web", "eu-host", True, "rmat",
              dict(scale=8, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=21),
              dict(scale=14, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=21),
              dict(scale=17, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=21)),
        _spec("SD-S", "web", "sd-arc", True, "rmat",
              dict(scale=8, edge_factor=32, a=0.65, b=0.16, c=0.16,
                   seed=22),
              dict(scale=14, edge_factor=32, a=0.65, b=0.16, c=0.16,
                   seed=22),
              dict(scale=17, edge_factor=32, a=0.65, b=0.16, c=0.16,
                   seed=22)),
        _spec("CW-S", "web", "ClueWeb", True, "rmat",
              dict(scale=9, edge_factor=24, a=0.66, b=0.16, c=0.16,
                   seed=23),
              dict(scale=15, edge_factor=24, a=0.66, b=0.16, c=0.16,
                   seed=23),
              dict(scale=18, edge_factor=24, a=0.66, b=0.16, c=0.16,
                   seed=23)),
        _spec("HL14-S", "web", "Hyperlink14", True, "rmat",
              dict(scale=9, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=24),
              dict(scale=15, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=24),
              dict(scale=18, edge_factor=16, a=0.65, b=0.16, c=0.16,
                   seed=24)),
        _spec("HL12-S", "web", "Hyperlink12", True, "rmat",
              dict(scale=9, edge_factor=20, a=0.65, b=0.16, c=0.16,
                   seed=25),
              dict(scale=15, edge_factor=20, a=0.65, b=0.16, c=0.16,
                   seed=25),
              dict(scale=18, edge_factor=20, a=0.65, b=0.16, c=0.16,
                   seed=25)),
        # ----- road networks (sparse) ---------------------------------
        _spec("AF-S", "road", "OSM Africa", False, "road_like",
              dict(n=700, seed=31),
              dict(n=20_000, seed=31),
              dict(n=200_000, seed=31)),
        _spec("NA-S", "road", "OSM North America", False, "road_like",
              dict(n=900, seed=32),
              dict(n=30_000, seed=32),
              dict(n=300_000, seed=32)),
        _spec("AS-S", "road", "OSM Asia", False, "road_like",
              dict(n=1_000, seed=33),
              dict(n=34_000, seed=33),
              dict(n=340_000, seed=33)),
        _spec("EU-S", "road", "OSM Europe", False, "road_like",
              dict(n=1_200, seed=34),
              dict(n=40_000, seed=34),
              dict(n=400_000, seed=34)),
        # ----- k-NN graphs (sparse) -----------------------------------
        _spec("CH5-S", "knn", "Chem, k=5", False, "knn_graph",
              dict(n=400, k=5, dim=16, clusters=6, seed=41),
              dict(n=8_000, k=5, dim=16, clusters=12, seed=41),
              dict(n=80_000, k=5, dim=16, clusters=12, seed=41)),
        _spec("GL2-S", "knn", "GeoLife, k=2", False, "knn_graph",
              dict(n=500, k=2, dim=3, clusters=8, seed=42),
              dict(n=12_000, k=2, dim=3, clusters=16, seed=42),
              dict(n=120_000, k=2, dim=3, clusters=16, seed=42)),
        _spec("GL5-S", "knn", "GeoLife, k=5", False, "knn_graph",
              dict(n=500, k=5, dim=3, clusters=8, seed=42),
              dict(n=12_000, k=5, dim=3, clusters=16, seed=42),
              dict(n=120_000, k=5, dim=3, clusters=16, seed=42)),
        _spec("GL10-S", "knn", "GeoLife, k=10", False, "knn_graph",
              dict(n=500, k=10, dim=3, clusters=8, seed=42),
              dict(n=12_000, k=10, dim=3, clusters=16, seed=42),
              dict(n=120_000, k=10, dim=3, clusters=16, seed=42)),
        _spec("COS5-S", "knn", "Cosmo50, k=5", False, "knn_graph",
              dict(n=700, k=5, dim=3, clusters=10, seed=43),
              dict(n=20_000, k=5, dim=3, clusters=24, seed=43),
              dict(n=200_000, k=5, dim=3, clusters=24, seed=43)),
        # ----- other graphs --------------------------------------------
        _spec("TRCE-S", "other", "Huge traces", False, "delaunay_mesh",
              dict(n=600, seed=51),
              dict(n=16_000, seed=51),
              dict(n=160_000, seed=51)),
        _spec("BBL-S", "other", "Huge bubbles", False, "delaunay_mesh",
              dict(n=700, seed=52),
              dict(n=20_000, seed=52),
              dict(n=200_000, seed=52)),
        _spec("GRID", "other", "Synthetic grid", False, "grid_2d",
              dict(rows=36, cols=36),
              dict(rows=280, cols=280),
              dict(rows=880, cols=880)),
        _spec("CUBE", "other", "Synthetic cube", False, "cube_3d",
              dict(nx=10, ny=10, nz=10),
              dict(nx=24, ny=24, nz=24),
              dict(nx=52, ny=52, nz=52)),
        # HCNS's edge count grows as kmax^2, so the large tier scales the
        # coreness range by 2x (~4x edges), not 10x.
        _spec("HCNS", "other", "High-coreness synthetic", True, "hcns",
              dict(kmax=96),
              dict(kmax=1024),
              dict(kmax=2048)),
        # The wide-chain variant: every coreness level gets `width`
        # witnesses, so the chain carries most of the edge mass while the
        # peel schedule still walks all kmax levels.  The second flagship
        # of the shard bench tier (few H-index rounds, heavy per-round
        # kernels, long sequential peel).
        _spec("HCNSW", "other", "High-coreness synthetic, wide chain",
              True, "hcns",
              dict(kmax=64, width=3),
              dict(kmax=384, width=3),
              dict(kmax=1024, width=3)),
        # BA's max degree shrinks with n; graft scale-appropriate hubs so
        # the scaled graph keeps the huge-hub property that drives the
        # paper's sampling experiments on HPL.
        _spec("HPL", "other", "Power-law (Barabási–Albert)", True,
              "power_law_with_hub",
              dict(n=800, attach=6, hub_count=2, hub_degree=200, seed=55),
              dict(n=16_000, attach=12, hub_count=4, hub_degree=4_000,
                   seed=55),
              dict(n=160_000, attach=12, hub_count=4, hub_degree=40_000,
                   seed=55)),
    ]
}

#: The 14 representative graphs of the paper's Fig. 2.
REPRESENTATIVE: tuple[str, ...] = (
    "LJ-S", "OK-S", "TW-S", "EH-S", "SD-S", "AF-S", "EU-S",
    "CH5-S", "GL5-S", "COS5-S", "TRCE-S", "GRID", "HCNS", "HPL",
)

#: Graphs that contain vertices large enough to trigger sampling
#: (the paper's eight: TW, EH, SD, CW, HL14, HL12, HPL, HCNS).
SAMPLING_TRIGGER: tuple[str, ...] = (
    "TW-S", "EH-S", "SD-S", "CW-S", "HL14-S", "HL12-S", "HPL", "HCNS",
)

#: A tiny sub-suite for smoke tests and examples.
SMALL: tuple[str, ...] = ("LJ-S", "AF-S", "GL5-S", "GRID", "HCNS")


def tiny_mode() -> bool:
    """Whether ``REPRO_SUITE_TINY`` requests the tiny suite renditions."""
    return os.environ.get("REPRO_SUITE_TINY", "") not in ("", "0")


def load(
    name: str, tiny: bool | None = None, size: str | None = None
) -> CSRGraph:
    """Build (once per process) and return the suite graph ``name``.

    ``size`` selects the tier explicitly ("tiny" / "full" / "large");
    ``tiny=True`` is shorthand for ``size="tiny"`` (smoke tests, the
    differential oracle); the default follows the ``REPRO_SUITE_TINY``
    environment variable.  Tiers are cached independently, so enabling
    tiny mode mid-process never poisons the full-size cache.

    Set the ``REPRO_GRAPH_CACHE`` environment variable to a directory to
    additionally persist built graphs as uncompressed ``.npz`` across
    processes — repeated benchmark invocations then skip the generators
    entirely and memory-map the cached arrays.  Entries are keyed by the
    *recipe content* (generator, parameters, seeds), so editing a suite
    entry can never reuse a stale file.
    """
    if size is None:
        in_tiny = tiny_mode() if tiny is None else bool(tiny)
        size = "tiny" if in_tiny else "full"
    elif tiny is not None:
        raise ValueError("pass either tiny= or size=, not both")
    elif size not in SIZES:
        raise ValueError(
            f"unknown suite size {size!r}; known: {', '.join(SIZES)}"
        )
    return _load(name, size)


def _load_impl(name: str, size: str) -> CSRGraph:
    try:
        spec = SUITE[name]
    except KeyError:
        known = ", ".join(sorted(SUITE))
        raise KeyError(f"unknown suite graph {name!r}; known: {known}")
    cache_dir = os.environ.get("REPRO_GRAPH_CACHE")
    if cache_dir:
        from repro.graphs.io import (
            cached_graph_path,
            load_cached_graph,
            store_cached_graph,
        )
        from repro.obs.registry import HOST, active_registry

        registry = active_registry()
        path = cached_graph_path(
            cache_dir, name, size, spec.cache_key(size)
        )
        graph = load_cached_graph(path)
        if graph is not None:
            if registry is not None:
                registry.inc("cache.graph_npz.hit", family=HOST)
            graph.name = name
            return graph
        if registry is not None:
            registry.inc("cache.graph_npz.miss", family=HOST)
        graph = spec.build_size(size)
        store_cached_graph(graph, path)
        return graph
    return spec.build_size(size)


_load = lru_cache(maxsize=None)(_load_impl)
#: Existing callers clear the process cache through ``load``.
load.cache_clear = _load.cache_clear  # type: ignore[attr-defined]


def names(
    family: str | None = None, dense: bool | None = None
) -> list[str]:
    """Suite names filtered by family and/or density class."""
    out = []
    for spec in SUITE.values():
        if family is not None and spec.family != family:
            continue
        if dense is not None and spec.dense != dense:
            continue
        out.append(spec.name)
    return out
