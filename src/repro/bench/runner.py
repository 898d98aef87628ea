"""The benchmark matrix runner: pool fan-out, disk cache, wall report.

A *cell* is one ``(engine, graph)`` pair at one suite size tier (tiny /
full / large) under one kernel mode.  :func:`execute` resolves every
cell against the disk cache, fans the misses over a
``ProcessPoolExecutor``, and returns a report with one entry per cell:
the simulated payload (regression ``run_case`` shape) plus the host
wall-clock and peak-RSS cost and the cache disposition.

The cache key deliberately includes the kernel mode even though all
kernel implementations produce bit-identical payloads (the regression
gate enforces that): the *wall* numbers attached to a cell are only
meaningful for the mode that produced them.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.bench.cache import DiskCache, cache_key
from repro.bench.wallclock import measure
from repro.generators import suite
from repro.obs import MetricsRegistry, observing
from repro.obs.registry import FAMILIES, HOST, active_registry
from repro.perf import REFERENCE, kernel_mode, kernel_modes, kernels_env
from repro.regress.matrix import ENGINES, coreness_fingerprint
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.runtime.metrics import METRICS_SCHEMA_VERSION
from repro.trace import Tracer, write_trace

#: Schema of the BENCH_wallclock.json report.
#: v2: cells carry ``size`` (was ``tiny``); the summary separates
#: measured from cached wall time and aggregates engines over all cells.
#: v3: ``kernel_comparison`` covers every kernelized engine — a
#: ``per_engine`` map of cold A/B/C results — instead of 'ours' alone.
#: v4: the summary gains a ``caches`` section (per-cache hit/miss
#: counters sourced from the metrics registry, workers included), so
#: ``--assert-all-hits`` failures can name the cache that missed.
BENCH_SCHEMA_VERSION = 4

#: Engines with mode-switchable kernels, A/B'd by ``--compare-kernels``.
KERNELIZED_ENGINES = ("ours", "pkc", "park", "julienne")


@dataclass(frozen=True)
class BenchCell:
    """One benchmark matrix cell."""

    engine: str
    graph: str
    size: str = "full"
    kernels: str = field(default_factory=kernel_mode)

    def key_fields(self) -> dict[str, object]:
        """Every input that determines this cell's payload and timing."""
        return {
            "kind": "bench_cell",
            "engine": self.engine,
            "graph": self.graph,
            "size": self.size,
            "kernels": self.kernels,
            "model": DEFAULT_COST_MODEL.signature(),
            "metrics_schema": METRICS_SCHEMA_VERSION,
        }

    def key(self) -> str:
        return cache_key(self.key_fields())

    @property
    def label(self) -> str:
        return f"{self.engine}/{self.graph}/{self.size}/{self.kernels}"


def default_matrix(
    engines: list[str] | None = None,
    graphs: list[str] | None = None,
    size: str = "full",
    kernels: str | None = None,
) -> list[BenchCell]:
    """The benchmark matrix: every engine on every suite graph."""
    engines = list(engines) if engines else list(ENGINES)
    graphs = list(graphs) if graphs else list(suite.SUITE)
    for engine in engines:
        if engine not in ENGINES:
            known = ", ".join(ENGINES)
            raise KeyError(f"unknown engine {engine!r}; known: {known}")
    for graph in graphs:
        if graph not in suite.SUITE:
            known = ", ".join(suite.SUITE)
            raise KeyError(f"unknown suite graph {graph!r}; known: {known}")
    if size not in suite.SIZES:
        known = ", ".join(suite.SIZES)
        raise ValueError(f"unknown suite size {size!r}; known: {known}")
    if kernels is None:
        kernels = kernel_mode()
    return [
        BenchCell(engine, graph, size=size, kernels=kernels)
        for engine in engines
        for graph in graphs
    ]


def trace_path(cell: BenchCell, trace_dir: str) -> str:
    """Where :func:`run_cell` writes ``cell``'s Perfetto trace."""
    return os.path.join(
        trace_dir, cell.label.replace("/", "-") + ".trace.json"
    )


def run_cell(
    cell: BenchCell, trace_dir: str | None = None
) -> dict[str, object]:
    """Execute one cell in this process and return its payload.

    The payload mirrors the regression gate's ``run_case`` entries
    (graph size, coreness fingerprint, stable metrics dict) plus the
    wall-clock sample of the decomposition itself (graph construction
    is deliberately outside the timed region).

    With ``trace_dir``, the measured region runs under a registry with
    a :class:`repro.trace.Tracer` facet and the Perfetto JSON is written
    to :func:`trace_path`; the registry's counters are then folded into
    the enclosing active registry, if any.  Tracing is observational, so
    the payload — and hence the cache entry — is bit-identical either
    way; the trace file itself stays outside the cache.
    """
    with kernels_env(cell.kernels):
        graph = suite.load(cell.graph, size=cell.size)
        if trace_dir is None:
            with measure() as wall:
                result = ENGINES[cell.engine](graph, DEFAULT_COST_MODEL)
        else:
            outer_registry = active_registry()
            registry = MetricsRegistry(cell.label, tracer=Tracer())
            with observing(registry):
                with measure() as wall:
                    result = ENGINES[cell.engine](graph, DEFAULT_COST_MODEL)
            registry.host_span(
                cell.label, wall.wall_s, max_rss_kb=wall.max_rss_kb
            )
            os.makedirs(trace_dir, exist_ok=True)
            write_trace(registry, trace_path(cell, trace_dir))
            if outer_registry is not None:
                _fold(outer_registry, _counts(registry))
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "coreness": coreness_fingerprint(result.coreness),
        "metrics": result.metrics.to_stable_dict(DEFAULT_COST_MODEL),
        "wall": wall.to_dict(),
    }


def _counts(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Every counter of ``registry``, by family (what :func:`_fold` takes)."""
    return {
        family: registry.counter_values(family=family) for family in FAMILIES
    }


def _fold(
    registry: MetricsRegistry, counts: dict[str, dict[str, float]]
) -> None:
    """Add :func:`_counts`' counters into ``registry``, family by family."""
    for family, values in counts.items():
        registry.merge_counts(values, family)


def _run_cell_with_obs(
    cell: BenchCell, trace_dir: str | None = None
) -> tuple[dict[str, object], dict[str, dict[str, float]]]:
    """Run one cell under a fresh registry; return (payload, counters).

    Pool workers are separate processes, so each runs its cell under a
    private :class:`repro.obs.MetricsRegistry` and ships its counters of
    both families back with the payload; the parent folds them into its
    own registry (:meth:`~repro.obs.MetricsRegistry.merge_counts`).
    The payload itself never embeds counters, so cache entries stay
    bit-identical with and without observation.
    """
    with observing(MetricsRegistry("bench-worker")) as registry:
        payload = run_cell(cell, trace_dir)
        return payload, _counts(registry)


#: Host counters of the suite's on-disk graph cache.
_GRAPH_CACHE_COUNTERS = "cache.graph_npz."


def cache_summary(registry: MetricsRegistry) -> dict[str, dict[str, int]]:
    """Per-cache event totals from the ``host`` ``cache.*`` counters.

    Shape: ``{"bench_cell": {"hit": 3, "miss": 1}, "graph_npz": ...}``
    — the ``summary.caches`` section of the bench report (schema v4).
    """
    caches: dict[str, dict[str, int]] = {}
    for name, value in registry.counter_values("cache.", HOST).items():
        _, cache_name, event = name.split(".", 2)
        caches.setdefault(cache_name, {})[event] = int(value)
    return caches


def execute(
    cells: list[BenchCell],
    jobs: int | None = None,
    cache: DiskCache | None = None,
    refresh: bool = False,
    trace_dir: str | None = None,
    progress: bool = False,
) -> dict[str, object]:
    """Resolve every cell (cache or fresh run) and build the report.

    Cache misses run in a process pool of ``jobs`` workers (``None`` or
    ``<= 1`` runs them inline).  Fresh payloads are written back to the
    cache, so an immediately repeated invocation is 100% hits.

    ``trace_dir`` traces every cell's measured region (see
    :func:`run_cell`); traces only come from fresh runs, so it implies
    ``refresh``.  ``progress`` prints one line per cell to stderr as it
    resolves, in completion order.
    """
    cache = cache if cache is not None else DiskCache()
    if trace_dir is not None:
        refresh = True
    registry = active_registry()
    if registry is None:
        registry = MetricsRegistry("bench")
    done = 0

    def note(cell: BenchCell, disposition: str, wall_s: float) -> None:
        nonlocal done
        done += 1
        if progress:
            line = f"bench: [{done}/{len(cells)}] {cell.label} {disposition}"
            if disposition == "ran":
                line += f" {wall_s:.2f}s"
            print(line, file=sys.stderr, flush=True)

    resolved: dict[BenchCell, tuple[str, dict[str, object]]] = {}
    pending: list[BenchCell] = []
    for cell in cells:
        payload = None if refresh else cache.get(cell.key())
        if payload is not None:
            if registry is not None:
                registry.inc("cache.bench_cell.hit", family=HOST)
            resolved[cell] = ("hit", payload)
            note(cell, "cached", 0.0)
        else:
            if registry is not None:
                registry.inc("cache.bench_cell.miss", family=HOST)
            pending.append(cell)

    def finish(
        cell: BenchCell,
        payload: dict[str, object],
        counters: dict[str, dict[str, float]],
    ) -> None:
        cache.put(cell.key(), payload)
        resolved[cell] = ("miss", payload)
        if registry is not None:
            # The graphs were resolved here; whatever a worker's own
            # loads counted depends on the pool, not on the cells.
            host = counters.get(HOST, {})
            counters[HOST] = {
                name: value
                for name, value in host.items()
                if not name.startswith(_GRAPH_CACHE_COUNTERS)
            }
            _fold(registry, counters)
        note(cell, "ran", float(payload["wall"]["wall_s"]))

    if pending:
        # Resolve each distinct graph once, in this process, before any
        # cell runs: the graph cache's hit/miss counts then follow the
        # cells, whatever the pool size or its start method (a forked
        # worker inherits the loaded graphs).
        with observing(registry):
            for graph, size in dict.fromkeys(
                (cell.graph, cell.size) for cell in pending
            ):
                suite.load(graph, size=size)
        if jobs is not None and jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_run_cell_with_obs, cell, trace_dir): cell
                    for cell in pending
                }
                for future in as_completed(futures):
                    finish(futures[future], *future.result())
        else:
            for cell in pending:
                finish(cell, *_run_cell_with_obs(cell, trace_dir))

    report_cells = []
    measured_wall = 0.0
    cached_wall = 0.0
    by_engine: dict[str, float] = {}
    hits = 0
    for cell in cells:
        disposition, payload = resolved[cell]
        wall = payload.get("wall", {})
        wall_s = float(wall.get("wall_s", 0.0))
        # Every cell carries the wall-clock of the run that produced its
        # payload, whether that run happened now or in a previous
        # invocation — the per-engine totals aggregate all of them, and
        # measured/cached record how the total splits.  (An all-hits
        # warm run therefore still reports full per-engine timings.)
        by_engine[cell.engine] = by_engine.get(cell.engine, 0.0) + wall_s
        if disposition == "miss":
            measured_wall += wall_s
        else:
            hits += 1
            cached_wall += wall_s
        record = {
            "engine": cell.engine,
            "graph": cell.graph,
            "size": cell.size,
            "kernels": cell.kernels,
            "cache": disposition,
            "key": cell.key(),
            "wall_s": wall_s,
            "max_rss_kb": int(wall.get("max_rss_kb", 0)),
            "n": payload["graph"]["n"],
            "m": payload["graph"]["m"],
            "coreness_sha256": payload["coreness"]["sha256"],
        }
        if trace_dir is not None:
            record["trace"] = trace_path(cell, trace_dir)
        report_cells.append(record)

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "metrics_schema_version": METRICS_SCHEMA_VERSION,
        "model_signature": DEFAULT_COST_MODEL.signature(),
        "cells": report_cells,
        "summary": {
            "cells": len(cells),
            "hits": hits,
            "misses": len(cells) - hits,
            "measured_wall_s": round(measured_wall, 6),
            "cached_wall_s": round(cached_wall, 6),
            "total_wall_s": round(measured_wall + cached_wall, 6),
            "by_engine_wall_s": {
                engine: round(total, 6)
                for engine, total in sorted(by_engine.items())
            },
            "caches": cache_summary(registry),
        },
    }


def compare_kernels(
    graphs: list[str] | None = None,
    size: str = "full",
    engine: str = "ours",
    modes: tuple[str, ...] | None = None,
) -> dict[str, object]:
    """Cold A/B of the kernel modes on one engine over the suite.

    Runs every graph under each mode (the reference loop and — when a
    compiler is present — the native kernel), all uncached, and reports
    the aggregate wall-clock speedup of the fastest mode over the
    reference — the evidence figure behind the perf layer.
    """
    graphs = list(graphs) if graphs else list(suite.SUITE)
    if modes is None:
        modes = tuple(kernel_modes())
    totals: dict[str, float] = {}
    per_graph: dict[str, dict[str, float]] = {name: {} for name in graphs}
    for mode in modes:
        total = 0.0
        for name in graphs:
            payload = run_cell(
                BenchCell(engine, name, size=size, kernels=mode)
            )
            wall_s = float(payload["wall"]["wall_s"])
            per_graph[name][mode] = round(wall_s, 6)
            total += wall_s
        totals[mode] = round(total, 6)
    fastest = min(
        (mode for mode in modes if mode != REFERENCE),
        key=lambda mode: totals[mode],
        default=REFERENCE,
    )
    speedup = (
        totals[REFERENCE] / totals[fastest]
        if totals.get(fastest, 0.0) > 0
        else float("inf")
    )
    return {
        "engine": engine,
        "size": size,
        "graphs": per_graph,
        "wall_s": totals,
        "fastest": fastest,
        "speedup": round(speedup, 3),
    }


def compare_kernels_all(
    graphs: list[str] | None = None,
    size: str = "full",
    engines: tuple[str, ...] = KERNELIZED_ENGINES,
    modes: tuple[str, ...] | None = None,
) -> dict[str, object]:
    """Cold kernel A/B for every kernelized engine (schema v3 shape).

    One :func:`compare_kernels` sweep per engine; the report keys the
    results by engine so the regenerated wallclock evidence records how
    much each baseline gains from its flat kernels, not just ours.
    """
    per_engine = {
        engine: compare_kernels(
            graphs=graphs, size=size, engine=engine, modes=modes
        )
        for engine in engines
    }
    return {
        "size": size,
        "per_engine": per_engine,
    }
