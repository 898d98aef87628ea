"""The one observer: registry, exporters, dashboard, perf-trend gate.

``repro.obs`` holds the single way to look inside a run: a
deterministic :class:`MetricsRegistry` of counters, gauges and
fixed-boundary histograms that guarded hooks across the stack feed —

* the simulated runtime (steps, work, rounds) and the batch-dynamic
  update engine (batches, repair rounds, per-phase risers/fallers);
* the serve writer loop (commit latency, batch sizes, queue wait,
  read-staleness histograms, one mark per committed epoch);
* kernel dispatch in :mod:`repro.perf` (mode resolutions, native
  fallbacks, ``.so`` build-cache hits) and the caches (graph ``.npz``,
  bench cells, bench run records), both in the ``host`` family.

Given a :class:`repro.trace.Tracer` facet
(``MetricsRegistry(label, tracer=Tracer(threads))``) the same hooks also
record the simulated timeline that :mod:`repro.trace` exports.

Attach a registry process-wide with :func:`observing`, or pass
``registry=`` to ``SimRuntime`` / ``framework.decompose`` /
``ParallelKCore.decompose`` / ``BatchDynamicKCore`` / ``CoreService``.
Observation is strictly side-effect-free — all regression goldens pass
bit-exactly with a registry attached and detached, traced or not (lint
rule R006 keeps it that way) — and snapshots, which carry only the
``sim`` family, are byte-deterministic.
See docs/OBSERVABILITY.md and ``python -m repro.obs --help``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.dashboard import render_dashboard, render_epoch_table
from repro.obs.export_json import render_json, write_snapshot
from repro.obs.export_prometheus import render_prometheus, write_prometheus
from repro.obs.registry import (
    FAMILIES,
    OBS_SCHEMA_VERSION,
    PERCENTILES,
    HOST,
    SIM,
    SIZE_BOUNDARIES,
    TIME_BOUNDARIES_NS,
    WALL_BOUNDARIES_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    percentile_summary,
    set_active_registry,
)
from repro.obs.trend import (
    DEFAULT_MAX_REGRESS,
    DEFAULT_MIN_WALL,
    TrendError,
    diff_reports,
    render_trend,
    trend_gate,
)


@contextmanager
def observing(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process-wide default for a block.

    Every :class:`~repro.runtime.simulator.SimRuntime` (and every
    guarded hook) inside the block records into ``registry`` — the way
    to observe engines whose entry points build their own runtimes (the
    baselines, BZ).  The previous default is restored on exit: the
    detach half of the attach/detach protocol.
    """
    previous = set_active_registry(registry)
    try:
        yield registry
    finally:
        set_active_registry(previous)


__all__ = [
    "DEFAULT_MAX_REGRESS",
    "DEFAULT_MIN_WALL",
    "FAMILIES",
    "HOST",
    "OBS_SCHEMA_VERSION",
    "PERCENTILES",
    "SIM",
    "SIZE_BOUNDARIES",
    "TIME_BOUNDARIES_NS",
    "WALL_BOUNDARIES_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TrendError",
    "active_registry",
    "diff_reports",
    "observing",
    "percentile_summary",
    "render_dashboard",
    "render_epoch_table",
    "render_json",
    "render_prometheus",
    "render_trend",
    "set_active_registry",
    "trend_gate",
    "write_prometheus",
    "write_snapshot",
]
