"""Unified metrics: registry, exporters, dashboard, perf-trend gate.

``repro.obs`` is the numbers half of the observability layer (the span
tracer, :mod:`repro.trace`, is the timeline half): a deterministic
:class:`MetricsRegistry` of counters, gauges and fixed-boundary
histograms that guarded hooks across the stack feed —

* the simulated runtime (steps, work, rounds) and the batch-dynamic
  update engine (batches, repair rounds, risers/fallers);
* the serve writer loop (commit latency, batch sizes, queue wait,
  read-staleness histograms, one mark per committed epoch);
* kernel dispatch in :mod:`repro.perf` (mode resolutions, native
  fallbacks, ``.so`` build-cache hits);
* the caches (graph ``.npz``, bench cells, bench run records).

Attach a registry process-wide with :func:`observing`, or pass
``registry=`` to ``SimRuntime`` / ``framework.decompose`` /
``BatchDynamicKCore`` / ``CoreService``.  Metrics are strictly
observational — all regression goldens pass bit-exactly with a registry
attached and detached (lint rule R008 keeps it that way) — and
snapshots are byte-deterministic.  See docs/OBSERVABILITY.md and
``python -m repro.obs --help``.
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
    SIM,
    SIZE_BOUNDARIES,
    TIME_BOUNDARIES_NS,
    WALL,
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
    guarded hook) inside the block records into ``registry``; the
    previous default is restored on exit — the detach half of the
    attach/detach protocol.
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
    "OBS_SCHEMA_VERSION",
    "PERCENTILES",
    "SIM",
    "SIZE_BOUNDARIES",
    "TIME_BOUNDARIES_NS",
    "WALL",
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
