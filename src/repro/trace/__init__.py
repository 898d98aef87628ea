"""Structured span tracing on the simulated clock.

The timeline facet of the one observer: give a
:class:`~repro.obs.MetricsRegistry` a :class:`Tracer`
(``MetricsRegistry(label, tracer=Tracer(threads))``), attach the
registry to an execution (``registry=`` kwarg on
:func:`repro.core.framework.decompose` / ``ParallelKCore.decompose``, or
process-wide via :func:`repro.obs.observing`) and export the resulting
timeline as

* Chrome/Perfetto trace-event JSON (:func:`write_trace`,
  loadable in https://ui.perfetto.dev),
* a plain-text per-round timeline (:func:`render_text`),
* a collapsed-stack flamegraph of tag costs (:func:`render_flamegraph`).

Every exporter takes the registry.  Tracing is zero-cost and absent by
default, strictly observational (the regression goldens pass
bit-exactly with tracing on and off), and deterministic — lint rule
R006 keeps it that way.  See docs/OBSERVABILITY.md and
``python -m repro.trace --help``.
"""

from __future__ import annotations

from repro.trace.export_flame import collapsed_stacks, render_flamegraph
from repro.trace.export_perfetto import (
    render_perfetto,
    to_perfetto,
    write_trace,
)
from repro.trace.export_text import render_text
from repro.trace.tracer import (
    DEFAULT_TRACE_THREADS,
    TRACE_SCHEMA_VERSION,
    RoundTelemetry,
    Tracer,
)

__all__ = [
    "DEFAULT_TRACE_THREADS",
    "TRACE_SCHEMA_VERSION",
    "RoundTelemetry",
    "Tracer",
    "collapsed_stacks",
    "render_flamegraph",
    "render_perfetto",
    "render_text",
    "to_perfetto",
    "write_trace",
]
