"""The metrics registry: the one observer of an execution.

A :class:`MetricsRegistry` attaches to an execution — explicitly via
``registry=`` kwargs, or process-wide via :func:`repro.obs.observing` —
and accumulates *totals*: ledger steps and rounds, cache hits, kernel
dispatches, serve commits, staleness histograms.  Given a span tracer
(``MetricsRegistry(label, tracer=Tracer(threads))``, see
:mod:`repro.trace`), the same hooks also build the *timeline*: every
runtime-facing hook (:meth:`~MetricsRegistry.on_step`,
:meth:`~MetricsRegistry.on_block`, :meth:`~MetricsRegistry.on_round`,
:meth:`~MetricsRegistry.on_subround`, :meth:`~MetricsRegistry.instant`,
:meth:`~MetricsRegistry.host_span`)
updates the registry's counters first, then forwards to the tracer.

Observation is strictly side-effect-free (lint rule R006):

* observer code never charges the simulated ledger, never draws
  randomness, and never mutates ``RunMetrics`` — the regression goldens
  pass bit-exactly with a registry attached and detached, traced or not;
* every hook outside the observability packages is guarded by an
  ``is not None`` check, so the unobserved path stays zero-cost;
* wall-clock readings enter only through values measured by the one
  sanctioned reader, :mod:`repro.bench.wallclock`.

Every metric belongs to one of two families, and one name never spans
both: ``sim`` holds what the graph, the seed and the cost model
determine; ``host`` holds everything else (wall seconds, the kernel
mode a run resolved, cache events, the shard pool's size and pipe
traffic).  Snapshots (:meth:`MetricsRegistry.to_snapshot`) are
schema-versioned and carry only ``sim`` and the marks, so two same-seed
runs produce byte-identical JSON, with or without a tracer facet, in
either kernel mode and at any pool size.  The Prometheus exposition and
the dashboard show both families.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

#: Version of the metric snapshot schema.  Bump whenever a metric kind,
#: snapshot field, or family convention is added, removed or redefined
#: (mirrors ``METRICS_SCHEMA_VERSION`` / ``TRACE_SCHEMA_VERSION``).
OBS_SCHEMA_VERSION = 2

#: The simulated family: values the graph, the seed and the cost model
#: determine (simulated ns, counts, sizes).  Equal across hosts, kernel
#: modes and pool sizes.
SIM = "sim"

#: The host family: everything else (wall seconds from
#: ``repro.bench.wallclock``, ``kernel.*`` mode decisions, ``cache.*``
#: events, the shard pool's size and bytes shipped).  Left out of the
#: snapshot; kept strictly apart from the ``sim`` family.
HOST = "host"

FAMILIES = (SIM, HOST)

#: Default histogram boundaries for simulated durations (ns): one bucket
#: per decade from 1us to 100s of simulated time.
TIME_BOUNDARIES_NS: tuple[float, ...] = tuple(
    float(10**e) for e in range(3, 12)
)

#: Default histogram boundaries for small cardinalities (batch sizes,
#: queue depths, repair rounds): powers of two up to 4096.
SIZE_BOUNDARIES: tuple[float, ...] = tuple(float(2**e) for e in range(13))

#: Default histogram boundaries of the ``host`` family (wall seconds).
WALL_BOUNDARIES_S: tuple[float, ...] = tuple(
    float(10**e) for e in range(-4, 3)
)

#: Percentiles reported by :func:`percentile_summary`.
PERCENTILES = (50, 95, 99)


def percentile_summary(samples: list[float]) -> dict[str, float]:
    """Deterministic percentile summary of a raw sample list.

    The serve report's latency fields are computed with this helper (it
    predates the registry; the histogram views complement it — fixed
    buckets cannot reproduce exact percentiles bit-for-bit).
    """
    if not samples:
        return {f"p{p}": 0.0 for p in PERCENTILES} | {"max": 0.0}
    arr = np.asarray(samples, dtype=np.float64)
    summary = {
        f"p{p}": float(np.percentile(arr, p)) for p in PERCENTILES
    }
    summary["max"] = float(arr.max())
    return summary


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    family: str
    value: float = 0.0

    kind = "counter"

    def to_dict(self) -> dict[str, object]:
        return {"value": self.value}


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    family: str
    value: float = 0.0

    kind = "gauge"

    def to_dict(self) -> dict[str, object]:
        return {"value": self.value}


@dataclass
class Histogram:
    """A fixed-boundary histogram (cumulative-free bucket counts).

    ``boundaries`` are the upper bucket edges in strictly increasing
    order; an observation lands in the first bucket whose edge is
    ``>= value``, or the overflow bucket past the last edge, so there
    are ``len(boundaries) + 1`` counts.  Boundaries are fixed at
    declaration — snapshots of the same run are always comparable.
    """

    name: str
    family: str
    boundaries: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        edges = tuple(float(b) for b in self.boundaries)
        if not edges or any(
            nxt <= prev for prev, nxt in zip(edges, edges[1:])
        ):
            raise ValueError(
                f"histogram {self.name!r}: boundaries must be strictly "
                f"increasing and non-empty, got {edges}"
            )
        self.boundaries = edges
        if not self.counts:
            self.counts = [0] * (len(edges) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Histogram-estimated quantile (linear within the hit bucket).

        An *estimate* for dashboards — exact percentiles need the raw
        samples (:func:`percentile_summary`).
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if seen + c >= rank and c:
                lo = self.boundaries[i - 1] if i > 0 else 0.0
                hi = (
                    self.boundaries[i]
                    if i < len(self.boundaries)
                    else max(self.sum / self.count, lo)
                )
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(frac, 1.0)
            seen += c
        return self.boundaries[-1]

    def to_dict(self) -> dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


@dataclass
class Mark:
    """A named snapshot of every scalar ``sim`` metric at one sim time.

    The serve loop marks the registry at each epoch commit; the Perfetto
    exporter turns marks into counter tracks so metrics and spans
    correlate on one simulated timeline.
    """

    ts: float
    label: str
    values: dict[str, float]


class MetricsRegistry:
    """Collects the metrics (and, with a tracer, the timeline) of a run.

    ``SimRuntime`` calls :meth:`attach` when constructed under a
    registry, restarts re-attach the same registry, and detaching is
    leaving the :func:`repro.obs.observing` block (or passing
    ``registry=None``).  ``tracer`` is the optional timeline facet, a
    :class:`repro.trace.Tracer`: the runtime-facing hooks forward to it
    after updating the counters, which are the same with or without it.
    """

    def __init__(self, label: str = "run", tracer=None) -> None:
        self.label = label
        #: The timeline facet (a :class:`repro.trace.Tracer`), or None.
        self.tracer = tracer
        self.attached = 0  # runtimes observed (restarts re-attach)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self.marks: list[Mark] = []

    # ------------------------------------------------------------------
    # Runtime-facing hooks (every call outside the observability
    # packages is R006-guarded)
    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        """Adopt a runtime; called by ``SimRuntime`` on construction."""
        self.attach_model(runtime.model)

    def attach_model(self, model) -> None:
        """Adopt a bare cost model (runtime-less sequential engines)."""
        self.attached += 1
        if self.tracer is not None:
            self.tracer.attach_model(model)

    def on_step(
        self,
        kind: str,
        work: float,
        span: float,
        barriers: int,
        tag: str,
        atomics: int = 0,
        max_contention: int = 0,
    ) -> None:
        """One ledger step: count it, its work and its atomics."""
        self._counter(f"runtime.steps.{kind}").value += 1.0
        self._counter("runtime.work").value += float(work)
        if atomics:
            self._counter("runtime.atomics").value += float(atomics)
        if self.tracer is not None:
            self.tracer.on_step(
                kind, work, span, barriers, tag, atomics, max_contention
            )

    def on_block(self, block, tags: list[str]) -> None:
        """A block of ledger steps (``SimRuntime.charge_block``).

        The same counters as one :meth:`on_subround` per subround the
        block opens and one :meth:`on_step` per step, with the work
        summed in step order; with a tracer, the same events in the
        same order.
        """
        opened = len(block.frontier) - block.frontier.count(-1)
        if opened:
            self._counter("runtime.subrounds").value += float(opened)
        for kind in dict.fromkeys(block.kind):
            self._counter(f"runtime.steps.{kind}").value += float(
                block.kind.count(kind)
            )
        if block.work:
            work = self._counter("runtime.work")
            for value in block.work:
                work.value += value
        atomics = sum(block.atomics)
        if atomics:
            self._counter("runtime.atomics").value += float(atomics)
        tracer = self.tracer
        if tracer is not None:
            for step, kind in enumerate(block.kind):
                if block.frontier[step] >= 0:
                    tracer.on_subround(block.frontier[step])
                tracer.on_step(
                    kind, block.work[step], block.span[step],
                    block.barriers[step], tags[step], block.atomics[step],
                    block.contention[step],
                )

    def on_round(self, k: int | None = None) -> None:
        """A peeling round begins (``k``: its coreness, when known)."""
        self._counter("runtime.rounds").value += 1.0
        if self.tracer is not None:
            self.tracer.on_round(k)

    def on_subround(self, frontier_size: int) -> None:
        """A subround begins over ``frontier_size`` frontier vertices."""
        self._counter("runtime.subrounds").value += 1.0
        if self.tracer is not None:
            self.tracer.on_subround(frontier_size)

    def instant(self, name: str, **args: object) -> None:
        """A point event (VGC tasks, resample, restart, commit, ...)."""
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    def host_span(
        self,
        name: str,
        wall_s: float,
        track: str = "bench",
        start_s: float | None = None,
        **args: object,
    ) -> None:
        """A *host* wall-clock span measured by the caller.

        The observer never reads a clock (R006): callers measure with
        :func:`repro.bench.wallclock.measure` and hand the seconds in.
        """
        if self.tracer is not None:
            self.tracer.host_span(name, wall_s, track, start_s, **args)

    # ------------------------------------------------------------------
    # Declaration and lookup
    # ------------------------------------------------------------------
    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if existing.kind != metric.kind:
            raise ValueError(
                f"metric {metric.name!r} already registered as "
                f"{existing.kind}, not {metric.kind}"
            )
        if existing.family != metric.family:
            raise ValueError(
                f"metric {metric.name!r} belongs to the "
                f"{existing.family!r} family; the sim and host "
                f"families never mix under one name"
            )
        return existing

    def declare_histogram(
        self,
        name: str,
        boundaries: tuple[float, ...],
        family: str = SIM,
    ) -> Histogram:
        """Declare (or fetch) a histogram with fixed ``boundaries``."""
        self._check_family(family)
        hist = self._register(Histogram(name, family, tuple(boundaries)))
        if hist.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} already declared with boundaries "
                f"{hist.boundaries}"
            )
        return hist

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        metric = self._metrics.get(name)
        if metric is None or metric.kind == "histogram":
            return default
        return metric.value

    def histogram_dict(self, name: str) -> dict[str, object]:
        """JSON-safe dict of histogram ``name`` (empty shape if absent)."""
        metric = self._metrics.get(name)
        if isinstance(metric, Histogram):
            return metric.to_dict()
        return {"boundaries": [], "counts": [], "sum": 0.0, "count": 0}

    @staticmethod
    def _check_family(family: str) -> None:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown metric family {family!r}; known: {FAMILIES}"
            )

    # ------------------------------------------------------------------
    # Mutation hooks (every call outside repro/obs/ is R006-guarded)
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, family: str = SIM) -> None:
        """Increment counter ``name`` by ``value`` (must be >= 0)."""
        self._check_family(family)
        value = float(value)
        if value < 0:
            raise ValueError(
                f"counter {name!r}: increments must be >= 0, got {value}"
            )
        self._counter(name, family).value += value

    def _counter(self, name: str, family: str = SIM) -> Counter:
        """Counter ``name``, registered on first use (no throwaway)."""
        metric = self._metrics.get(name)
        if (
            metric is None
            or metric.kind != "counter"
            or metric.family != family
        ):
            metric = self._register(Counter(name, family))
        return metric

    def set_gauge(self, name: str, value: float, family: str = SIM) -> None:
        """Set gauge ``name`` to ``value``."""
        self._check_family(family)
        self._register(Gauge(name, family)).value = float(value)

    def observe(
        self,
        name: str,
        value: float,
        boundaries: tuple[float, ...] | None = None,
        family: str = SIM,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``boundaries`` applies on first use only (defaults to
        :data:`TIME_BOUNDARIES_NS` for ``sim``, :data:`WALL_BOUNDARIES_S`
        for ``host``); later calls reuse the declared edges.
        """
        self._check_family(family)
        metric = self._metrics.get(name)
        if metric is None:
            if boundaries is None:
                boundaries = (
                    TIME_BOUNDARIES_NS if family == SIM else WALL_BOUNDARIES_S
                )
            metric = self.declare_histogram(name, boundaries, family)
        elif not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a histogram"
            )
        metric.observe(value)

    def mark(self, ts: float, label: str = "") -> None:
        """Snapshot every scalar ``sim`` metric at simulated time ``ts``."""
        values = {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if metric.family == SIM and metric.kind != "histogram"
        }
        self.marks.append(Mark(float(ts), label, values))

    def merge_counts(
        self, snapshot: dict[str, object], family: str = SIM
    ) -> None:
        """Fold a worker's counter snapshot into this registry.

        ``snapshot`` maps metric name to scalar increments (the shape
        :func:`counter_values` returns for ``family``) — how the
        benchmark pool aggregates per-process counters into the parent
        registry.
        """
        for name in sorted(snapshot):
            self.inc(name, float(snapshot[name]), family)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def counter_values(
        self, prefix: str = "", family: str = SIM
    ) -> dict[str, float]:
        """All ``family`` counters whose name starts with ``prefix``."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if metric.kind == "counter"
            and metric.family == family
            and name.startswith(prefix)
        }

    def family_snapshot(self, family: str) -> dict[str, dict]:
        """``family``'s metrics as JSON-safe dicts, by kind and name."""
        self._check_family(family)
        sections: dict[str, dict] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.family == family:
                sections[metric.kind + "s"][name] = metric.to_dict()
        return sections

    def to_snapshot(self) -> dict[str, object]:
        """The ``sim`` family and the marks as a schema-versioned dict.

        Key order is fixed (sorted metric names inside each kind) and
        the ``host`` family is left out, so the serialized snapshot is
        byte-deterministic across same-seed runs.
        """
        return {
            "obs_schema_version": OBS_SCHEMA_VERSION,
            "label": self.label,
            "attached": self.attached,
            "families": {SIM: self.family_snapshot(SIM)},
            "marks": [
                {"ts": mark.ts, "label": mark.label, "values": mark.values}
                for mark in self.marks
            ],
        }


# ----------------------------------------------------------------------
# The process-wide active registry: the one attach slot
# ----------------------------------------------------------------------
_ACTIVE_REGISTRY: MetricsRegistry | None = None


def set_active_registry(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Install the process-wide default registry; returns the previous.

    Pass ``None`` to uninstall.  Prefer the :func:`repro.obs.observing`
    context manager, which restores the previous registry on exit.
    """
    global _ACTIVE_REGISTRY
    previous = _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = registry
    return previous


def active_registry() -> MetricsRegistry | None:
    """The installed process-wide registry (or ``None``: metrics off)."""
    return _ACTIVE_REGISTRY
