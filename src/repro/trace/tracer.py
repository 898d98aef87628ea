"""The span tracer: the timeline facet of the one observer.

A :class:`Tracer` rides on a :class:`~repro.obs.MetricsRegistry`
(``MetricsRegistry(label, tracer=Tracer(threads))``), whose
runtime-facing hooks forward to it: ``SimRuntime``'s ``begin_round``,
``begin_subround`` and charge methods become a timeline on the
**simulated clock**.  Each ledger step advances the clock by its
work-stealing-bound duration at the tracer's thread count (the same
:func:`~repro.runtime.metrics.step_time_parts` formula behind
``RunMetrics.time_on``), and rounds/subrounds become nested spans with
per-round telemetry (frontier sizes, contention, sampler activity,
absorptions).

Tracing is strictly observational and deterministic (lint rule R006):

* the tracer never charges work, mutates the ledger, or draws
  randomness — two identical runs traced or untraced produce the same
  ``RunMetrics`` bit-for-bit, and two traced runs the same event stream;
* the tracer never reads a host clock — *host* wall-clock spans are
  injected by the caller via the registry's ``host_span``, measured
  with the one sanctioned reader, :mod:`repro.bench.wallclock`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.metrics import step_time_parts

#: Version of the trace event stream and its exported serializations.
#: Bump whenever an event kind, field, or clock convention is added,
#: removed or redefined — consumers embed this tag (mirrors the
#: ``METRICS_SCHEMA_VERSION`` discipline of the regression goldens).
TRACE_SCHEMA_VERSION = 2

#: Default simulated thread count of the trace clock (paper's machine).
DEFAULT_TRACE_THREADS = 96


@dataclass
class StepEvent:
    """One ledger step on the simulated timeline."""

    kind: str  # parallel_for / parallel_update / sequential / ...
    tag: str
    t0: float  # simulated ns
    t1: float
    work: float
    span: float
    barriers: int
    atomics: int = 0
    max_contention: int = 0
    round_index: int = 0  # 0 = before the first round ("setup")
    round_k: int | None = None
    subround_index: int = 0  # 0 = outside any subround


@dataclass
class SpanRecord:
    """One closed round or subround span."""

    kind: str  # "round" | "subround"
    name: str
    t0: float
    t1: float
    args: dict


@dataclass
class InstantEvent:
    """A point event (VGC tasks, resample, restart, ...)."""

    name: str
    ts: float
    args: dict


@dataclass
class CounterSample:
    """One sample of a counter track (frontier size, contention)."""

    name: str
    ts: float
    value: float


@dataclass
class HostSpan:
    """A host wall-clock span injected by the caller (never read here).

    ``track`` names the host thread the span renders on (the default
    single ``bench`` track preserves the original layout); ``start_s``
    optionally places the span at an explicit offset on its track —
    the shard engine uses both for per-worker wall tracks.
    """

    name: str
    wall_s: float
    args: dict
    track: str = "bench"
    start_s: float | None = None


@dataclass
class RoundTelemetry:
    """Aggregated per-round counters (the trace's tabular view)."""

    index: int
    k: int | None
    t0: float
    t1: float = 0.0
    subrounds: int = 0
    peak_frontier: int = 0
    frontier_total: int = 0
    steps: int = 0
    work: float = 0.0
    atomics: int = 0
    max_contention: int = 0
    absorbed: int = 0
    sample_draws: int = 0
    sample_hits: int = 0
    saturated: int = 0
    resamples: int = 0
    validate_failures: int = 0

    def to_dict(self) -> dict[str, object]:
        """JSON-safe dict under a fixed key order."""
        return {
            "index": self.index,
            "k": self.k,
            "t0": self.t0,
            "t1": self.t1,
            "subrounds": self.subrounds,
            "peak_frontier": self.peak_frontier,
            "frontier_total": self.frontier_total,
            "steps": self.steps,
            "work": self.work,
            "atomics": self.atomics,
            "max_contention": self.max_contention,
            "absorbed": self.absorbed,
            "sample_draws": self.sample_draws,
            "sample_hits": self.sample_hits,
            "saturated": self.saturated,
            "resamples": self.resamples,
            "validate_failures": self.validate_failures,
        }


class Tracer:
    """Collects the trace of one (or several, under restarts) runtimes.

    One tracer instance corresponds to one logical execution: the
    Las-Vegas restart recovery re-attaches the same registry (and so the
    same tracer) to each fresh runtime, so the timeline spans every
    attempt and the simulated clock keeps accumulating across restarts.
    The run's label is its registry's.
    """

    def __init__(self, threads: int = DEFAULT_TRACE_THREADS) -> None:
        self.threads = int(threads)
        if self.threads < 1:
            raise ValueError(
                f"a trace needs at least 1 simulated thread, got {threads}"
            )
        self.model = None  # set at attach
        self.clock = 0.0  # simulated ns
        self.attempts = 0  # runtimes attached (restarts re-attach)

        self.steps: list[StepEvent] = []
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantEvent] = []
        self.counters: list[CounterSample] = []
        self.host_spans: list[HostSpan] = []
        self.rounds: list[RoundTelemetry] = []

        self._p_eff = 0.0
        self._round: RoundTelemetry | None = None
        self._round_index = 0
        self._subround_t0 = 0.0
        self._subround_frontier = 0
        self._subround_index = 0  # within the current round
        self._subround_open = False
        self._finished = False

    # ------------------------------------------------------------------
    # Hooks (the registry forwards its runtime-facing hooks here)
    # ------------------------------------------------------------------
    def attach_model(self, model) -> None:
        """Adopt the cost model of an attached runtime (or bare engine)."""
        self.model = model
        if self.threads > 1:
            self._p_eff = model.effective_cores(self.threads)
        self.attempts += 1

    def on_round(self, k: int | None = None) -> None:
        """A peeling round begins: close the previous spans, open a new one."""
        self._close_subround()
        self._close_round()
        self._round_index += 1
        self._subround_index = 0
        self._round = RoundTelemetry(
            index=self._round_index,
            k=None if k is None else int(k),
            t0=self.clock,
        )

    def on_subround(self, frontier_size: int) -> None:
        """A subround begins over ``frontier_size`` frontier vertices."""
        if self._round is None:
            self.on_round(None)
        self._close_subround()
        rnd = self._round
        assert rnd is not None
        self._subround_index += 1
        self._subround_t0 = self.clock
        self._subround_frontier = int(frontier_size)
        self._subround_open = True
        rnd.subrounds += 1
        rnd.frontier_total += int(frontier_size)
        if frontier_size > rnd.peak_frontier:
            rnd.peak_frontier = int(frontier_size)
        self.counter("frontier", float(frontier_size))

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
        """One ledger step: advance the simulated clock, record the event."""
        if self.threads == 1:
            duration = work
        else:
            compute, sync = step_time_parts(
                work, span, barriers, self._p_eff, self.model
            )
            duration = compute + sync
        t0 = self.clock
        self.clock = t0 + duration
        rnd = self._round
        self.steps.append(
            StepEvent(
                kind=kind,
                tag=tag,
                t0=t0,
                t1=self.clock,
                work=work,
                span=span,
                barriers=barriers,
                atomics=atomics,
                max_contention=max_contention,
                round_index=rnd.index if rnd is not None else 0,
                round_k=rnd.k if rnd is not None else None,
                subround_index=(
                    self._subround_index if self._subround_open else 0
                ),
            )
        )
        if rnd is not None:
            rnd.steps += 1
            rnd.work += work
            rnd.atomics += atomics
            if max_contention > rnd.max_contention:
                rnd.max_contention = max_contention
        if atomics:
            self.counter("contention", float(max_contention))

    def instant(self, name: str, **args: object) -> None:
        """Record a point event at the current simulated time.

        Known event names additionally feed the per-round telemetry:
        ``vgc_tasks`` (absorption counts, sampler traffic),
        ``sample_draw`` (hits/misses of the flat peel),
        ``sample_saturated``, ``resample``, ``validate``.
        """
        self.instants.append(InstantEvent(name, self.clock, dict(args)))
        rnd = self._round
        if rnd is None:
            return
        if name == "vgc_tasks":
            rnd.absorbed += int(args.get("absorbed", 0))
            rnd.sample_draws += int(args.get("sample_draws", 0))
            rnd.sample_hits += int(args.get("sample_hits", 0))
            rnd.saturated += int(args.get("saturated", 0))
        elif name == "sample_draw":
            rnd.sample_draws += int(args.get("drawn", 0))
            rnd.sample_hits += int(args.get("hits", 0))
        elif name == "sample_saturated":
            rnd.saturated += int(args.get("count", 0))
        elif name == "resample":
            rnd.resamples += int(args.get("count", 0))
        elif name == "validate":
            rnd.validate_failures += int(args.get("failures", 0))

    def host_span(
        self,
        name: str,
        wall_s: float,
        track: str = "bench",
        start_s: float | None = None,
        **args: object,
    ) -> None:
        """Record a *host* wall-clock span measured by the caller.

        The tracer itself never reads a clock (R006); benchmark code
        measures with :func:`repro.bench.wallclock.measure` and hands the
        elapsed seconds in.  ``track`` / ``start_s`` choose the host
        thread and an explicit offset on it (per-worker wall tracks).
        """
        self.host_spans.append(
            HostSpan(name, float(wall_s), dict(args), track, start_s)
        )

    def counter(self, name: str, value: float) -> None:
        """Sample a counter track at the current simulated time."""
        self.counters.append(CounterSample(name, self.clock, value))

    # ------------------------------------------------------------------
    # Caller-facing API
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close any open spans; idempotent."""
        if self._finished:
            return
        self._close_subround()
        self._close_round()
        self._finished = True

    def telemetry(self) -> list[dict[str, object]]:
        """Per-round telemetry as JSON-safe dicts (finishes the trace)."""
        self.finish()
        return [rnd.to_dict() for rnd in self.rounds]

    # ------------------------------------------------------------------
    def _close_subround(self) -> None:
        if not self._subround_open:
            return
        rnd = self._round
        assert rnd is not None
        self.spans.append(
            SpanRecord(
                kind="subround",
                name=f"subround {self._subround_index}",
                t0=self._subround_t0,
                t1=self.clock,
                args={
                    "index": self._subround_index,
                    "frontier": self._subround_frontier,
                    "round": rnd.index,
                    "k": rnd.k,
                },
            )
        )
        self._subround_open = False

    def _close_round(self) -> None:
        rnd = self._round
        if rnd is None:
            return
        rnd.t1 = self.clock
        name = f"round k={rnd.k}" if rnd.k is not None else (
            f"round {rnd.index}"
        )
        self.spans.append(
            SpanRecord(
                kind="round",
                name=name,
                t0=rnd.t0,
                t1=rnd.t1,
                args=rnd.to_dict(),
            )
        )
        self.rounds.append(rnd)
        self._round = None


def timeline(registry) -> Tracer:
    """The tracer facet of ``registry`` (a ValueError if it has none)."""
    tracer = registry.tracer
    if tracer is None:
        raise ValueError(
            f"registry {registry.label!r} has no tracer facet; construct "
            "it as MetricsRegistry(label, tracer=Tracer(threads))"
        )
    return tracer
