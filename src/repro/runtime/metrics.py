"""Execution metrics collected by the simulated runtime.

A run is a sequence of *steps*.  Each step is either a parallel-for (one or
more fork/join barriers, a total work, and a span) or a sequential segment
(work == span, no barrier).  The ledger of steps is sufficient to evaluate

* total **work** ``W`` — the one-core running time,
* **span** ``S`` — the longest dependence chain,
* **burdened span** — span plus ``omega`` per fork/join barrier,
* simulated **running time on P cores** — the work-stealing bound
  ``sum_i max(W_i / P, S_i) + barriers_i * omega``.

The peeling-specific counters (rounds, subrounds, contention, sampler
activity) feed the paper's Figures 7, 9, 11 and Table 2's ``rho`` column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL

#: Version of the stable serialization produced by
#: :meth:`RunMetrics.to_stable_dict`.  Bump whenever a metric is added,
#: removed or redefined — the regression goldens embed this tag and refuse
#: to compare across versions.
METRICS_SCHEMA_VERSION = 1

#: Thread counts at which :meth:`RunMetrics.to_stable_dict` reports
#: simulated running times (sequential, small-scale, the paper's machine).
STABLE_THREAD_COUNTS = (1, 4, 96)


def step_time_parts(
    work: float,
    span: float,
    barriers: int,
    p_eff: float,
    model: CostModel,
) -> tuple[float, float]:
    """One ledger step's simulated running time, split into its two parts.

    Returns ``(compute, sync)`` where ``compute = max(work / p_eff, span)``
    is the work-stealing bound of the step body and ``sync = barriers *
    omega_time`` is its scheduling cost.  This is the single definition of
    the per-step bound shared by :meth:`RunMetrics.time_on`, the profiler's
    per-tag breakdown, and the tracer's simulated clock.

    The parts are returned separately (rather than pre-summed) because
    :meth:`RunMetrics.time_on` accumulates them as two distinct float
    additions — a summation order the regression goldens pin bit-exactly.
    """
    return max(work / p_eff, span), barriers * model.omega_time


@dataclass
class StepRecord:
    """One parallel step of the simulated execution."""

    work: float
    span: float
    barriers: int
    tag: str = ""
    #: Per-task costs, retained only when the runtime was created with
    #: ``record_task_costs=True`` (used by the scheduling validator).
    task_costs: object = None


@dataclass
class StepBlock:
    """A run of ledger steps for one :meth:`SimRuntime.charge_block` call.

    The columns are Python lists aligned per step.  ``kind`` names the
    construct each step stands for (``parallel_for`` or
    ``parallel_update``); ``atomics`` and ``contention`` are a step's
    atomic updates and largest contention (0 on ``parallel_for``
    steps); ``frontier`` is the size of a subround that opens just
    before the step, or -1 where none does.
    """

    kind: list[str]
    work: list[float]
    span: list[float]
    barriers: list[int]
    atomics: list[int]
    contention: list[int]
    frontier: list[int]


@dataclass
class RunMetrics:
    """Ledger plus aggregate counters for one algorithm execution."""

    steps: list[StepRecord] = field(default_factory=list)
    work: float = 0.0
    span: float = 0.0
    barriers: int = 0

    #: Peeling rounds (distinct coreness values processed).
    rounds: int = 0
    #: Peeling subrounds (frontier iterations); the paper's rho / rho'.
    subrounds: int = 0
    #: Total atomic operations issued.
    atomics: int = 0
    #: Highest number of concurrent updates observed on one memory location.
    max_contention: int = 0
    #: Vertices that ever entered sample mode.
    sampled_vertices: int = 0
    #: Resample (induced-degree recount) events.
    resamples: int = 0
    #: Las-Vegas restarts triggered by detected sampling errors.
    restarts: int = 0
    #: Largest frontier processed.
    peak_frontier: int = 0
    #: Vertices processed inside VGC local searches (not via new subrounds).
    local_search_hits: int = 0

    #: Running :meth:`time_on` sums per ``(threads, model)``: the step
    #: list summed, how many of its steps, and their total.  The ledger
    #: only grows, so a later query resumes from there.
    _time_on_cache: dict = field(
        default_factory=dict, compare=False, repr=False
    )

    def record_parallel(
        self,
        work: float,
        span: float,
        barriers: int = 1,
        tag: str = "",
        task_costs=None,
    ) -> None:
        """Append a parallel step to the ledger."""
        self.steps.append(
            StepRecord(work, span, barriers, tag, task_costs)
        )
        self.work += work
        self.span += span
        self.barriers += barriers

    def record_block(
        self,
        work: list[float],
        span: list[float],
        barriers: list[int],
        tags: list[str],
    ) -> None:
        """Append a run of parallel steps, summed in ledger order.

        The same records and the same float additions, in the same
        order, as one :meth:`record_parallel` per step.
        """
        self.steps.extend(map(StepRecord, work, span, barriers, tags))
        total = self.work
        for value in work:
            total += value
        self.work = total
        total = self.span
        for value in span:
            total += value
        self.span = total
        self.barriers += sum(barriers)

    def record_sequential(self, work: float, tag: str = "") -> None:
        """Append a sequential segment (work contributes fully to the span)."""
        self.steps.append(StepRecord(work, work, 0, tag))
        self.work += work
        self.span += work

    def observe_contention(self, contention: int, count: int = 1) -> None:
        """Note ``count`` atomics whose location saw ``contention`` writers."""
        self.atomics += count
        if contention > self.max_contention:
            self.max_contention = contention

    @property
    def burdened_span(self) -> float:
        """Span with ``omega`` charged per fork/join barrier (Cilkview)."""
        return self.span + DEFAULT_COST_MODEL.omega * self.barriers

    def burdened_span_under(self, model: CostModel) -> float:
        """Burdened span evaluated with a caller-supplied cost model."""
        return self.span + model.omega * self.barriers

    def time_on(
        self, threads: int, model: CostModel = DEFAULT_COST_MODEL
    ) -> float:
        """Simulated running time (in ops == ns) on ``threads`` threads.

        Uses the randomized work-stealing bound ``W/P + O(S)`` applied per
        step: each step completes in ``max(work / p_eff, span)`` plus the
        scheduling cost (``omega_time``) of its barriers.  On one thread
        the execution is sequential, so barriers cost nothing and the time
        is exactly the work.

        A query resumes the previous one's running sum over the steps
        appended since, with the same additions in the same order, so the
        value is bit-identical to a full pass.  A ledger shorter than the
        cached prefix, or a replaced step list, gets a full pass.
        """
        if threads == 1:
            return self.work
        steps = self.steps
        key = (threads, model)
        cached = self._time_on_cache.get(key)
        if cached is not None and cached[0] is steps and (
            cached[1] <= len(steps)
        ):
            _, done, total = cached
        else:
            done, total = 0, 0.0
        p_eff = model.effective_cores(threads)
        for step in steps[done:]:
            compute, sync = step_time_parts(
                step.work, step.span, step.barriers, p_eff, model
            )
            total += compute
            total += sync
        self._time_on_cache[key] = (steps, len(steps), total)
        return total

    def merge(self, other: "RunMetrics") -> None:
        """Fold another ledger into this one (used by restart recovery)."""
        self.steps.extend(other.steps)
        self.work += other.work
        self.span += other.span
        self.barriers += other.barriers
        self.rounds += other.rounds
        self.subrounds += other.subrounds
        self.atomics += other.atomics
        self.max_contention = max(self.max_contention, other.max_contention)
        self.sampled_vertices += other.sampled_vertices
        self.resamples += other.resamples
        self.restarts += other.restarts
        self.peak_frontier = max(self.peak_frontier, other.peak_frontier)
        self.local_search_hits += other.local_search_hits

    def to_stable_dict(
        self, model: CostModel = DEFAULT_COST_MODEL
    ) -> dict[str, float]:
        """The full ledger summary under a fixed, versioned schema.

        This is the serialization the golden-metrics regression gate pins:
        every aggregate counter plus the burdened span and the simulated
        running times at :data:`STABLE_THREAD_COUNTS`, all evaluated under
        ``model``.  The runtime is deterministic, so two identical runs
        produce bit-identical dicts; keys are emitted in a fixed order and
        values are plain ints/floats that round-trip exactly through JSON.
        """
        out: dict[str, float] = {
            "work": float(self.work),
            "span": float(self.span),
            "burdened_span": float(self.burdened_span_under(model)),
            "barriers": int(self.barriers),
            "rounds": int(self.rounds),
            "subrounds": int(self.subrounds),
            "atomics": int(self.atomics),
            "max_contention": int(self.max_contention),
            "sampled_vertices": int(self.sampled_vertices),
            "resamples": int(self.resamples),
            "restarts": int(self.restarts),
            "peak_frontier": int(self.peak_frontier),
            "local_search_hits": int(self.local_search_hits),
            "steps": len(self.steps),
        }
        for threads in STABLE_THREAD_COUNTS:
            out[f"time_p{threads}"] = float(self.time_on(threads, model))
        return out

    def summary(self) -> dict[str, float]:
        """Aggregate counters as a plain dict (for tables and JSON dumps)."""
        return {
            "work": self.work,
            "span": self.span,
            "burdened_span": self.burdened_span,
            "barriers": float(self.barriers),
            "rounds": float(self.rounds),
            "subrounds": float(self.subrounds),
            "atomics": float(self.atomics),
            "max_contention": float(self.max_contention),
            "sampled_vertices": float(self.sampled_vertices),
            "resamples": float(self.resamples),
            "restarts": float(self.restarts),
            "peak_frontier": float(self.peak_frontier),
            "local_search_hits": float(self.local_search_hits),
        }
