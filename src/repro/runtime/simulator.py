"""The simulated parallel runtime.

:class:`SimRuntime` is the single object algorithm implementations charge
their operations to.  It exposes a small vocabulary that mirrors the
parallel constructs in the paper:

* :meth:`parallel_for` — a flat parallel loop over tasks with known costs
  (one fork/join barrier; span = the most expensive task);
* :meth:`parallel_update` — a parallel loop whose tasks also issue atomic
  updates; concurrent updates to one location serialize on the span
  (the paper's contention model, Sec. 2);
* :meth:`sequential` — work executed on one thread (local searches inside
  VGC, the sequential baselines);
* :meth:`barrier_only` — an extra synchronization phase with negligible work
  (e.g. the histogram passes of the offline peel);
* :meth:`charge_block` — a run of ``parallel_for`` / ``parallel_update``
  steps and the subrounds they open, priced by the caller and recorded
  in one call (a native kernel's whole level).

Algorithms remain ordinary single-threaded Python underneath; the runtime
records what the same logical execution would cost in the work / span /
burdened-span / contention model, which is exactly the vocabulary the
paper's own analysis and Cilkview measurements use.

A :class:`~repro.obs.MetricsRegistry` may observe a runtime
(``registry=`` kwarg, or process-wide via :func:`repro.obs.observing`):
it counts steps and rounds and, given a :class:`~repro.trace.Tracer`
facet, records the timeline.  Observation is strictly side-effect-free:
every hook is guarded by an ``is not None`` check (lint rule R006), the
observer never charges work or draws randomness, and with no registry
attached the only overhead is that guard — the ledger is bit-identical
either way.
"""

from __future__ import annotations

import numpy as np

from repro.obs.registry import active_registry
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.metrics import RunMetrics, StepBlock

class SimRuntime:
    """Accounting context for one simulated parallel execution."""

    def __init__(
        self,
        model: CostModel | None = None,
        record_task_costs: bool = False,
        registry=None,
    ) -> None:
        self.model = model if model is not None else DEFAULT_COST_MODEL
        self.metrics = RunMetrics()
        #: Retain per-task cost arrays on every step (memory-heavy; used
        #: by the greedy-scheduling validation in runtime.list_schedule).
        self.record_task_costs = record_task_costs
        #: The observing registry, or None (the default: unobserved).
        self.registry = (
            registry if registry is not None else active_registry()
        )
        if self.registry is not None:
            self.registry.attach(self)

    # ------------------------------------------------------------------
    # Parallel constructs
    # ------------------------------------------------------------------
    def parallel_for(
        self,
        task_costs: np.ndarray | list[float] | float,
        count: int | None = None,
        barriers: int = 1,
        tag: str = "",
    ) -> None:
        """Charge a flat parallel loop.

        ``task_costs`` is either an array of per-task costs, or a scalar
        per-task cost combined with ``count``.  Span is the largest task.
        """
        if np.isscalar(task_costs):
            if count is None:
                raise ValueError("count is required with a scalar task cost")
            work = float(task_costs) * count
            span = float(task_costs) if count else 0.0
        else:
            costs = np.asarray(task_costs, dtype=np.float64)
            work = float(costs.sum())
            span = float(costs.max()) if costs.size else 0.0
        self.metrics.record_parallel(
            work, span, barriers, tag,
            task_costs=self._retain(task_costs, count),
        )
        if self.registry is not None:
            self.registry.on_step("parallel_for", work, span, barriers, tag)

    def parallel_update(
        self,
        task_costs: np.ndarray | float,
        contention_counts: np.ndarray,
        count: int | None = None,
        barriers: int = 1,
        tag: str = "",
    ) -> None:
        """Charge a parallel loop that performs atomic updates.

        ``contention_counts`` holds, per touched memory location, the number
        of concurrent atomic updates it receives in this step.  Updates to
        one location serialize on its cache line, so the step span gains
        ``max(contention) * contended_atomic_op`` while each atomic costs
        ``atomic_op`` of work on top of the task costs.
        """
        counts = np.asarray(contention_counts)
        n_atomics = int(counts.sum())
        max_contention = int(counts.max()) if counts.size else 0

        if np.isscalar(task_costs):
            if count is None:
                raise ValueError("count is required with a scalar task cost")
            work = float(task_costs) * count
            span = float(task_costs) if count else 0.0
        else:
            costs = np.asarray(task_costs, dtype=np.float64)
            work = float(costs.sum())
            span = float(costs.max()) if costs.size else 0.0

        work += n_atomics * self.model.atomic_op
        span += max_contention * self.model.contended_atomic_op
        self.metrics.record_parallel(
            work, span, barriers, tag,
            task_costs=self._retain(task_costs, count),
        )
        self.metrics.observe_contention(max_contention, n_atomics)
        if self.registry is not None:
            self.registry.on_step(
                "parallel_update", work, span, barriers, tag,
                n_atomics, max_contention,
            )

    def _retain(self, task_costs, count):
        """Materialize the per-task cost array when recording is on."""
        if not self.record_task_costs:
            return None
        if np.isscalar(task_costs):
            return np.full(int(count or 0), float(task_costs))
        return np.asarray(task_costs, dtype=np.float64).copy()

    def sequential(self, work: float, tag: str = "") -> None:
        """Charge work executed on a single thread."""
        if work:
            self.metrics.record_sequential(float(work), tag)
            if self.registry is not None:
                self.registry.on_step(
                    "sequential", float(work), float(work), 0, tag
                )

    def barrier_only(self, count: int = 1, tag: str = "") -> None:
        """Charge ``count`` extra synchronization phases with no work."""
        self.metrics.record_parallel(0.0, 0.0, count, tag)
        if self.registry is not None:
            self.registry.on_step("barrier_only", 0.0, 0.0, count, tag)

    def imbalanced_step(
        self,
        thread_works: np.ndarray | list[float],
        barriers: int = 1,
        tag: str = "",
    ) -> None:
        """Charge a step statically partitioned over threads.

        Used by the PKC baseline: each simulated thread drains its private
        buffer sequentially, so the step's span is the *maximum* per-thread
        work (no work stealing inside the step), which models PKC's load
        imbalance on chain-reaction graphs (paper Sec. 4.2).
        """
        works = np.asarray(thread_works, dtype=np.float64)
        work = float(works.sum())
        span = float(works.max()) if works.size else 0.0
        self.metrics.record_parallel(work, span, barriers, tag)
        if self.registry is not None:
            self.registry.on_step(
                "imbalanced_step", work, span, barriers, tag
            )

    def charge_block(self, block: StepBlock, tags: list[str]) -> None:
        """Charge a run of priced steps and the subrounds they open.

        Equivalent to calling :meth:`begin_subround` before every step
        whose ``block.frontier`` is ``>= 0`` and :meth:`parallel_for` or
        :meth:`parallel_update` (per ``block.kind``) for every step, in
        order, with the step's ``tags`` entry: the same ledger records
        and sums, subround counters, contention counters, registry
        counters and tracer events.  There are no per-task costs to
        keep, so a runtime recording them rejects a block.
        """
        if self.record_task_costs:
            raise ValueError(
                "charge_block has no per-task costs to record; charge "
                "step by step on a runtime with record_task_costs=True"
            )
        if len(tags) != len(block.work):
            raise ValueError(
                f"{len(tags)} tags for a block of {len(block.work)} steps"
            )
        metrics = self.metrics
        metrics.record_block(block.work, block.span, block.barriers, tags)
        opened = len(block.frontier) - block.frontier.count(-1)
        if opened:
            metrics.subrounds += opened
            peak = max(block.frontier)
            if peak > metrics.peak_frontier:
                metrics.peak_frontier = peak
        metrics.observe_contention(
            max(block.contention, default=0), sum(block.atomics)
        )
        if self.registry is not None:
            self.registry.on_block(block, tags)

    # ------------------------------------------------------------------
    # Peeling-structure counters
    # ------------------------------------------------------------------
    def begin_round(self, k: int | None = None) -> None:
        """Note the start of a peeling round (one coreness value).

        ``k`` is the coreness value the round peels, when the caller
        knows it; it only feeds the observer's span labels and per-round
        telemetry, never the ledger.
        """
        self.metrics.rounds += 1
        if self.registry is not None:
            self.registry.on_round(k)

    def begin_subround(self, frontier_size: int) -> None:
        """Note the start of a peeling subround over ``frontier_size``."""
        self.metrics.subrounds += 1
        if frontier_size > self.metrics.peak_frontier:
            self.metrics.peak_frontier = frontier_size
        if self.registry is not None:
            self.registry.on_subround(int(frontier_size))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def time_on(self, threads: int) -> float:
        """Simulated time (ns) of the recorded execution on ``threads``."""
        return self.metrics.time_on(threads, self.model)
