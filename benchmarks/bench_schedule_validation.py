"""Validation bench: the W/P + S bound against actual greedy scheduling.

The entire simulated-time substitution rests on pricing each parallel
step with ``max(work/P, span)``.  This bench re-runs the flagship
algorithm with per-task recording and replaces the bound with an actual
greedy list schedule of every step's task multiset (Graham's guarantee:
within ``(1 - 1/P) * max_task`` of optimal), showing the two agree.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.core.peel_online import OnlinePeel
from repro.core.state import PeelState
from repro.generators import suite
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.runtime.cost_model import nanos_to_millis
from repro.runtime.list_schedule import scheduled_time_on
from repro.runtime.simulator import SimRuntime
from repro.structures.single_bucket import SingleBucket

GRAPHS = ("LJ-S", "AF-S", "GL5-S", "SD-S")


def run_with_tasks(name: str):
    graph = suite.load(name)
    runtime = SimRuntime(record_task_costs=True)
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(graph.n, dtype=bool)
    coreness = np.zeros(graph.n, dtype=np.int64)
    buckets = SingleBucket()
    buckets.build(graph, dtilde, peeled, runtime)
    peel = OnlinePeel()
    state = PeelState(
        graph=graph, dtilde=dtilde, peeled=peeled, coreness=coreness,
        runtime=runtime, buckets=buckets,
        scratch=KernelScratch(graph, kernel_mode()),
    )
    while True:
        step = buckets.next_round()
        if step is None:
            break
        k, frontier = step
        while frontier.size:
            coreness[frontier] = k
            peeled[frontier] = True
            frontier = peel.subround(state, frontier, k)
    return runtime.metrics


def sweep():
    rows = []
    for name in GRAPHS:
        metrics = run_with_tasks(name)
        modeled = nanos_to_millis(metrics.time_on(96))
        scheduled = nanos_to_millis(scheduled_time_on(metrics, 96))
        rows.append([name, modeled, scheduled, scheduled / modeled])
    return rows


def _render(rows) -> str:
    return render_table(
        ("graph", "modeled (ms)", "scheduled (ms)", "ratio"),
        rows,
        title="Time-model validation: W/P + S bound vs greedy schedule",
    )


def test_schedule_validation(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("schedule_validation", _render(rows))

    for name, modeled, scheduled, ratio in rows:
        # The modeled bound and the realized schedule agree closely.
        assert 0.6 <= ratio <= 1.2, (name, ratio)


if __name__ == "__main__":
    print(_render(sweep()))
