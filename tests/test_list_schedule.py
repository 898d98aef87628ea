"""Tests for the greedy-scheduling validator of the W/P + S time model."""

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig, decompose
from repro.core.parallel_kcore import ParallelKCore
from repro.core.peel_online import OnlinePeel
from repro.generators import erdos_renyi, grid_2d
from repro.runtime.list_schedule import (
    graham_bound,
    list_schedule_makespan,
    scheduled_time_on,
)
from repro.runtime.simulator import SimRuntime


class TestListSchedule:
    def test_single_worker_is_total_work(self):
        costs = np.array([3.0, 1.0, 4.0])
        assert list_schedule_makespan(costs, 1) == 8.0

    def test_many_workers_is_max_task(self):
        costs = np.array([3.0, 1.0, 4.0])
        assert list_schedule_makespan(costs, 10) == 4.0

    def test_empty(self):
        assert list_schedule_makespan(np.array([]), 4) == 0.0

    def test_graham_guarantee(self, rng):
        for _ in range(30):
            costs = rng.random(int(rng.integers(1, 200))) * 10
            workers = int(rng.integers(1, 16))
            makespan = list_schedule_makespan(costs, workers)
            lower = max(costs.sum() / workers, costs.max())
            assert lower - 1e-9 <= makespan <= graham_bound(
                costs, workers
            ) + 1e-9

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            list_schedule_makespan(np.array([1.0]), 0)


class TestScheduledTime:
    def _metrics_with_tasks(self, graph):
        runtime = SimRuntime(record_task_costs=True)
        import numpy as np

        from repro.core.state import PeelState
        from repro.perf import kernel_mode
        from repro.perf.kernels import KernelScratch
        from repro.structures.single_bucket import SingleBucket

        dtilde = graph.degrees.astype(np.int64).copy()
        peeled = np.zeros(graph.n, dtype=bool)
        coreness = np.zeros(graph.n, dtype=np.int64)
        buckets = SingleBucket()
        buckets.build(graph, dtilde, peeled, runtime)
        peel = OnlinePeel()
        state = PeelState(
            graph=graph, dtilde=dtilde, peeled=peeled,
            coreness=coreness, runtime=runtime, buckets=buckets,
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

    def test_scheduled_close_to_modeled(self):
        graph = erdos_renyi(400, 8.0, seed=7)
        metrics = self._metrics_with_tasks(graph)
        modeled = metrics.time_on(96)
        scheduled = scheduled_time_on(metrics, 96)
        # Greedy scheduling can only beat the per-step bound by at most
        # the max-task slack; the two must agree within a small factor.
        assert 0.5 * modeled <= scheduled <= 1.5 * modeled

    def test_one_thread_equals_work(self):
        graph = grid_2d(10, 10)
        metrics = self._metrics_with_tasks(graph)
        assert scheduled_time_on(metrics, 1) == metrics.work

    def test_fallback_without_task_costs(self):
        result = ParallelKCore.plain().decompose(grid_2d(10, 10))
        modeled = result.metrics.time_on(96)
        scheduled = scheduled_time_on(result.metrics, 96)
        assert scheduled == pytest.approx(modeled)
