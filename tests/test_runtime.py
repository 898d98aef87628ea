"""Tests for the simulated runtime: cost model, metrics, simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.atomics import (
    batch_decrement,
    batch_increment_clamped,
    contention_of,
)
from repro.runtime.cost_model import (
    DEFAULT_COST_MODEL,
    CostModel,
    CostModelOverrides,
    nanos_to_millis,
    nanos_to_seconds,
)
from repro.runtime.metrics import RunMetrics, StepBlock, step_time_parts
from repro.runtime.scheduler import (
    burdened_span_speedup,
    self_relative_speedup,
    speedup_curve,
)
from repro.runtime.simulator import SimRuntime


class TestCostModel:
    def test_effective_cores_linear_up_to_physical(self):
        m = CostModel()
        assert m.effective_cores(1) == 1
        assert m.effective_cores(96) == 96

    def test_effective_cores_hyperthreads_sublinear(self):
        m = CostModel()
        eff = m.effective_cores(192)
        assert 96 < eff < 192

    def test_effective_cores_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModel().effective_cores(0)

    def test_overrides(self):
        derived = CostModelOverrides().with_fields(omega=1.0, edge_op=7.0)
        assert derived.omega == 1.0
        assert derived.edge_op == 7.0
        assert derived.atomic_op == DEFAULT_COST_MODEL.atomic_op

    def test_overrides_unknown_field(self):
        with pytest.raises(KeyError):
            CostModelOverrides().with_fields(bogus=1.0)

    def test_unit_conversions(self):
        assert nanos_to_millis(2_000_000) == pytest.approx(2.0)
        assert nanos_to_seconds(3e9) == pytest.approx(3.0)


class TestRunMetrics:
    def test_parallel_accumulation(self):
        m = RunMetrics()
        m.record_parallel(work=100.0, span=10.0, barriers=2)
        m.record_parallel(work=50.0, span=5.0, barriers=1)
        assert m.work == 150.0
        assert m.span == 15.0
        assert m.barriers == 3

    def test_sequential_span_equals_work(self):
        m = RunMetrics()
        m.record_sequential(42.0)
        assert m.span == 42.0
        assert m.barriers == 0

    def test_burdened_span(self):
        m = RunMetrics()
        m.record_parallel(work=10.0, span=1.0, barriers=3)
        expected = 1.0 + 3 * DEFAULT_COST_MODEL.omega
        assert m.burdened_span == expected

    def test_time_on_one_thread_is_work(self):
        m = RunMetrics()
        m.record_parallel(work=960.0, span=1.0, barriers=5)
        assert m.time_on(1) == 960.0

    def test_time_on_includes_barriers(self):
        m = RunMetrics()
        m.record_parallel(work=9600.0, span=1.0, barriers=1)
        t96 = m.time_on(96)
        assert t96 == pytest.approx(100.0 + DEFAULT_COST_MODEL.omega_time)

    def test_time_on_span_bound(self):
        m = RunMetrics()
        m.record_parallel(work=96.0, span=50.0, barriers=0)
        assert m.time_on(96) == pytest.approx(50.0)

    def test_time_on_resumes_bit_exactly(self):
        """Cached running sums equal a from-scratch sum, bit for bit."""
        from repro.regress.matrix import COST_MODELS

        def from_scratch(metrics, threads, model):
            if threads == 1:
                return metrics.work
            p_eff = model.effective_cores(threads)
            total = 0.0
            for step in metrics.steps:
                compute, sync = step_time_parts(
                    step.work, step.span, step.barriers, p_eff, model
                )
                total += compute
                total += sync
            return total

        def append_random(metrics, rng, count):
            # Thirds and sevenths are inexact in binary, so a changed
            # summation order would show in the last bits.
            for _ in range(count):
                if rng.random() < 0.3:
                    metrics.record_sequential(rng.random() * 1e3 / 7)
                else:
                    metrics.record_parallel(
                        work=rng.random() * 1e6 / 3,
                        span=rng.random() * 1e3 / 7,
                        barriers=int(rng.integers(0, 3)),
                    )

        rng = np.random.default_rng(5)
        m = RunMetrics()
        for batch in range(30):
            append_random(m, rng, int(rng.integers(0, 8)))
            if batch % 7 == 3:
                other = RunMetrics()
                append_random(other, rng, 5)
                m.merge(other)
            for model in COST_MODELS.values():
                for threads in (1, 4, 96):
                    assert m.time_on(threads, model) == from_scratch(
                        m, threads, model
                    )
        # A ledger shorter than the cached prefix gets a full pass, and
        # so does a replaced step list.
        del m.steps[10:]
        assert m.time_on(96) == from_scratch(m, 96, DEFAULT_COST_MODEL)
        m.steps = list(reversed(m.steps))
        assert m.time_on(96) == from_scratch(m, 96, DEFAULT_COST_MODEL)

    def test_merge(self):
        a, b = RunMetrics(), RunMetrics()
        a.record_parallel(10.0, 1.0, 1)
        a.rounds = 2
        b.record_parallel(20.0, 2.0, 1)
        b.rounds = 3
        b.max_contention = 9
        a.merge(b)
        assert a.work == 30.0
        assert a.rounds == 5
        assert a.max_contention == 9
        assert len(a.steps) == 2

    def test_summary_keys(self):
        m = RunMetrics()
        summary = m.summary()
        for key in ("work", "span", "burdened_span", "subrounds"):
            assert key in summary

    def test_observe_contention(self):
        m = RunMetrics()
        m.observe_contention(5, count=10)
        m.observe_contention(3, count=2)
        assert m.max_contention == 5
        assert m.atomics == 12


class TestSimRuntime:
    # These tests exercise the raw charging API with hand-picked literal
    # costs and no tags on purpose: the assertions below pin down the
    # exact work/span arithmetic, independent of any CostModel field.

    def test_parallel_for_scalar(self):
        rt = SimRuntime()
        rt.parallel_for(2.0, count=10)  # lint: disable=R002,R005
        assert rt.metrics.work == 20.0
        assert rt.metrics.span == 2.0

    def test_parallel_for_array(self):
        rt = SimRuntime()
        rt.parallel_for(np.array([1.0, 5.0, 2.0]))  # lint: disable=R002,R005
        assert rt.metrics.work == 8.0
        assert rt.metrics.span == 5.0

    def test_parallel_for_scalar_requires_count(self):
        with pytest.raises(ValueError):
            SimRuntime().parallel_for(2.0)  # lint: disable=R002,R005

    def test_parallel_update_contention(self):
        rt = SimRuntime()
        counts = np.array([3, 1, 1])
        rt.parallel_update(0.0, counts, count=5)  # lint: disable=R002
        model = rt.model
        assert rt.metrics.work == 5 * model.atomic_op
        assert rt.metrics.span == 3 * model.contended_atomic_op
        assert rt.metrics.max_contention == 3
        assert rt.metrics.atomics == 5

    def test_sequential_charge(self):
        rt = SimRuntime()
        rt.sequential(7.0)  # lint: disable=R002,R005
        assert rt.metrics.work == 7.0
        assert rt.metrics.barriers == 0

    def test_sequential_zero_is_noop(self):
        rt = SimRuntime()
        rt.sequential(0.0)  # lint: disable=R002
        assert len(rt.metrics.steps) == 0

    def test_imbalanced_step(self):
        rt = SimRuntime()
        rt.imbalanced_step([10.0, 90.0, 20.0])  # lint: disable=R002,R005
        assert rt.metrics.work == 120.0
        assert rt.metrics.span == 90.0

    def test_barrier_only(self):
        rt = SimRuntime()
        rt.barrier_only(3)  # lint: disable=R002
        assert rt.metrics.barriers == 3
        assert rt.metrics.work == 0.0

    def test_round_counters(self):
        rt = SimRuntime()
        rt.begin_round()
        rt.begin_subround(10)
        rt.begin_subround(25)
        assert rt.metrics.rounds == 1
        assert rt.metrics.subrounds == 2
        assert rt.metrics.peak_frontier == 25


#: One step: (parallel_update?, task costs, contention counts, barriers,
#: frontier of a subround opened before it or None).  Dyadic costs keep
#: every sum exact in any order, as the pinned cost model does.
STEP = st.tuples(
    st.booleans(),
    st.lists(st.integers(0, 64).map(lambda x: x / 4), min_size=1,
             max_size=5),
    st.lists(st.integers(1, 9), max_size=5),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 50)),
)


def _observed_runtime(**kwargs):
    from repro.obs import MetricsRegistry
    from repro.trace import Tracer

    runtime = SimRuntime(
        registry=MetricsRegistry("block", tracer=Tracer()), **kwargs
    )
    runtime.begin_round(3)
    runtime.parallel_for(DEFAULT_COST_MODEL.scan_op, count=3, tag="pre")
    return runtime


def _block(steps, model=DEFAULT_COST_MODEL) -> StepBlock:
    """The steps priced the way parallel_for / parallel_update price them."""
    kind, work, span, barriers, atomics, contention, frontier = (
        [], [], [], [], [], [], []
    )
    for update, costs, counts, step_barriers, opened in steps:
        counts = counts if update else []
        kind.append("parallel_update" if update else "parallel_for")
        work.append(
            float(np.asarray(costs).sum()) + sum(counts) * model.atomic_op
        )
        span.append(
            max(costs) + max(counts, default=0) * model.contended_atomic_op
        )
        barriers.append(step_barriers)
        atomics.append(sum(counts))
        contention.append(max(counts, default=0))
        frontier.append(-1 if opened is None else opened)
    return StepBlock(kind, work, span, barriers, atomics, contention,
                     frontier)


def _everything(runtime):
    metrics = runtime.metrics
    tracer = runtime.registry.tracer
    tracer.finish()
    return (
        [(s.work, s.span, s.barriers, s.tag) for s in metrics.steps],
        metrics.to_stable_dict(),
        (metrics.subrounds, metrics.peak_frontier, metrics.atomics,
         metrics.max_contention),
        runtime.registry.to_snapshot(),
        tracer.steps,
        tracer.spans,
        tracer.counters,
    )


class TestChargeBlock:
    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(STEP, max_size=8), data=st.data())
    def test_equals_charging_step_by_step(self, steps, data):
        tags = [
            data.draw(st.sampled_from(["a", "b", "c"]), label=f"tag{i}")
            for i in range(len(steps))
        ]
        one_by_one = _observed_runtime()
        for (update, costs, counts, barriers, opened), tag in zip(
            steps, tags
        ):
            if opened is not None:
                one_by_one.begin_subround(opened)
            if update:
                one_by_one.parallel_update(
                    np.asarray(costs), np.asarray(counts, dtype=np.int64),
                    barriers=barriers, tag=tag,
                )
            else:
                one_by_one.parallel_for(
                    np.asarray(costs), barriers=barriers, tag=tag
                )
        block = _observed_runtime()
        block.charge_block(_block(steps), tags=tags)
        assert _everything(block) == _everything(one_by_one)

    def test_rejects_task_cost_recording(self):
        runtime = SimRuntime(record_task_costs=True)
        with pytest.raises(ValueError, match="record_task_costs"):
            runtime.charge_block(
                _block([(False, [1.0], [], 1, None)]), tags=["a"]
            )

    def test_rejects_a_tag_count_mismatch(self):
        with pytest.raises(ValueError, match="tags"):
            SimRuntime().charge_block(
                _block([(False, [1.0], [], 1, None)]), tags=["a", "b"]
            )


class TestAtomics:
    def test_batch_decrement(self):
        values = np.array([5, 3, 2, 9], dtype=np.int64)
        targets = np.array([0, 0, 1, 2], dtype=np.int64)
        out = batch_decrement(values, targets, k=2)
        assert list(values) == [3, 2, 1, 9]
        # vertex 1 crossed (3 -> 2 <= 2); vertex 2 was already at k.
        assert list(out.crossed) == [1]
        assert out.counts.max() == 2

    def test_batch_decrement_empty(self):
        values = np.array([5], dtype=np.int64)
        out = batch_decrement(values, np.array([], dtype=np.int64), k=0)
        assert out.crossed.size == 0
        assert values[0] == 5

    def test_crossing_fires_once_even_with_overshoot(self):
        values = np.array([4], dtype=np.int64)
        targets = np.zeros(4, dtype=np.int64)  # four decrements at once
        out = batch_decrement(values, targets, k=3)
        assert list(out.crossed) == [0]
        assert values[0] == 0

    def test_batch_increment_clamped(self):
        counters = np.array([8, 0], dtype=np.int64)
        targets = np.array([0, 0, 1], dtype=np.int64)
        counts, reached = batch_increment_clamped(counters, targets, limit=10)
        assert list(counters) == [10, 1]
        assert list(reached) == [0]
        assert counts.max() == 2

    def test_increment_no_double_fire(self):
        counters = np.array([10], dtype=np.int64)  # already at limit
        _, reached = batch_increment_clamped(
            counters, np.array([0]), limit=10
        )
        assert reached.size == 0

    def test_contention_of(self):
        counts = contention_of(np.array([7, 7, 7, 3]))
        assert sorted(counts.tolist()) == [1, 3]
        assert contention_of(np.array([], dtype=np.int64)).size == 0


class TestScheduler:
    def _metrics(self) -> RunMetrics:
        m = RunMetrics()
        for _ in range(10):
            m.record_parallel(work=10_000.0, span=5.0, barriers=1)
        return m

    def test_speedup_curve_monotone(self):
        curve = speedup_curve(self._metrics())
        speedups = [p.speedup for p in curve]
        assert speedups == sorted(speedups)
        assert curve[0].threads == 1
        assert curve[0].speedup == pytest.approx(1.0)

    def test_self_relative_speedup_above_one(self):
        assert self_relative_speedup(self._metrics(), threads=96) > 1.0

    def test_burdened_span_speedup(self):
        fast, slow = RunMetrics(), RunMetrics()
        fast.record_parallel(10.0, 1.0, 1)
        slow.record_parallel(10.0, 1.0, 10)
        assert burdened_span_speedup(slow, fast) > 1.0
