"""Tests for the sampling scheme (Alg. 4/5) including failure injection."""

import math

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig, decompose
from repro.core.sampling import (
    SamplingConfig,
    SamplingState,
    default_mu,
)
from repro.core.verify import reference_coreness
from repro.errors import SamplingRestartError
from repro.generators import complete_graph, power_law_with_hub, star_graph
from repro.perf import (
    KERNELS_ENV,
    NATIVE,
    REFERENCE,
    kernel_mode,
    native_available,
)
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime

#: Kernel modes the recount runs under (native where a compiler builds it).
KERNEL_MODES = [REFERENCE] + ([NATIVE] if native_available() else [])


def _make_state(graph, config=None, k=0):
    runtime = SimRuntime()
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(graph.n, dtype=bool)
    coreness = np.zeros(graph.n, dtype=np.int64)
    scratch = KernelScratch(graph, kernel_mode())
    state = SamplingState(
        graph, dtilde, peeled, runtime, scratch, config=config
    )
    state.attach_coreness(coreness)
    return state


class TestDefaults:
    def test_default_mu_formula(self):
        n = 10_000
        assert default_mu(n) == math.ceil(4 * 3 * math.log(n))

    def test_default_mu_floor(self):
        assert default_mu(1) >= 8

    def test_resolve_mu_override(self):
        config = SamplingConfig(mu=50)
        assert config.resolve_mu(10**6) == 50

    def test_threshold_keeps_rates_below_one(self, hub_graph):
        state = _make_state(hub_graph)
        assert state.threshold >= state.mu / (1 - state.r)


class TestSetSampler:
    def test_only_high_degree_enters_sample_mode(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        assert sampled.size > 0
        assert np.all(state.dtilde[sampled] > state.threshold)

    def test_rates_in_unit_interval(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = state.mode
        assert np.all(state.rate[sampled] > 0)
        assert np.all(state.rate[sampled] <= 1.0)

    def test_headroom_condition(self, hub_graph):
        """No vertex enters sample mode when r*d <= k."""
        state = _make_state(hub_graph)
        k = int(hub_graph.max_degree * state.r) + 1
        state.set_sampler_bulk(
            np.arange(hub_graph.n, dtype=np.int64), k
        )
        assert not state.mode.any()

    def test_low_degree_graph_never_samples(self):
        state = _make_state(star_graph(100))
        state.initialize()
        assert not state.mode.any()


class TestValidate:
    def test_fresh_samplers_pass(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        assert state.validate_failures(0).size == 0

    def test_saturated_counter_fails(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        v = int(sampled[0])
        state.cnt[v] = state.mu  # as if many samples landed
        failures = state.validate_failures(0)
        assert v in failures

    def test_headroom_failure(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        v = int(sampled[0])
        k = int(state.dtilde[v] * state.r) + 1  # r * d <= k now
        failures = state.validate_failures(k)
        assert v in failures


class TestResample:
    def test_recount_is_exact(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        # Peel some neighbors behind the sampler's back.
        victim = int(sampled[0])
        neighbors = hub_graph.neighbors(victim)
        state.peeled[neighbors[:10]] = True
        state.resample_bulk(np.array([victim]), k=0)
        expected = int((~state.peeled[neighbors]).sum())
        assert state.dtilde[victim] == expected

    def test_low_vertices_returned(self):
        g = complete_graph(300)  # degree 299 everywhere
        state = _make_state(g, config=SamplingConfig(threshold=128))
        state.initialize()
        v = 0
        assert state.mode[v]
        # Remove enough neighbors that v's exact degree drops below k;
        # they were peeled in the *current* round (coreness == k), which
        # is the legitimate case (no Las-Vegas error).
        state.peeled[1:250] = True
        state._coreness_view[1:250] = 60
        low = state.resample_bulk(np.array([v]), k=60)
        assert v in low

    def test_resample_skips_unsampled(self, hub_graph):
        state = _make_state(hub_graph)
        low = state.resample_bulk(np.array([0]), k=0)  # not in sample mode
        assert low.size == 0

    def test_draw_and_apply_hits(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        v = int(sampled[0])
        targets = np.full(2000, v, dtype=np.int64)
        hits = state.draw_hits(targets)
        # Binomial concentration: rate * 2000 >> mu, far from zero.
        assert hits.size > 0
        saturated = state.apply_hits(hits)
        if state.cnt[v] >= state.mu:
            assert v in saturated

    def test_exit_sample_mode(self, hub_graph):
        state = _make_state(hub_graph)
        state.initialize()
        sampled = np.nonzero(state.mode)[0]
        state.exit_sample_mode(sampled)
        assert not state.mode.any()


class TestLasVegasRecovery:
    def test_error_detection_raises(self, monkeypatch):
        """A vertex whose degree silently dropped below k must be caught."""
        for mode in KERNEL_MODES:
            monkeypatch.setenv(KERNELS_ENV, mode)
            g = complete_graph(300)
            state = _make_state(g, config=SamplingConfig(threshold=128))
            state.initialize()
            v = 0
            # Simulate: neighbors peeled in EARLIER rounds (coreness < k).
            state.peeled[1:290] = True
            # coreness stays 0 (they were peeled at low k), so at k=60 the
            # retrospective check must flag an error.
            with pytest.raises(SamplingRestartError):
                state.resample_bulk(np.array([v]), k=60)

    def test_framework_restarts_and_stays_exact(self, hub_graph):
        """Injected validation blindness forces the restart path."""
        config = FrameworkConfig(
            peel="online",
            buckets="1",
            sampling=True,
            # A tiny, over-confident mu makes estimates unreliable.
            sampling_config=SamplingConfig(mu=2, threshold=16, seed=1),
        )
        result = decompose(hub_graph, config)
        assert np.array_equal(
            result.coreness, reference_coreness(hub_graph)
        )

    def test_skip_validation_injection_recovers(self, hub_graph):
        """With validation disabled, errors surface at resample time and
        the driver restarts; the final answer is still exact."""
        from repro.core import framework as fw

        original = SamplingState.validate_failures

        def blind(self, k):
            self._skip_validation = True
            return original(self, k)

        SamplingState.validate_failures = blind
        try:
            config = FrameworkConfig(
                peel="online",
                buckets="1",
                sampling=True,
                sampling_config=SamplingConfig(mu=4, threshold=16, seed=2),
            )
            result = decompose(hub_graph, config)
        finally:
            SamplingState.validate_failures = original
        assert np.array_equal(
            result.coreness, reference_coreness(hub_graph)
        )


class TestSamplingInDecomposition:
    def test_sampling_triggers_on_hub_graph(self, hub_graph):
        config = FrameworkConfig(peel="online", buckets="1", sampling=True)
        result = decompose(hub_graph, config)
        assert result.metrics.sampled_vertices > 0

    def test_contention_reduced_vs_plain(self, hub_graph):
        plain = decompose(
            hub_graph, FrameworkConfig(peel="online", buckets="1")
        )
        sampled = decompose(
            hub_graph,
            FrameworkConfig(peel="online", buckets="1", sampling=True),
        )
        assert (
            sampled.metrics.max_contention
            <= plain.metrics.max_contention
        )

    def test_exactness_across_seeds(self, hub_graph):
        ref = reference_coreness(hub_graph)
        for seed in range(5):
            config = FrameworkConfig(
                peel="online",
                buckets="1",
                sampling=True,
                sampling_config=SamplingConfig(seed=seed),
            )
            assert np.array_equal(
                decompose(hub_graph, config).coreness, ref
            ), f"seed {seed}"


class TestRestartEscalation:
    def test_persistent_failures_fall_back_to_exact_mode(
        self, hub_graph, monkeypatch
    ):
        """After MAX_RESTARTS sampling failures, decompose() must switch
        sampling off and still return the exact answer."""
        from repro.core import framework as fw
        from repro.errors import SamplingRestartError

        original_run_once = fw._run_once
        calls = {"sampled": 0, "exact": 0}

        def flaky(graph, config, model, mu_boost, mode, registry=None):
            if config.sampling:
                calls["sampled"] += 1
                raise SamplingRestartError("injected persistent failure")
            calls["exact"] += 1
            return original_run_once(
                graph, config, model, mu_boost, mode, registry
            )

        monkeypatch.setattr(fw, "_run_once", flaky)
        config = FrameworkConfig(
            peel="online", buckets="1", sampling=True
        )
        result = fw.decompose(hub_graph, config)
        assert calls["sampled"] == fw.MAX_RESTARTS + 1
        assert calls["exact"] == 1
        assert result.metrics.restarts == fw.MAX_RESTARTS + 1
        assert np.array_equal(
            result.coreness, reference_coreness(hub_graph)
        )


class TestSampledSet:
    """``sampled()`` is ``np.nonzero(mode)[0]`` without the O(n) scan."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_install_resample_exit_sequences(self, seed):
        rng = np.random.default_rng(seed)
        graph = power_law_with_hub(
            400, 6, hub_count=6, hub_degree=150, seed=seed
        )
        state = _make_state(graph, SamplingConfig(mu=4, threshold=8))
        state.initialize()
        for _ in range(60):
            op = int(rng.integers(0, 4))
            k = int(rng.integers(0, 4))
            vertices = rng.integers(0, graph.n, size=int(rng.integers(1, 40)))
            if op == 0:
                # Re-install on an arbitrary batch: new vertices too.
                state.set_sampler_bulk(vertices, k)
            elif op == 1:
                live = vertices[~state.peeled[vertices]]
                state.resample_bulk(live, k)
            elif op == 2:
                state.peeled[vertices] = True
                state.exit_sample_mode(vertices)
            else:
                state.validate_failures(k)
            assert np.array_equal(
                state.sampled(), np.nonzero(state.mode)[0]
            )
        assert state.active() == bool(state.mode.any())

    def test_never_sampled_graph_is_inactive(self):
        state = _make_state(complete_graph(6))
        state.initialize()
        assert not state.active()
        assert state.sampled().size == 0

    def test_framework_and_subgraph_paths(self, monkeypatch):
        from repro.core.subgraph import max_kcore_subgraph

        calls = []
        original = SamplingState.sampled

        def checked(self):
            out = original(self)
            assert np.array_equal(out, np.nonzero(self.mode)[0])
            calls.append(out.size)
            return out

        monkeypatch.setattr(SamplingState, "sampled", checked)
        graph = power_law_with_hub(500, 5, hub_count=4, hub_degree=200)
        eager = SamplingConfig(mu=4, threshold=8)
        result = decompose(
            graph,
            FrameworkConfig(vgc=True, sampling=True, sampling_config=eager),
        )
        assert np.array_equal(result.coreness, reference_coreness(graph))
        before = len(calls)
        max_kcore_subgraph(graph, 4, sampling_config=eager)
        assert len(calls) > before
        assert any(calls)
