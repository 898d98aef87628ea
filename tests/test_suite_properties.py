"""Structural audits of the benchmark suite graphs.

Every suite entry claims to reproduce the structural property of one
Table-2 family; these tests pin those properties down so a generator
regression can't silently invalidate the benchmark shapes.
"""

import numpy as np
import pytest

from repro.core.sampling import SamplingConfig, SamplingState
from repro.core.verify import reference_coreness
from repro.generators import suite
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime


def _graph(name):
    return suite.load(name)


class TestFamilies:
    @pytest.mark.parametrize("name", suite.names(family="road"))
    def test_road_graphs_are_road_like(self, name):
        g = _graph(name)
        assert g.max_degree <= 8
        assert g.average_degree < 6
        assert reference_coreness(g).max() <= 3

    @pytest.mark.parametrize("name", suite.names(family="knn"))
    def test_knn_graphs_have_min_degree_k(self, name):
        g = _graph(name)
        # The name encodes k (CH5, GL2, GL5, GL10, COS5).
        digits = "".join(c for c in name.split("-")[0] if c.isdigit())
        k = int(digits)
        assert g.degrees.min() >= k, name

    @pytest.mark.parametrize("name", suite.names(family="social"))
    def test_social_graphs_are_dense_power_law(self, name):
        g = _graph(name)
        assert g.average_degree > 10
        assert g.max_degree > 8 * g.average_degree  # heavy tail

    @pytest.mark.parametrize("name", suite.names(family="web"))
    def test_web_graphs_are_very_skewed(self, name):
        g = _graph(name)
        assert g.max_degree > 20 * g.average_degree

    def test_grid_and_cube_uniform_coreness(self):
        assert reference_coreness(_graph("GRID")).max() == 2
        assert reference_coreness(_graph("CUBE")).max() == 3

    def test_hcns_structure(self):
        g = _graph("HCNS")
        kappa = reference_coreness(g)
        assert kappa.max() == 1024
        counts = np.bincount(kappa)
        assert np.all(counts[1:1024] == 1)  # one vertex per level

    def test_hcnsw_structure(self):
        g = _graph("HCNSW")
        kappa = reference_coreness(g)
        assert kappa.max() == 384
        counts = np.bincount(kappa)
        assert np.all(counts[1:384] == 3)  # three witnesses per level

    def test_meshes_are_planarish(self):
        for name in ("TRCE-S", "BBL-S"):
            g = _graph(name)
            assert g.num_edges <= 3 * g.n - 6


class TestSamplingTriggers:
    @pytest.mark.parametrize("name", suite.SAMPLING_TRIGGER)
    def test_trigger_graphs_have_sampleable_vertices(self, name):
        """Every listed trigger graph must actually enter sample mode."""
        g = _graph(name)
        runtime = SimRuntime()
        state = SamplingState(
            g,
            g.degrees.astype(np.int64).copy(),
            np.zeros(g.n, dtype=bool),
            runtime,
            KernelScratch(g, kernel_mode()),
            config=SamplingConfig(),
        )
        state.initialize()
        assert state.mode.any(), name

    def test_non_trigger_sparse_graphs_do_not_sample(self):
        for name in ("AF-S", "GRID", "GL5-S"):
            g = _graph(name)
            runtime = SimRuntime()
            state = SamplingState(
                g,
                g.degrees.astype(np.int64).copy(),
                np.zeros(g.n, dtype=bool),
                runtime,
                KernelScratch(g, kernel_mode()),
            )
            state.initialize()
            assert not state.mode.any(), name


class TestDeterminism:
    @pytest.mark.parametrize("name", suite.SMALL)
    def test_builders_are_deterministic(self, name):
        spec = suite.SUITE[name]
        assert spec.build() == spec.build()

    def test_all_entries_have_metadata(self):
        for spec in suite.SUITE.values():
            assert spec.family in ("social", "web", "road", "knn", "other")
            assert spec.paper_name


class TestDiskCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        from repro.generators import suite as suite_mod

        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path))
        suite_mod.load.cache_clear()
        first = suite_mod.load("GL2-S")
        assert list(tmp_path.glob("GL2-S.*.npz"))
        suite_mod.load.cache_clear()
        second = suite_mod.load("GL2-S")
        assert first == second
        assert second.name == "GL2-S"
        # Leave the process-level cache clean for other tests.
        monkeypatch.delenv("REPRO_GRAPH_CACHE")
        suite_mod.load.cache_clear()
