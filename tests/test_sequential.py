"""Tests for the sequential algorithms (BZ, Matula–Beck)."""

import numpy as np
import pytest

from repro.core.sequential import (
    _bz_peel,
    _bz_peel_flat,
    bz_core,
    degeneracy,
    degeneracy_order,
)
from repro.core.verify import reference_coreness
from repro.generators import (
    complete_graph,
    erdos_renyi,
    grid_2d,
    hcns,
    path_graph,
    star_graph,
    suite,
)
from repro.perf import (
    KERNELS_ENV,
    NATIVE,
    REFERENCE,
    kernel_mode,
    native_available,
)
from repro.perf.kernels import KernelScratch
from repro.runtime.cost_model import DEFAULT_COST_MODEL


def _scratch(graph):
    """A scratch in the mode a BZ run would resolve."""
    return KernelScratch(graph, kernel_mode())


class TestBZ:
    def test_agrees_with_reference(self, any_graph):
        assert np.array_equal(
            bz_core(any_graph).coreness, reference_coreness(any_graph)
        )

    def test_flat_peel_matches_reference_peel(self, any_graph):
        """The NumPy level peel: same coreness, same op count."""
        core_ref, _, ops_ref = _bz_peel(any_graph)
        core_flat, ops_flat = _bz_peel_flat(_scratch(any_graph))
        assert np.array_equal(core_ref, core_flat)
        assert ops_ref == ops_flat

    def test_flat_peel_matches_across_tiny_suite(self):
        """Coreness + full RunMetrics ledger agree on every suite family."""
        for name in suite.SUITE:
            graph = suite.load(name, tiny=True)
            core_ref, _, ops_ref = _bz_peel(graph)
            core_flat, ops_flat = _bz_peel_flat(_scratch(graph))
            assert np.array_equal(core_ref, core_flat), name
            assert ops_ref == ops_flat, name

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_bz_core_ledger_identical_across_modes(self, monkeypatch):
        graph = suite.load("LJ-S", tiny=True)
        monkeypatch.setenv(KERNELS_ENV, REFERENCE)
        ref = bz_core(graph)
        monkeypatch.setenv(KERNELS_ENV, NATIVE)
        flat = bz_core(graph)
        assert np.array_equal(ref.coreness, flat.coreness)
        assert ref.metrics.to_stable_dict(
            DEFAULT_COST_MODEL
        ) == flat.metrics.to_stable_dict(DEFAULT_COST_MODEL)

    def test_flat_peel_empty_graph(self):
        from repro.graphs.csr import CSRGraph

        graph = CSRGraph(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        coreness, ops = _bz_peel_flat(_scratch(graph))
        assert coreness.size == 0
        assert ops == 0

    def test_work_is_linear(self):
        g = erdos_renyi(1000, 8.0, seed=1)
        result = bz_core(g)
        # O(n + m) with a small constant.
        assert result.metrics.work <= 4 * (g.n + g.m)

    def test_time_on_one_thread_equals_work(self, small_er):
        result = bz_core(small_er)
        assert result.time_on(1) == result.metrics.work

    def test_algorithm_label(self, triangle):
        assert bz_core(triangle).algorithm == "bz"


class TestDegeneracyOrder:
    def test_order_is_permutation(self, small_er):
        order, _ = degeneracy_order(small_er)
        assert sorted(order.tolist()) == list(range(small_er.n))

    def test_smallest_last_property(self, medium_er):
        """Each vertex has at most kappa(v) neighbors later in the order."""
        order, coreness = degeneracy_order(medium_er)
        position = np.empty(medium_er.n, dtype=np.int64)
        position[order] = np.arange(medium_er.n)
        for v in range(medium_er.n):
            later = sum(
                1
                for u in medium_er.neighbors(v)
                if position[u] > position[v]
            )
            assert later <= coreness.max()

    def test_degeneracy_bound_property(self, medium_er):
        """The degeneracy ordering certifies the degeneracy value."""
        order, coreness = degeneracy_order(medium_er)
        degeneracy_value = int(coreness.max())
        position = np.empty(medium_er.n, dtype=np.int64)
        position[order] = np.arange(medium_er.n)
        worst = 0
        for v in range(medium_er.n):
            later = sum(
                1
                for u in medium_er.neighbors(v)
                if position[u] > position[v]
            )
            worst = max(worst, later)
        assert worst == degeneracy_value

    def test_degeneracy_known_values(self):
        assert degeneracy(complete_graph(7)) == 6
        assert degeneracy(star_graph(10)) == 1
        assert degeneracy(path_graph(10)) == 1
        assert degeneracy(grid_2d(6, 6)) == 2
        assert degeneracy(hcns(9)) == 9

    def test_degeneracy_empty_graph(self):
        from repro.generators import empty_graph

        assert degeneracy(empty_graph(0)) == 0
        assert degeneracy(empty_graph(4)) == 0
