"""Tests for the H-index locality algorithm."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.locality import h_index, hindex_coreness
from repro.core.verify import reference_coreness
from repro.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi,
    grid_2d,
    hcns,
    path_graph,
    star_graph,
)


class TestHIndex:
    def test_known_values(self):
        assert h_index(np.array([3, 0, 6, 1, 5])) == 3
        assert h_index(np.array([10, 8, 5, 4, 3])) == 4
        assert h_index(np.array([1, 1, 1])) == 1
        assert h_index(np.array([0, 0])) == 0
        assert h_index(np.array([], dtype=np.int64)) == 0

    def test_uniform(self):
        assert h_index(np.full(7, 7)) == 7
        assert h_index(np.full(7, 100)) == 7

    def test_single(self):
        assert h_index(np.array([5])) == 1
        assert h_index(np.array([0])) == 0

    def test_bounded_by_size_and_max(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            values = rng.integers(0, 20, size=rng.integers(1, 30))
            h = h_index(values)
            assert 0 <= h <= min(values.size, values.max(initial=0))
            if h:
                assert (values >= h).sum() >= h
            assert (values >= h + 1).sum() < h + 1


class TestHIndexCoreness:
    def test_agrees_with_reference(self, any_graph):
        result = hindex_coreness(any_graph)
        assert np.array_equal(
            result.coreness, reference_coreness(any_graph)
        )

    def test_er(self, medium_er):
        result = hindex_coreness(medium_er)
        assert np.array_equal(
            result.coreness, reference_coreness(medium_er)
        )

    def test_round_count_small_on_dense(self):
        result = hindex_coreness(complete_graph(30))
        # A clique converges immediately (degree == coreness).
        assert result.metrics.rounds <= 2

    def test_path_needs_rounds_proportional_to_length(self):
        # Information travels one hop per round on a path.
        short = hindex_coreness(path_graph(10)).metrics.rounds
        long = hindex_coreness(path_graph(60)).metrics.rounds
        assert long > short

    def test_round_limit_raises(self):
        with pytest.raises(RuntimeError):
            hindex_coreness(path_graph(100), max_rounds=2)

    def test_empty(self):
        result = hindex_coreness(empty_graph(4))
        assert np.all(result.coreness == 0)

    def test_estimates_decrease_monotonically(self):
        """Estimates start at the degree and never go below coreness."""
        g = erdos_renyi(200, 6.0, seed=9)
        exact = reference_coreness(g)
        result = hindex_coreness(g)
        assert np.all(result.coreness == exact)
        assert np.all(exact <= g.degrees)

    def test_algorithm_label(self, triangle):
        assert hindex_coreness(triangle).algorithm == "hindex"

    def test_hcns(self):
        g = hcns(32)
        assert np.array_equal(
            hindex_coreness(g).coreness, reference_coreness(g)
        )


def test_hindex_does_not_import_the_bench():
    """The H-index solver loads ``shard.rounds``, not the shard engine.

    A fresh interpreter, because this test process has long since
    imported everything.
    """
    script = (
        "import sys\n"
        "from repro.core.locality import hindex_coreness\n"
        "from repro.generators import grid_2d\n"
        "hindex_coreness(grid_2d(5, 5))\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.bench', 'repro.regress', 'repro.shard'))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert not [m for m in loaded if m.startswith("repro.bench")]
    assert not [m for m in loaded if m.startswith("repro.regress")]
    assert loaded == ["repro.shard", "repro.shard.rounds"]


def test_shard_exports_resolve_lazily():
    import repro.shard as shard
    from repro.shard import RoundKernels, shard_coreness

    assert set(shard.__all__) <= set(dir(shard))
    assert shard_coreness.__module__ == "repro.shard.engine"
    assert RoundKernels.__module__ == "repro.shard.rounds"
    with pytest.raises(AttributeError):
        shard.no_such_export
