"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_mesh,
    empty_graph,
    erdos_renyi,
    grid_2d,
    hcns,
    path_graph,
    power_law_with_hub,
    star_graph,
)
from repro.graphs.csr import CSRGraph


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """The native kernel loader, reset to build into an empty ``tmp_path``.

    Nothing is loaded yet, the ``auto`` fallback has not warned, and the
    process's own loaded library comes back when the test ends.
    """
    import repro.perf as perf
    from repro.perf import native

    monkeypatch.setattr(native, "_BUILD_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_available", None)
    monkeypatch.setattr(native, "_failure", None, raising=False)
    monkeypatch.setattr(perf, "_fallback_warned", False)
    return native


@pytest.fixture
def no_compiler(fresh_native, monkeypatch):
    """A host on which no C compiler builds the native kernels."""
    monkeypatch.setattr(fresh_native, "_compiler", lambda: None)
    return fresh_native


@pytest.fixture
def triangle() -> CSRGraph:
    """K3: coreness 2 everywhere."""
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], name="triangle")


@pytest.fixture
def small_er() -> CSRGraph:
    """A 200-vertex random graph with average degree ~6."""
    return erdos_renyi(200, 6.0, seed=7)


@pytest.fixture
def medium_er() -> CSRGraph:
    """A 600-vertex random graph with average degree ~10."""
    return erdos_renyi(600, 10.0, seed=11)


@pytest.fixture
def small_grid() -> CSRGraph:
    return grid_2d(12, 12)


@pytest.fixture
def small_hcns() -> CSRGraph:
    return hcns(24)


@pytest.fixture
def hub_graph() -> CSRGraph:
    """Power-law graph with explicit hubs; triggers sampling."""
    return power_law_with_hub(
        1200, 4, hub_count=2, hub_degree=500, seed=3
    )


@pytest.fixture(
    params=[
        "triangle",
        "er",
        "grid",
        "hcns",
        "star",
        "path",
        "cycle",
        "clique",
        "mesh",
        "empty",
    ]
)
def any_graph(request) -> CSRGraph:
    """A small zoo of graph shapes for cross-algorithm agreement tests."""
    builders = {
        "triangle": lambda: CSRGraph.from_edges(
            3, [(0, 1), (1, 2), (2, 0)], name="triangle"
        ),
        "er": lambda: erdos_renyi(150, 5.0, seed=5),
        "grid": lambda: grid_2d(9, 11),
        "hcns": lambda: hcns(12),
        "star": lambda: star_graph(40),
        "path": lambda: path_graph(30),
        "cycle": lambda: cycle_graph(25),
        "clique": lambda: complete_graph(15),
        "mesh": lambda: delaunay_mesh(120, seed=9),
        "empty": lambda: empty_graph(8),
    }
    return builders[request.param]()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
