"""The harness's ddmin shrinker and its one reproducer format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sequential import bz_core
from repro.generators import complete_graph, erdos_renyi, path_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.transform import disjoint_union
from repro.regress import (
    Case,
    Divergence,
    ddmin,
    load_reproducer,
    write_reproducer,
)
from repro.regress.harness import check, shrink


def _has_triangle(graph: CSRGraph) -> bool:
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        marks = set(nbrs.tolist())
        for u in nbrs:
            if u > v:
                if any(w in marks for w in graph.neighbors(u) if w > u):
                    return True
    return False


def _triangle_fault(graph: CSRGraph, model):
    """Seeded fault: coreness off by one on any graph with a triangle."""
    result = bz_core(graph, model)
    if _has_triangle(graph):
        result.coreness = result.coreness + 1
    return result


def _shrunk(graph: CSRGraph) -> Case:
    case = Case("engines", graph.name or "witness", "tri", graph)
    divergence = check(case, _triangle_fault)
    assert divergence is not None
    return shrink(case, _triangle_fault, divergence)


class TestMinimizeGraph:
    def test_shrinks_to_the_triangle(self):
        # One triangle buried in 60 vertices of chaff.
        graph = disjoint_union(complete_graph(3), path_graph(60))
        assert _has_triangle(graph)
        small = _shrunk(graph).graph
        assert small.n == 3
        assert _has_triangle(small)

    def test_requires_initially_failing(self):
        with pytest.raises(ValueError, match="initially failing"):
            ddmin(list(range(10)), lambda kept: False)

    def test_result_always_fails(self):
        graph = erdos_renyi(120, 8.0, seed=5)
        assert _has_triangle(graph)
        small = _shrunk(graph).graph
        assert _has_triangle(small)
        assert small.n <= graph.n

    def test_budget_caps_predicate_calls(self):
        calls = []
        graph = erdos_renyi(150, 8.0, seed=6)

        def counting(kept: list) -> bool:
            calls.append(len(kept))
            return _has_triangle(graph.induced_subgraph(np.asarray(kept)))

        ddmin(list(range(graph.n)), counting, budget=25)
        assert len(calls) <= 25

    def test_names_the_reproducer(self):
        graph = disjoint_union(complete_graph(3), path_graph(5))
        graph.name = "witness"
        assert _shrunk(graph).graph.name == "witness/reproducer"
        assert graph.name == "witness"  # the input graph is untouched


class TestReproducerDump:
    def test_round_trip(self, tmp_path):
        graph = erdos_renyi(40, 4.0, seed=9)
        graph.name = "er-40"
        expected = np.arange(graph.n, dtype=np.int64)
        got = expected + 1
        path = write_reproducer(
            Case("shard", "er-40", "fake", graph, workers=3),
            "reference",
            Divergence("coreness", "off", expected.tolist(), got.tolist()),
            tmp_path / "repro.json",
        )
        case, payload = load_reproducer(path)
        assert case.graph.n == graph.n
        assert case.graph.m == graph.m
        assert np.array_equal(case.graph.degrees, graph.degrees)
        assert (case.subject, case.label, case.runner, case.workers) == (
            "shard", "er-40", "fake", 3,
        )
        assert payload["kernels"] == "reference"
        assert payload["expected"] == expected.tolist()
        assert payload["got"] == got.tolist()

    def test_dump_without_arrays(self, tmp_path):
        path = write_reproducer(
            Case("engines", "P5", "fake", path_graph(5)),
            "native",
            Divergence("raised", "ValueError: boom", got="ValueError"),
            tmp_path / "bare.json",
        )
        case, payload = load_reproducer(path)
        assert case.graph.n == 5
        assert payload["expected"] is None
        assert payload["workers"] is None and payload["updates"] == []

    def test_creates_parent_dirs(self, tmp_path):
        path = write_reproducer(
            Case("engines", "P4", "fake", path_graph(4)),
            "native",
            Divergence("coreness", "off"),
            tmp_path / "deep" / "nested" / "r.json",
        )
        assert path.exists()
