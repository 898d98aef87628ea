"""Property-based tests (hypothesis) for core invariants and structures."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import FrameworkConfig, decompose
from repro.core.parallel_kcore import ParallelKCore
from repro.core.sequential import bz_core
from repro.core.subgraph import max_kcore_subgraph
from repro.core.verify import check_core_membership, reference_coreness
from repro.graphs.csr import CSRGraph
from repro.structures.hash_bag import HashBag
from repro.structures.hbs import bucket_index, interval_layout

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=60, max_m=180):
    """Random small graphs (possibly with isolated vertices)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=0,
            max_size=m,
        )
    )
    return CSRGraph.from_edges(n, edges)


class TestCorenessInvariants:
    @SLOW
    @given(graphs())
    def test_all_algorithms_agree(self, graph):
        ref = reference_coreness(graph)
        for config in (
            FrameworkConfig(peel="online", buckets="1"),
            FrameworkConfig(peel="online", buckets="hbs", vgc=True),
            FrameworkConfig(
                peel="online", buckets="adaptive", sampling=True, vgc=True
            ),
            FrameworkConfig(peel="offline", buckets="16"),
        ):
            got = decompose(graph, config).coreness
            assert np.array_equal(got, ref), config.label()
        assert np.array_equal(bz_core(graph).coreness, ref)

    @SLOW
    @given(graphs())
    def test_coreness_bounded_by_degree(self, graph):
        kappa = reference_coreness(graph)
        assert np.all(kappa <= graph.degrees)

    @SLOW
    @given(graphs())
    def test_membership_feasibility(self, graph):
        kappa = ParallelKCore().coreness(graph)
        assert check_core_membership(graph, kappa)

    @SLOW
    @given(graphs())
    def test_subgraph_consistent_with_coreness(self, graph):
        kappa = reference_coreness(graph)
        for k in (1, 2, 3):
            members = max_kcore_subgraph(graph, k).members
            assert np.array_equal(members, kappa >= k)

    @SLOW
    @given(graphs(), st.integers(0, 5))
    def test_core_monotone_in_k(self, graph, k):
        result = ParallelKCore().decompose(graph)
        inner = set(result.core_members(k + 1).tolist())
        outer = set(result.core_members(k).tolist())
        assert inner <= outer

    @SLOW
    @given(graphs())
    def test_against_networkx(self, graph):
        networkx = pytest.importorskip("networkx")
        nx_graph = networkx.Graph()
        nx_graph.add_nodes_from(range(graph.n))
        src = np.repeat(
            np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr)
        )
        nx_graph.add_edges_from(zip(src.tolist(), graph.indices.tolist()))
        expected = networkx.core_number(nx_graph)
        got = ParallelKCore().coreness(graph)
        for v in range(graph.n):
            assert got[v] == expected[v], v


class TestHashBagProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10_000), max_size=300))
    def test_behaves_like_multiset(self, values):
        bag = HashBag(max(len(values), 1))
        for v in values:
            bag.insert(v)
        assert sorted(bag.extract_all().tolist()) == sorted(values)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), max_size=100),
        st.lists(st.integers(0, 1000), max_size=100),
    )
    def test_extract_insert_cycles(self, first, second):
        bag = HashBag(max(len(first) + len(second), 1))
        bag.insert_many(np.asarray(first, dtype=np.int64))
        got_first = sorted(bag.extract_all().tolist())
        bag.insert_many(np.asarray(second, dtype=np.int64))
        got_second = sorted(bag.extract_all().tolist())
        assert got_first == sorted(first)
        assert got_second == sorted(second)


class TestHBSLayoutProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 1000))
    def test_bucket_index_consistent_with_layout(self, offset, base):
        key = base + offset
        layout = interval_layout(base, key)
        idx = bucket_index(key, base)
        assert idx < len(layout)
        lo, hi = layout[idx]
        assert lo <= key <= hi

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 100_000))
    def test_layout_partitions_range(self, base, max_key):
        layout = interval_layout(base, base + max_key)
        # Intervals tile [base, >= base+max_key] with no gaps or overlaps.
        assert layout[0][0] == base
        for (a_lo, a_hi), (b_lo, _) in zip(layout, layout[1:]):
            assert b_lo == a_hi + 1
        assert layout[-1][1] >= base + max_key

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 1000))
    def test_bucket_index_monotone_in_key(self, key, delta):
        assert bucket_index(key, 0) <= bucket_index(key + delta, 0)


class TestGraphConstructionProperties:
    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_symmetry(self, graph):
        """u in N(v) iff v in N(u)."""
        src = np.repeat(
            np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr)
        )
        forward = set(zip(src.tolist(), graph.indices.tolist()))
        backward = set(zip(graph.indices.tolist(), src.tolist()))
        assert forward == backward

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_no_self_loops_or_duplicates(self, graph):
        for v in range(graph.n):
            neigh = graph.neighbors(v).tolist()
            assert v not in neigh
            assert len(neigh) == len(set(neigh))


class TestExtensionProperties:
    @SLOW
    @given(graphs(max_n=40, max_m=100))
    def test_hindex_matches_reference(self, graph):
        from repro.core.locality import hindex_coreness

        assert np.array_equal(
            hindex_coreness(graph).coreness, reference_coreness(graph)
        )

    @SLOW
    @given(graphs(max_n=40, max_m=100), st.integers(0, 3))
    def test_truss_core_bound(self, graph, _):
        from repro.core.truss import truss_decomposition

        kappa = reference_coreness(graph)
        edges, trussness = truss_decomposition(graph)
        for (u, v), t in zip(edges, trussness):
            assert 2 <= t <= min(kappa[int(u)], kappa[int(v)]) + 1

    @SLOW
    @given(
        graphs(max_n=30, max_m=60),
        st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 29)),
            max_size=25,
        ),
    )
    def test_dynamic_matches_recompute(self, graph, updates):
        from repro.core.batch_dynamic import BatchDynamicKCore

        dyn = BatchDynamicKCore(graph)
        for i, (u, v) in enumerate(updates):
            u %= graph.n
            v %= graph.n
            if u == v:  # the engine rejects self-loops with ValueError
                continue
            if i % 2:
                dyn.insert_edge(u, v)
            else:
                dyn.delete_edge(u, v)
        assert np.array_equal(
            dyn.coreness, reference_coreness(dyn.snapshot())
        )

    @SLOW
    @given(graphs(max_n=40, max_m=120))
    def test_onion_layers_refine_rounds(self, graph):
        from repro.core.applications import onion_layers

        layers = onion_layers(graph)
        if graph.n:
            assert layers.min() >= 1
            assert layers.max() <= graph.n

    @SLOW
    @given(graphs(max_n=40, max_m=100))
    def test_hierarchy_partitions_vertices(self, graph):
        from repro.core.hierarchy import core_hierarchy

        roots = core_hierarchy(graph)
        covered = sorted(
            v for root in roots for v in root.vertices.tolist()
        )
        assert covered == list(range(graph.n))
