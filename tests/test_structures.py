"""Tests for the concurrent structures: hash bag, buckets."""

import numpy as np
import pytest

from repro.core.verify import reference_coreness
from repro.generators import complete_graph, erdos_renyi, grid_2d, hcns
from repro.graphs.csr import CSRGraph
from repro.runtime.simulator import SimRuntime
from repro.structures import (
    AdaptiveHBS,
    FixedBuckets,
    HashBag,
    HierarchicalBuckets,
    NullBuckets,
    SingleBucket,
    bucket_index,
    bucket_indices,
)
from repro.structures.hbs import SINGLE_KEY_BUCKETS, interval_layout


class TestHashBag:
    def test_insert_extract_multiset(self):
        bag = HashBag(100)
        for v in [5, 3, 5, 7]:
            bag.insert(v)
        out = sorted(bag.extract_all().tolist())
        assert out == [3, 5, 5, 7]

    def test_extract_resets(self):
        bag = HashBag(10)
        bag.insert(1)
        bag.extract_all()
        assert len(bag) == 0
        assert bag.extract_all().size == 0

    def test_reusable_after_extract(self):
        bag = HashBag(10)
        bag.insert(1)
        bag.extract_all()
        bag.insert(2)
        assert list(bag.extract_all()) == [2]

    def test_chunk_growth(self):
        bag = HashBag(10, lam=4)
        for v in range(50):  # overflow the initial capacity estimate
            bag.insert(v)
        assert sorted(bag.extract_all().tolist()) == list(range(50))

    def test_insert_many(self):
        bag = HashBag(1000)
        bag.insert_many(np.arange(300, dtype=np.int64))
        assert len(bag) == 300
        assert sorted(bag.extract_all().tolist()) == list(range(300))

    def test_used_prefix_smaller_than_capacity(self):
        bag = HashBag(100_000)
        bag.insert(1)
        # Extraction scans only the first chunk, not the full geometry...
        assert bag.used_prefix < bag._bounds[-1]
        # ...and allocation is lazy: only the used prefix is backed.
        assert bag._slots.size == bag.used_prefix

    def test_lazy_allocation_grows_with_chunks(self):
        bag = HashBag(10_000, lam=16)
        bag.insert_many(np.arange(2_000))
        assert bag._slots.size >= bag.used_prefix
        assert sorted(bag.extract_all()) == list(range(2_000))
        # Reset after extraction keeps the grown backing store usable.
        bag.insert_many(np.arange(50))
        assert sorted(bag.extract_all()) == list(range(50))

    def test_peek_does_not_remove(self):
        bag = HashBag(10)
        bag.insert(4)
        assert list(bag.peek_all()) == [4]
        assert len(bag) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HashBag(10).insert(-1)
        with pytest.raises(ValueError):
            HashBag(-1)
        with pytest.raises(ValueError):
            HashBag(10, lam=0)

    def test_runtime_charges(self):
        rt = SimRuntime()
        bag = HashBag(100, runtime=rt)
        bag.insert_many(np.arange(10, dtype=np.int64))
        bag.extract_all()
        assert rt.metrics.work > 0


class TestIntervalLayout:
    def test_layout_starts_with_singles(self):
        layout = interval_layout(0, 100)
        assert layout[:SINGLE_KEY_BUCKETS] == [(i, i) for i in range(8)]

    def test_layout_doubles(self):
        layout = interval_layout(0, 100)
        assert layout[8] == (8, 15)
        assert layout[9] == (16, 31)
        assert layout[10] == (32, 63)

    def test_layout_covers_max_key(self):
        for max_key in (0, 7, 8, 100, 12345):
            layout = interval_layout(0, max_key)
            assert layout[-1][1] >= max_key

    def test_layout_contiguous(self):
        layout = interval_layout(5, 500)
        for (a_lo, a_hi), (b_lo, _) in zip(layout, layout[1:]):
            assert b_lo == a_hi + 1

    def test_bucket_index_scalar(self):
        assert bucket_index(3, 0) == 3
        assert bucket_index(8, 0) == 8
        assert bucket_index(15, 0) == 8
        assert bucket_index(16, 0) == 9
        assert bucket_index(31, 0) == 9
        assert bucket_index(32, 0) == 10

    def test_bucket_index_relative_base(self):
        assert bucket_index(12, 10) == 2
        assert bucket_index(30, 10) == 9  # offset 20 -> [16, 32)

    def test_bucket_index_below_base_raises(self):
        with pytest.raises(ValueError):
            bucket_index(3, 5)

    def test_bucket_indices_matches_scalar(self, rng):
        keys = rng.integers(0, 10_000, size=300)
        base = 0
        vector = bucket_indices(keys, base)
        for key, got in zip(keys, vector):
            assert got == bucket_index(int(key), base)


def _drive(structure, graph: CSRGraph) -> np.ndarray:
    """Drive a full decomposition through a bucket structure directly.

    Uses a minimal offline-style peel so the structure's next_round /
    on_decrements contract is exercised in isolation from the main
    framework code.
    """
    runtime = SimRuntime()
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    structure.build(graph, dtilde, peeled, runtime)
    while True:
        step = structure.next_round()
        if step is None:
            break
        k, frontier = step
        while frontier.size:
            coreness[frontier] = k
            peeled[frontier] = True
            targets = graph.gather_neighbors(frontier)
            touched, counts = np.unique(targets, return_counts=True)
            old = dtilde[touched]
            dtilde[touched] = old - counts
            new = dtilde[touched]
            frontier = touched[(old > k) & (new <= k) & (~peeled[touched])]
            survivors = (new > k) & (~peeled[touched])
            structure.on_decrements(touched[survivors], old[survivors])
        structure.round_finished(k)
    return coreness


@pytest.mark.parametrize(
    "factory",
    [SingleBucket, lambda: FixedBuckets(16), lambda: FixedBuckets(4),
     HierarchicalBuckets, AdaptiveHBS],
    ids=["single", "fixed16", "fixed4", "hbs", "adaptive"],
)
class TestBucketStructures:
    def test_er_graph(self, factory):
        g = erdos_renyi(300, 8.0, seed=3)
        assert np.array_equal(_drive(factory(), g), reference_coreness(g))

    def test_grid(self, factory):
        g = grid_2d(15, 15)
        assert np.array_equal(_drive(factory(), g), reference_coreness(g))

    def test_hcns(self, factory):
        g = hcns(40)
        assert np.array_equal(_drive(factory(), g), reference_coreness(g))

    def test_clique(self, factory):
        g = complete_graph(30)
        assert np.array_equal(_drive(factory(), g), reference_coreness(g))

    def test_empty_graph(self, factory):
        g = CSRGraph.from_edges(0, [])
        assert _drive(factory(), g).size == 0

    def test_isolated_vertices(self, factory):
        g = CSRGraph.from_edges(5, [(0, 1)])
        kappa = _drive(factory(), g)
        assert np.array_equal(kappa, reference_coreness(g))


class TestFixedBucketsSpecifics:
    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            FixedBuckets(0)

    def test_name(self):
        assert FixedBuckets(16).name == "16-bucket"

    def test_window_jump_over_gap(self):
        # All degrees are 29 (K30): the window must jump straight there.
        g = complete_graph(30)
        structure = FixedBuckets(16)
        runtime = SimRuntime()
        dtilde = g.degrees.astype(np.int64).copy()
        peeled = np.zeros(g.n, dtype=bool)
        structure.build(g, dtilde, peeled, runtime)
        k, frontier = structure.next_round()
        assert k == 29
        assert frontier.size == 30


class TestAdaptiveSpecifics:
    def test_dense_graph_uses_hbs_immediately(self):
        g = complete_graph(40)  # average degree 39 > theta
        structure = AdaptiveHBS()
        runtime = SimRuntime()
        structure.build(
            g,
            g.degrees.astype(np.int64).copy(),
            np.zeros(g.n, dtype=bool),
            runtime,
        )
        assert structure._use_hbs

    def test_sparse_graph_starts_plain(self):
        g = grid_2d(10, 10)
        structure = AdaptiveHBS()
        runtime = SimRuntime()
        structure.build(
            g,
            g.degrees.astype(np.int64).copy(),
            np.zeros(g.n, dtype=bool),
            runtime,
        )
        assert not structure._use_hbs


class TestNullBuckets:
    def test_next_round_not_implemented(self):
        structure = NullBuckets()
        structure.build(
            CSRGraph.from_edges(2, [(0, 1)]),
            np.array([1, 1], dtype=np.int64),
            np.zeros(2, dtype=bool),
            SimRuntime(),
        )
        with pytest.raises(NotImplementedError):
            structure.next_round()


class TestFixedBucketsWindows:
    """Window mechanics of the Julienne-style fixed buckets."""

    def _build(self, keys):
        g = CSRGraph.from_edges(len(keys), [])
        structure = FixedBuckets(4)
        runtime = SimRuntime()
        dtilde = np.asarray(keys, dtype=np.int64).copy()
        peeled = np.zeros(len(keys), dtype=bool)
        structure.build(g, dtilde, peeled, runtime)
        return structure, dtilde, peeled

    def test_keys_served_in_order(self):
        structure, dtilde, peeled = self._build([5, 1, 9, 1, 5])
        served = []
        while True:
            step = structure.next_round()
            if step is None:
                break
            k, frontier = step
            served.append((k, sorted(frontier.tolist())))
            peeled[frontier] = True
        assert served == [(1, [1, 3]), (5, [0, 4]), (9, [2])]

    def test_window_spans_multiple_rebuilds(self):
        keys = list(range(0, 40, 3))  # 0, 3, 6, ..., 39: many windows
        structure, dtilde, peeled = self._build(keys)
        seen = []
        while True:
            step = structure.next_round()
            if step is None:
                break
            k, frontier = step
            seen.append(k)
            peeled[frontier] = True
        assert seen == keys

    def test_decrease_key_moves_into_window(self):
        structure, dtilde, peeled = self._build([0, 10, 10])
        k, frontier = structure.next_round()
        assert k == 0
        peeled[frontier] = True
        # Vertex 1's key drops into a future window position.
        old = dtilde[[1]].copy()
        dtilde[1] = 2
        structure.on_decrements(np.array([1]), old)
        k, frontier = structure.next_round()
        assert k == 2
        assert list(frontier) == [1]
        peeled[frontier] = True


class TestHBSRegressions:
    def test_hcns_like_key_cascade(self):
        """Regression: keys cascading down through range intervals must
        not be lost or served out of order (the bug the interval design
        fixed — see docs/ALGORITHMS.md)."""
        g = hcns(48)
        structure = HierarchicalBuckets()
        runtime = SimRuntime()
        dtilde = g.degrees.astype(np.int64).copy()
        peeled = np.zeros(g.n, dtype=bool)
        structure.build(g, dtilde, peeled, runtime)
        coreness = _drive_with_prebuilt(structure, g, dtilde, peeled)
        assert np.array_equal(coreness, reference_coreness(g))

    def test_served_keys_non_decreasing(self):
        g = erdos_renyi(250, 12.0, seed=8)
        structure = HierarchicalBuckets()
        runtime = SimRuntime()
        dtilde = g.degrees.astype(np.int64).copy()
        peeled = np.zeros(g.n, dtype=bool)
        structure.build(g, dtilde, peeled, runtime)
        ks = []
        while True:
            step = structure.next_round()
            if step is None:
                break
            k, frontier = step
            ks.append(k)
            # Peel the frontier with batch decrements so keys change.
            coreness_scratch = np.zeros(g.n, dtype=np.int64)
            peeled[frontier] = True
            targets = g.gather_neighbors(frontier)
            if targets.size:
                touched, counts = np.unique(targets, return_counts=True)
                old = dtilde[touched]
                dtilde[touched] = old - counts
                survivors = (dtilde[touched] > k) & (~peeled[touched])
                structure.on_decrements(
                    touched[survivors], old[survivors]
                )
                crossed = touched[
                    (old > k) & (dtilde[touched] <= k) & (~peeled[touched])
                ]
                peeled[crossed] = True
        assert ks == sorted(ks)


def _drive_with_prebuilt(structure, graph, dtilde, peeled):
    """Like _drive but reusing an already-built structure."""
    coreness = np.zeros(graph.n, dtype=np.int64)
    while True:
        step = structure.next_round()
        if step is None:
            break
        k, frontier = step
        while frontier.size:
            coreness[frontier] = k
            peeled[frontier] = True
            targets = graph.gather_neighbors(frontier)
            touched, counts = np.unique(targets, return_counts=True)
            old = dtilde[touched]
            dtilde[touched] = old - counts
            new = dtilde[touched]
            frontier = touched[(old > k) & (new <= k) & (~peeled[touched])]
            survivors = (new > k) & (~peeled[touched])
            structure.on_decrements(touched[survivors], old[survivors])
        structure.round_finished(k)
    return coreness


class TestHashBagCosts:
    def test_extraction_cost_proportional_to_prefix(self):
        """BagExtractAll is O(lambda + t), not O(capacity)."""
        rt = SimRuntime()
        bag = HashBag(1_000_000, runtime=rt)
        bag.insert(7)
        before = rt.metrics.work
        bag.extract_all()
        extract_work = rt.metrics.work - before
        # One element: the scan covers only the first chunk (lambda),
        # orders of magnitude below the million-slot capacity.
        assert extract_work <= 4 * 256
        assert extract_work < 1_000_000 * 0.01

    def test_extraction_cost_grows_with_contents(self):
        costs = []
        for t in (10, 1000, 20_000):
            rt = SimRuntime()
            bag = HashBag(100_000, runtime=rt)
            bag.insert_many(np.arange(t, dtype=np.int64))
            before = rt.metrics.work
            bag.extract_all()
            costs.append(rt.metrics.work - before)
        assert costs[0] < costs[1] < costs[2]
