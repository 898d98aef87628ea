"""Single-edge maintenance through the batch engine's per-edge surface.

``BatchDynamicKCore.insert_edge`` / ``delete_edge`` are batches of one;
every check is against a full recomputation.  Self-loops raise
``ValueError`` rather than being ignored.
"""

import numpy as np
import pytest

from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.verify import reference_coreness
from repro.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
)
from repro.graphs.csr import CSRGraph


def assert_consistent(dyn: BatchDynamicKCore) -> None:
    """The maintained coreness must equal a recompute on the snapshot."""
    expected = reference_coreness(dyn.snapshot())
    assert np.array_equal(dyn.coreness, expected)


class TestBasics:
    def test_initial_coreness(self, small_er):
        dyn = BatchDynamicKCore(small_er)
        assert np.array_equal(
            dyn.coreness, reference_coreness(small_er)
        )

    def test_snapshot_round_trip(self, small_er):
        dyn = BatchDynamicKCore(small_er)
        assert dyn.snapshot() == small_er

    def test_degree_and_has_edge(self, triangle):
        dyn = BatchDynamicKCore(triangle)
        assert dyn.degree(0) == 2
        assert dyn.has_edge(0, 1)
        assert not dyn.has_edge(0, 0)

    def test_out_of_range_rejected(self, triangle):
        dyn = BatchDynamicKCore(triangle)
        with pytest.raises(IndexError):
            dyn.insert_edge(0, 5)
        with pytest.raises(IndexError):
            dyn.delete_edge(-1, 0)

    def test_idempotent_operations(self, triangle):
        dyn = BatchDynamicKCore(triangle)
        assert dyn.insert_edge(0, 1).size == 0  # already present
        with pytest.raises(ValueError, match="self-loop"):
            dyn.insert_edge(1, 1)
        assert dyn.delete_edge(0, 2).size == 3  # triangle -> path
        assert dyn.delete_edge(0, 2).size == 0  # already gone
        assert dyn.updates == 1
        assert_consistent(dyn)


class TestInsertions:
    def test_closing_a_path_into_a_cycle(self):
        dyn = BatchDynamicKCore(path_graph(6))
        risers = dyn.insert_edge(0, 5)
        # Path coreness 1 -> cycle coreness 2, every vertex rises.
        assert risers.size == 6
        assert np.all(dyn.coreness == 2)
        assert_consistent(dyn)

    def test_completing_a_triangle(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        dyn = BatchDynamicKCore(g)
        risers = dyn.insert_edge(0, 2)
        assert sorted(risers.tolist()) == [0, 1, 2]
        assert np.all(dyn.coreness == 2)

    def test_insert_into_empty(self):
        dyn = BatchDynamicKCore(empty_graph(4))
        risers = dyn.insert_edge(0, 1)
        assert sorted(risers.tolist()) == [0, 1]
        assert list(dyn.coreness) == [1, 1, 0, 0]

    def test_pendant_insert_changes_nothing_upstream(self):
        dyn = BatchDynamicKCore(complete_graph(5))
        # Add an isolated vertex's worth of structure: K5 grows a tail.
        g = dyn.snapshot()
        dyn2 = BatchDynamicKCore(
            CSRGraph.from_edges(
                6,
                [(u, v) for u in range(5) for v in range(u + 1, 5)],
            )
        )
        risers = dyn2.insert_edge(0, 5)
        assert risers.size > 0  # vertex 5 rises from 0 to 1
        assert dyn2.coreness[5] == 1
        assert np.all(dyn2.coreness[:5] == 4)
        assert_consistent(dyn2)

    def test_insertion_increases_by_at_most_one(self, medium_er):
        dyn = BatchDynamicKCore(medium_er)
        before = dyn.coreness.copy()
        rng = np.random.default_rng(1)
        for _ in range(30):
            u, v = rng.integers(0, medium_er.n, size=2)
            if u == v:
                continue
            dyn.insert_edge(int(u), int(v))
            assert np.all(dyn.coreness - before <= 1)
            before = dyn.coreness.copy()
        assert_consistent(dyn)


class TestDeletions:
    def test_breaking_a_cycle(self):
        dyn = BatchDynamicKCore(cycle_graph(6))
        dropped = dyn.delete_edge(0, 1)
        assert dropped.size == 6  # cycle -> path, all drop to 1
        assert np.all(dyn.coreness == 1)
        assert_consistent(dyn)

    def test_removing_clique_edge(self):
        dyn = BatchDynamicKCore(complete_graph(5))
        dropped = dyn.delete_edge(0, 1)
        # K5 minus one edge: endpoints drop to 3, others stay 3 (their
        # coreness also falls since the 4-core is destroyed).
        assert_consistent(dyn)
        assert dyn.coreness.max() == 3

    def test_deletion_decreases_by_at_most_one(self, medium_er):
        dyn = BatchDynamicKCore(medium_er)
        rng = np.random.default_rng(2)
        edges = [
            (u, int(x))
            for u in range(medium_er.n)
            for x in medium_er.neighbors(u)
            if u < x
        ]
        rng.shuffle(edges)
        before = dyn.coreness.copy()
        for u, v in edges[:30]:
            dyn.delete_edge(u, v)
            assert np.all(before - dyn.coreness <= 1)
            before = dyn.coreness.copy()
        assert_consistent(dyn)

    def test_grid_boundary_deletions(self):
        dyn = BatchDynamicKCore(grid_2d(5, 5))
        dyn.delete_edge(0, 1)
        dyn.delete_edge(0, 5)  # vertex 0 is now isolated
        assert dyn.coreness[0] == 0
        assert_consistent(dyn)


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_updates_stay_exact(self, seed):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(60, 4.0, seed=seed)
        dyn = BatchDynamicKCore(graph)
        for step in range(120):
            u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
            if u == v:
                continue
            if rng.random() < 0.5:
                dyn.insert_edge(u, v)
            else:
                dyn.delete_edge(u, v)
            if step % 10 == 9:
                assert_consistent(dyn)
        assert_consistent(dyn)

    def test_batch_update(self):
        graph = erdos_renyi(50, 3.0, seed=9)
        dyn = BatchDynamicKCore(graph)
        dyn.apply_batch(
            insertions=[(0, 1), (1, 2), (2, 0), (3, 4)],
            deletions=[(0, 1)] if dyn.has_edge(0, 1) else [],
        )
        assert_consistent(dyn)

    def test_insert_then_delete_is_identity(self, medium_er):
        dyn = BatchDynamicKCore(medium_er)
        before = dyn.coreness.copy()
        pairs = [(1, 400), (7, 333), (20, 21)]
        for u, v in pairs:
            if not dyn.has_edge(u, v):
                dyn.insert_edge(u, v)
                dyn.delete_edge(u, v)
        assert np.array_equal(dyn.coreness, before)

    def test_touched_counter_grows(self, small_er):
        dyn = BatchDynamicKCore(small_er)
        dyn.insert_edge(0, 1) if not dyn.has_edge(0, 1) else None
        dyn.insert_edge(0, 2) if not dyn.has_edge(0, 2) else None
        assert dyn.updates >= 1


class TestStatefulAgainstRecompute:
    """Hypothesis stateful machine: single-edge updates vs recomputation."""

    def test_state_machine(self):
        import hypothesis.strategies as st
        from hypothesis.stateful import (
            RuleBasedStateMachine,
            invariant,
            rule,
            run_state_machine_as_test,
        )
        from hypothesis import settings

        N = 24

        class DynMachine(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.dyn = BatchDynamicKCore(empty_graph(N))
                self.checks = 0

            @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
            def insert(self, u, v):
                if u != v:
                    self.dyn.insert_edge(u, v)

            @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
            def delete(self, u, v):
                if u != v:
                    self.dyn.delete_edge(u, v)

            @invariant()
            def matches_recompute(self):
                expected = reference_coreness(self.dyn.snapshot())
                assert np.array_equal(self.dyn.coreness, expected)

        run_state_machine_as_test(
            DynMachine,
            settings=settings(max_examples=25, deadline=None,
                              stateful_step_count=30),
        )
