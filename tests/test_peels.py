"""Direct unit tests of the peel strategies (online, offline, VGC)."""

import numpy as np
import pytest

from repro.core.peel_offline import OfflinePeel
from repro.core.peel_online import OnlinePeel
from repro.core.state import PeelState
from repro.core.vgc import VGCConfig
from repro.generators import complete_graph, path_graph, star_graph
from repro.graphs.csr import CSRGraph
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime
from repro.structures.null_buckets import NullBuckets


def make_state(graph, sampling=None):
    runtime = SimRuntime()
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(graph.n, dtype=bool)
    coreness = np.zeros(graph.n, dtype=np.int64)
    buckets = NullBuckets()
    buckets.build(graph, dtilde, peeled, runtime)
    return PeelState(
        graph=graph,
        dtilde=dtilde,
        peeled=peeled,
        coreness=coreness,
        runtime=runtime,
        buckets=buckets,
        scratch=KernelScratch(graph, kernel_mode()),
        sampling=sampling,
    )


def peel_round(peel, state, frontier, k):
    """Run subrounds until the frontier drains (one framework round)."""
    frontier = np.asarray(frontier, dtype=np.int64)
    while frontier.size:
        state.coreness[frontier] = k
        state.peeled[frontier] = True
        frontier = peel.subround(state, frontier, k)
    return state


class TestOnlineFlat:
    def test_star_leaves_peel_hub_next(self):
        g = star_graph(6)
        state = make_state(g)
        peel = OnlinePeel()
        leaves = np.arange(1, 6, dtype=np.int64)
        state.peeled[leaves] = True
        state.coreness[leaves] = 1
        nxt = peel.subround(state, leaves, 1)
        # Hub degree falls from 5 to 0, crossing at k=1 exactly once.
        assert list(nxt) == [0]

    def test_decrements_apply_to_peeled_too(self):
        """The online peel decrements blindly (as the C code does)."""
        g = complete_graph(3)
        state = make_state(g)
        peel = OnlinePeel()
        frontier = np.array([0, 1, 2], dtype=np.int64)
        state.peeled[frontier] = True
        state.coreness[frontier] = 2
        nxt = peel.subround(state, frontier, 2)
        assert nxt.size == 0
        assert np.all(state.dtilde <= 0)

    def test_contention_recorded(self):
        g = star_graph(40)
        state = make_state(g)
        peel = OnlinePeel()
        leaves = np.arange(1, 40, dtype=np.int64)
        state.peeled[leaves] = True
        state.coreness[leaves] = 1
        peel.subround(state, leaves, 1)
        # 39 concurrent decrements hit the hub.
        assert state.runtime.metrics.max_contention == 39

    def test_crossing_fires_once_per_vertex(self):
        # Two frontier vertices both adjacent to w (degree 2): w crosses
        # exactly once even though both decrements land in one batch.
        g = CSRGraph.from_edges(3, [(0, 2), (1, 2)])
        state = make_state(g)
        peel = OnlinePeel()
        frontier = np.array([0, 1], dtype=np.int64)
        state.peeled[frontier] = True
        state.coreness[frontier] = 1
        nxt = peel.subround(state, frontier, 1)
        assert list(nxt) == [2]


class TestOfflinePeel:
    def test_matches_online_result(self):
        g = path_graph(10)
        for peel in (OnlinePeel(), OfflinePeel()):
            state = make_state(g)
            frontier = np.array([0, 9], dtype=np.int64)
            peel_round(peel, state, frontier, 1)
            assert state.peeled.all(), type(peel).__name__
            assert np.all(state.coreness == 1), type(peel).__name__

    def test_no_atomics(self):
        g = star_graph(20)
        state = make_state(g)
        peel = OfflinePeel()
        leaves = np.arange(1, 20, dtype=np.int64)
        state.peeled[leaves] = True
        state.coreness[leaves] = 1
        peel.subround(state, leaves, 1)
        assert state.runtime.metrics.atomics == 0
        assert state.runtime.metrics.max_contention == 0

    def test_more_barriers_than_online(self):
        g = path_graph(30)
        barriers = {}
        for name, peel in (("on", OnlinePeel()), ("off", OfflinePeel())):
            state = make_state(g)
            peel_round(peel, state, np.array([0, 29]), 1)
            barriers[name] = state.runtime.metrics.barriers
        assert barriers["off"] > barriers["on"]

    def test_empty_frontier_neighbors(self):
        g = CSRGraph.from_edges(3, [])
        state = make_state(g)
        nxt = OfflinePeel().subround(
            state, np.array([0], dtype=np.int64), 0
        )
        assert nxt.size == 0


class TestVGCPeel:
    def test_chain_absorbed_in_one_subround(self):
        g = path_graph(50)
        state = make_state(g)
        peel = OnlinePeel(vgc=VGCConfig(queue_size=128))
        frontier = np.array([0], dtype=np.int64)
        state.peeled[frontier] = True
        state.coreness[frontier] = 1
        nxt = peel.subround(state, frontier, 1)
        # The whole chain collapses into the local search except possibly
        # the far endpoint's own cascade.
        assert state.runtime.metrics.local_search_hits >= 40
        assert nxt.size <= 1

    def test_queue_budget_respected(self):
        g = path_graph(50)
        state = make_state(g)
        peel = OnlinePeel(vgc=VGCConfig(queue_size=5))
        frontier = np.array([0], dtype=np.int64)
        state.peeled[frontier] = True
        state.coreness[frontier] = 1
        nxt = peel.subround(state, frontier, 1)
        # Only 4 extra vertices absorbed; the chain continues next round.
        assert state.runtime.metrics.local_search_hits == 4
        assert nxt.size == 1

    def test_edge_budget_caps_absorption(self):
        g = path_graph(200)
        state = make_state(g)
        peel = OnlinePeel(
            vgc=VGCConfig(queue_size=1000, edge_budget=20)
        )
        frontier = np.array([0], dtype=np.int64)
        state.peeled[frontier] = True
        state.coreness[frontier] = 1
        peel.subround(state, frontier, 1)
        assert state.runtime.metrics.local_search_hits <= 20

    def test_same_answer_as_flat(self):
        g = complete_graph(8)
        for vgc in (None, VGCConfig()):
            state = make_state(g)
            peel = OnlinePeel(vgc=vgc)
            frontier = np.arange(8, dtype=np.int64)
            peel_round(peel, state, frontier, 7)
            assert np.all(state.coreness == 7)
