"""Randomized model-based tests for the concurrent structures.

Each structure is driven with seeded random operation sequences and checked
against a naive reference model after every step:

* :class:`HashBag` against ``collections.Counter`` (multiset semantics),
  deliberately crossing the 75%-full chunk-advance and growth edges;
* :class:`MonotoneIntPQ` against a plain dict-of-keys reference that
  respects the monotone-floor discipline;
* the bucketing structures (:class:`SingleBucket`, :class:`FixedBuckets`,
  :class:`HierarchicalBuckets`, :class:`AdaptiveHBS`) against each other —
  a simulated peel must extract the exact same ``(k, frontier)`` sequence
  from every implementation, and reproduce the sequential coreness.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.sequential import bz_core
from repro.errors import BucketStructureError
from repro.generators import (
    erdos_renyi,
    grid_2d,
    hcns,
    power_law_with_hub,
)
from repro.graphs.csr import CSRGraph
from repro.perf import NATIVE, REFERENCE, native_available
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime
from repro.structures import (
    AdaptiveHBS,
    FixedBuckets,
    HashBag,
    HierarchicalBuckets,
    MonotoneIntPQ,
    SingleBucket,
)
from repro.structures.hash_bag import (
    CHUNK_ROOM,
    LOAD_FACTOR,
    extract_prefix,
)


class TestHashBagModel:
    """HashBag vs collections.Counter under random op sequences."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ops_match_counter(self, seed):
        rng = np.random.default_rng(seed)
        # Tiny lambda and capacity force many chunk advances and growths.
        bag = HashBag(8, lam=4)
        model: Counter[int] = Counter()
        for _ in range(300):
            op = int(rng.integers(0, 10))
            if op < 5:
                value = int(rng.integers(0, 40))
                bag.insert(value)
                model[value] += 1
            elif op < 7:
                batch = rng.integers(
                    0, 40, size=int(rng.integers(0, 12))
                ).astype(np.int64)
                bag.insert_many(batch)
                model.update(batch.tolist())
            elif op < 9:
                assert Counter(bag.peek_all().tolist()) == +model
                assert len(bag) == sum(model.values())
            else:
                assert Counter(bag.extract_all().tolist()) == +model
                model.clear()
                assert len(bag) == 0
        assert Counter(bag.extract_all().tolist()) == +model

    def test_load_factor_edge_advances_chunk(self):
        # lam=4: the chunk advances when it holds ceil(0.75 * 4) = 3
        # elements, i.e. exactly at the LOAD_FACTOR boundary.
        bag = HashBag(8, lam=4)
        threshold = int(4 * LOAD_FACTOR)
        for value in range(threshold):
            bag.insert(value)
        assert bag.used_prefix == 4  # still in the first chunk
        bag.insert(threshold)
        assert bag.used_prefix == 12  # second (doubled) chunk opened
        assert sorted(bag.extract_all().tolist()) == list(
            range(threshold + 1)
        )

    def test_growth_beyond_initial_bounds(self):
        # Overflow every pre-allocated chunk so _advance_chunk must grow.
        bag = HashBag(8, lam=4)
        initial_slots = bag._slots.size
        bag.insert_many(np.arange(200, dtype=np.int64))
        assert bag._slots.size > initial_slots
        assert sorted(bag.extract_all().tolist()) == list(range(200))

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_prefix_matches_used_prefix(self, seed):
        """``extract_prefix(t)`` is the scanned prefix, any capacity."""
        rng = np.random.default_rng(200 + seed)
        for _ in range(100):
            bag = HashBag(int(rng.integers(1, 5001)))
            inserted = 0
            for _ in range(int(rng.integers(1, 5))):
                batch = int(rng.integers(0, 2500))
                bag.insert_many(np.arange(batch, dtype=np.int64))
                inserted += batch
                assert bag.used_prefix == extract_prefix(inserted)
                if rng.random() < 0.3:
                    bag.extract_all()
                    inserted = 0

    def test_closed_form_prefix_at_chunk_boundaries(self):
        for chunks in range(1, 6):
            full = CHUNK_ROOM * (2**chunks - 1)
            for inserted in (full - 1, full, full + 1):
                bag = HashBag(1)
                bag.insert_many(np.zeros(inserted, dtype=np.int64))
                assert bag.used_prefix == extract_prefix(inserted)

    def test_extract_resets_to_smallest_chunk(self):
        bag = HashBag(8, lam=4)
        bag.insert_many(np.arange(50, dtype=np.int64))
        assert bag.used_prefix > 4
        bag.extract_all()
        assert bag.used_prefix == 4


class _RefPQ:
    """Naive dict-backed reference for MonotoneIntPQ."""

    def __init__(self) -> None:
        self.keys: dict[int, int] = {}
        self.floor = 0

    def insert(self, item: int, key: int) -> None:
        current = self.keys.get(item)
        if current is None or key < current:
            self.keys[item] = key

    def find_min_key(self) -> int | None:
        return min(self.keys.values()) if self.keys else None

    def extract_min_bucket(self) -> tuple[int, list[int]]:
        k = min(self.keys.values())
        items = sorted(i for i, v in self.keys.items() if v == k)
        for item in items:
            del self.keys[item]
        self.floor = k
        return k, items


class TestMonotoneIntPQModel:
    """MonotoneIntPQ vs the dict reference under monotone random ops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ops_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        pq = MonotoneIntPQ(capacity=32, max_key=64)
        ref = _RefPQ()
        next_item = 0
        for _ in range(250):
            op = int(rng.integers(0, 10))
            if op < 4:
                key = ref.floor + int(rng.integers(0, 40))
                pq.insert(next_item, key)
                ref.insert(next_item, key)
                next_item += 1
            elif op < 6 and ref.keys:
                # Decrease an existing item towards (but not below) the
                # floor; a non-smaller key must be a no-op on both sides.
                item = int(rng.choice(list(ref.keys)))
                key = ref.floor + int(rng.integers(0, 40))
                pq.decrease_key(item, key)
                if key < ref.keys[item]:
                    ref.keys[item] = key
            elif op < 8:
                assert pq.find_min_key() == ref.find_min_key()
                assert len(pq) == len(ref.keys)
                assert pq.is_empty() == (not ref.keys)
            elif ref.keys:
                assert pq.extract_min_bucket() == ref.extract_min_bucket()
        # Drain: extraction order must be the reference's, keys monotone.
        last = -1
        while not pq.is_empty():
            key, items = pq.extract_min_bucket()
            assert (key, items) == ref.extract_min_bucket()
            assert key >= last
            last = key
        assert not ref.keys

    def test_monotone_violation_raises(self):
        pq = MonotoneIntPQ(capacity=4)
        pq.insert(1, 10)
        pq.extract_min_bucket()  # floor is now 10
        with pytest.raises(BucketStructureError, match="monotone"):
            pq.insert(2, 5)
        pq.insert(3, 10)  # at the floor is allowed
        with pytest.raises(BucketStructureError, match="monotone"):
            pq.decrease_key(3, 9)

    def test_extract_empty_raises(self):
        with pytest.raises(BucketStructureError, match="empty"):
            MonotoneIntPQ(capacity=4).extract_min_bucket()

    def test_key_beyond_max_key_grows_layout(self):
        pq = MonotoneIntPQ(capacity=4, max_key=8)
        pq.insert(0, 500)
        pq.insert(1, 2)
        assert pq.extract_min_bucket() == (2, [1])
        assert pq.extract_min_bucket() == (500, [0])
        assert pq.is_empty()

    def test_insert_existing_item_is_decrease(self):
        pq = MonotoneIntPQ(capacity=4)
        pq.insert(7, 30)
        pq.insert(7, 12)  # smaller: updates
        pq.insert(7, 40)  # larger: no-op
        assert len(pq) == 1
        assert pq.extract_min_bucket() == (12, [7])


def _drive(structure, graph: CSRGraph, mode: str | None = None):
    """Peel ``graph`` through ``structure``, mirroring the offline peel.

    Returns the ``(k, frontier)`` subround trace and the final coreness.
    Decrements that cross the round's threshold join the running frontier
    directly (never passed to ``on_decrements``), exactly per the
    :class:`BucketStructure` contract.  ``mode`` builds the structure
    with a kernel scratch of that mode (its native twin, if it has one).
    """
    trace, coreness, _ = _drive_ledger(structure, graph, mode)
    return trace, coreness


def _drive_ledger(structure, graph: CSRGraph, mode: str | None = None):
    """:func:`_drive`, plus the structure's ledger steps.

    Every other round also re-inserts a few live vertices without old
    keys (the framework's rejected-vertex DecreaseKey).
    """
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(graph.n, dtype=bool)
    coreness = np.zeros(graph.n, dtype=np.int64)
    runtime = SimRuntime()
    scratch = KernelScratch(graph, mode) if mode is not None else None
    structure.build(graph, dtilde, peeled, runtime, scratch)
    trace = []
    while (step := structure.next_round()) is not None:
        k, frontier = step
        while frontier.size:
            frontier = np.unique(frontier)
            trace.append((k, frontier.tolist()))
            coreness[frontier] = k
            peeled[frontier] = True
            targets = graph.gather_neighbors(frontier)
            if targets.size == 0:
                break
            keys, counts = np.unique(targets, return_counts=True)
            old = dtilde[keys]
            new = old - counts
            dtilde[keys] = new
            crossed = keys[(old > k) & (new <= k)]
            survivors = (new > k) & (~peeled[keys])
            if np.any(survivors):
                structure.on_decrements(keys[survivors], old[survivors])
            frontier = crossed[~peeled[crossed]]
        structure.round_finished(k)
        if len(trace) % 2:
            live = np.flatnonzero(~peeled)[:5]
            structure.on_decrements(live[dtilde[live] > k])
    steps = [
        (step.work, step.span, step.barriers, step.tag)
        for step in runtime.metrics.steps
    ]
    return trace, coreness, steps


#: ``(factory, kernel mode)``: factories, not instances (structures are
#: stateful one-shot objects); a mode builds with a kernel scratch, so
#: the HBS flavours run their native twin under ``native``.
STRUCTURES = {
    "single": (SingleBucket, None),
    "fixed-16": (FixedBuckets, None),
    "fixed-4": (lambda: FixedBuckets(4), None),
    "hbs": (HierarchicalBuckets, None),
    "adaptive": (AdaptiveHBS, None),
    "adaptive-low-theta": (lambda: AdaptiveHBS(theta=4), None),
}
#: The native twins, each checked against its reference flavour.
NATIVE_TWINS = {
    f"{name}-native": name
    for name in ("hbs", "adaptive", "adaptive-low-theta")
} if native_available() else {}
for _twin, _name in NATIVE_TWINS.items():
    STRUCTURES[_twin] = (STRUCTURES[_name][0], NATIVE)

GRAPHS = {
    "er-150": lambda: erdos_renyi(150, 6.0, seed=3),
    "er-sparse": lambda: erdos_renyi(120, 2.0, seed=4),
    "grid-8": lambda: grid_2d(8, 8),
    "hcns-32": lambda: hcns(32),
    "hub-200": lambda: power_law_with_hub(
        200, 5, hub_count=2, hub_degree=60, seed=7
    ),
}


class _TightHBS(HierarchicalBuckets):
    """An HBS whose native buffers hold one row and no spare slot
    whenever a kernel is called."""

    def _tighten(self):
        buckets = self._native
        if buckets is not None:
            live = int(buckets.state[0])
            buckets.rows = tuple(rows[:1].copy() for rows in buckets.rows)
            buckets.slots = tuple(
                column[:live].copy() for column in buckets.slots
            )
            buckets.forget()

    def next_round(self):
        self._tighten()
        return super().next_round()

    def on_decrements(self, vertices, old_keys=None):
        self._tighten()
        super().on_decrements(vertices, old_keys)


#: Dense enough that every HBS flavour buckets from round one, moves
#: vertices between intervals and splits range buckets.
DENSE_GRAPHS = {
    "er-dense": lambda: erdos_renyi(300, 40.0, seed=5),
    "hub-dense": lambda: power_law_with_hub(
        400, 20, hub_count=3, hub_degree=200, seed=6
    ),
}


class TestBucketStructuresAgree:
    """All bucketing strategies must extract identical peel schedules."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_identical_traces_and_coreness(self, graph_name):
        graph = GRAPHS[graph_name]()
        expected = bz_core(graph).coreness
        reference_trace = None
        for name, (factory, mode) in STRUCTURES.items():
            trace, coreness = _drive(factory(), graph, mode)
            assert np.array_equal(coreness, expected), (
                f"{name} coreness wrong on {graph_name}"
            )
            if reference_trace is None:
                reference_trace = trace
            else:
                assert trace == reference_trace, (
                    f"{name} schedule differs on {graph_name}"
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_agree(self, seed):
        graph = erdos_renyi(100, 4.0 + seed, seed=40 + seed)
        expected = bz_core(graph).coreness
        traces = {
            name: _drive(factory(), graph, mode)
            for name, (factory, mode) in STRUCTURES.items()
        }
        for name, (trace, coreness) in traces.items():
            assert np.array_equal(coreness, expected), (name, seed)
            assert trace == traces["single"][0], (name, seed)

    @pytest.mark.parametrize("twin", sorted(NATIVE_TWINS))
    @pytest.mark.parametrize(
        "graph_name", sorted(GRAPHS) + ["er-dense", "hub-dense"]
    )
    def test_native_twin_matches_reference_ledger(self, twin, graph_name):
        """Same ``(k, frontier)`` trace and the same ledger, step by step."""
        graph = (GRAPHS | DENSE_GRAPHS)[graph_name]()
        factory, mode = STRUCTURES[twin]
        native = _drive_ledger(factory(), graph, mode)
        reference = _drive_ledger(factory(), graph, REFERENCE)
        assert native[0] == reference[0]
        assert np.array_equal(native[1], reference[1])
        assert native[2] == reference[2]
        if graph_name in DENSE_GRAPHS:
            assert {step[3] for step in reference[2]} >= {
                "bag_extract", "bag_insert_many", "hbs_decreasekey"
            }

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    @pytest.mark.parametrize("graph_name", sorted(DENSE_GRAPHS))
    def test_native_twin_resumes_after_growing(self, graph_name):
        """Buffers too small for any call: every kernel call stops,
        the wrapper grows the buffer and resumes, ledger unchanged."""
        graph = DENSE_GRAPHS[graph_name]()
        native = _drive_ledger(_TightHBS(), graph, NATIVE)
        reference = _drive_ledger(HierarchicalBuckets(), graph, REFERENCE)
        assert native[0] == reference[0]
        assert np.array_equal(native[1], reference[1])
        assert native[2] == reference[2]

    def test_frontiers_match_contract(self):
        # Every returned frontier is exactly the unpeeled dtilde == k set:
        # verified indirectly by the trace equality above; here check the
        # driver itself reproduces BZ on a graph with threshold-crossing
        # cascades (the path-of-cliques HCNS adversary).
        graph = hcns(48)
        _, coreness = _drive(SingleBucket(), graph)
        assert np.array_equal(coreness, bz_core(graph).coreness)
