"""Batch-dynamic engine: semantics, exactness, kernel-mode matrix.

The engine's contract (src/repro/core/batch_dynamic.py): after every
committed batch the coreness array is bit-equal to a full recompute of
the current graph; batch results depend only on the *set* of updates;
and every ``REPRO_KERNELS`` mode produces the identical coreness *and*
the identical simulated-runtime ledger.
"""

from __future__ import annotations

import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch_dynamic import BatchDynamicKCore, BatchResult
from repro.core.verify import reference_coreness
from repro.errors import InvalidGraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.transform import all_edges
from repro.obs import MetricsRegistry, observing
from repro.perf import (
    AUTO,
    KERNELS_ENV,
    NATIVE,
    REFERENCE,
    kernel_mode,
    native_available,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL


def assert_exact(engine: BatchDynamicKCore, context=None):
    expected = reference_coreness(engine.snapshot())
    assert np.array_equal(engine.coreness, expected), (
        context,
        np.flatnonzero(engine.coreness != expected)[:10],
    )


def assert_diff(result: BatchResult, before: np.ndarray, after: np.ndarray):
    """The reported per-phase raised/lowered sets match the coreness diff.

    Deletions apply before insertions, so a vertex lowered by one phase
    and raised by the other is in both sets; every other vertex is in a
    set exactly when its coreness moved that way.
    """
    raised = set(result.raised.tolist())
    lowered = set(result.lowered.tolist())
    both = raised & lowered
    assert set(np.flatnonzero(after > before).tolist()) - both == (
        raised - both
    )
    assert set(np.flatnonzero(after < before).tolist()) - both == (
        lowered - both
    )


def random_batches(graph, rng, batches, batch_size):
    """A deterministic batch sequence over an evolving edge set."""
    current = set()
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    for s, d in zip(src.tolist(), graph.indices.tolist()):
        if s < d:
            current.add((s, d))
    out = []
    for _ in range(batches):
        ins, dels = [], []
        for _ in range(batch_size):
            if current and rng.random() < 0.45:
                pool = sorted(current)
                edge = pool[int(rng.integers(len(pool)))]
                current.discard(edge)
                dels.append(edge)
            else:
                u = int(rng.integers(graph.n))
                v = int(rng.integers(graph.n))
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
                if edge not in current:
                    current.add(edge)
                    ins.append(edge)
        out.append((ins, dels))
    return out


# ----------------------------------------------------------------------
# Exactness against full recompute
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_exact_after_every_batch(small_er, seed):
    rng = np.random.default_rng(seed)
    engine = BatchDynamicKCore(small_er)
    edges = {tuple(edge) for edge in all_edges(small_er).tolist()}
    for index, (ins, dels) in enumerate(
        random_batches(small_er, rng, batches=6, batch_size=10)
    ):
        before = engine.coreness.copy()
        result = engine.apply_batch(insertions=ins, deletions=dels)
        assert_exact(engine, (seed, index))
        assert_diff(result, before, engine.coreness)
        assert np.array_equal(
            result.changed, np.flatnonzero(engine.coreness != before)
        ), (seed, index)
        edges = (edges - set(dels)) | set(ins)
        assert engine.snapshot() == CSRGraph.from_edges(
            small_er.n, sorted(edges)
        )


def test_initial_state_matches_reference(any_graph):
    engine = BatchDynamicKCore(any_graph)
    assert np.array_equal(
        engine.coreness, reference_coreness(any_graph)
    )
    assert engine.epoch == 0
    assert engine.snapshot() == any_graph


def test_triangle_from_isolated_vertices():
    """A batch insertion can raise coreness by more than its parts."""
    engine = BatchDynamicKCore(CSRGraph.from_edges(4, []))
    result = engine.apply_batch(
        insertions=[(0, 1), (1, 2), (0, 2)]
    )
    assert engine.coreness.tolist() == [2, 2, 2, 0]
    assert result.raised.tolist() == [0, 1, 2]
    assert result.lowered.size == 0
    assert result.changed.tolist() == [0, 1, 2]


def test_deletion_cascade(small_grid):
    """Detaching the corner vertex cascades coreness drops in the grid."""
    engine = BatchDynamicKCore(small_grid)
    corner_edges = [(0, int(v)) for v in small_grid.neighbors(0)]
    result = engine.apply_batch(deletions=corner_edges)
    assert_exact(engine, "grid-delete")
    assert result.applied_deletions == len(corner_edges)
    assert engine.core_number(0) == 0
    assert result.lowered.size > 0


# ----------------------------------------------------------------------
# Batch semantics
# ----------------------------------------------------------------------
def test_duplicate_updates_coalesce(triangle):
    engine = BatchDynamicKCore(triangle)
    result = engine.apply_batch(
        insertions=[(0, 1), (1, 0), (0, 1)]  # already present, 3 ways
    )
    assert result.applied_insertions == 0
    assert result.noop_insertions == 1  # coalesced to one canonical edge
    assert_exact(engine)


def test_insert_and_delete_same_edge_in_one_batch(triangle):
    """Deletions apply first, so delete+insert of one edge keeps it."""
    engine = BatchDynamicKCore(triangle)
    result = engine.apply_batch(
        insertions=[(0, 1)], deletions=[(0, 1)]
    )
    assert engine.has_edge(0, 1)
    assert result.applied_deletions == 1
    assert result.applied_insertions == 1
    assert_exact(engine)
    assert np.array_equal(
        engine.coreness, reference_coreness(triangle)
    )


def test_self_loop_rejected(triangle):
    engine = BatchDynamicKCore(triangle)
    with pytest.raises(ValueError, match="self-loop"):
        engine.apply_batch(insertions=[(1, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        engine.apply_batch(deletions=[(2, 2)])


def test_out_of_range_rejected(triangle):
    engine = BatchDynamicKCore(triangle)
    with pytest.raises(IndexError):
        engine.apply_batch(insertions=[(0, 99)])
    with pytest.raises(IndexError):
        engine.apply_batch(deletions=[(-1, 0)])


def test_non_integer_endpoints_rejected(triangle):
    """A float or bool endpoint is an error, not a truncated vertex."""
    engine = BatchDynamicKCore(triangle)
    with pytest.raises(TypeError, match="integers"):
        engine.apply_batch(insertions=[(0.5, 2.9)])
    with pytest.raises(TypeError, match="integers"):
        engine.apply_batch(deletions=np.array([[0.0, 1.0]]))
    with pytest.raises(TypeError, match="integers"):
        engine.apply_batch(insertions=np.array([[True, False]]))
    assert engine.epoch == 0
    # Empty batches keep working whatever their dtype.
    engine.apply_batch(insertions=np.asarray([]), deletions=[])
    engine.apply_batch(deletions=np.zeros((0, 2)))
    result = engine.apply_batch(deletions=np.array([[0, 1]], np.uint8))
    assert result.applied_deletions == 1 and engine.epoch == 3
    assert_exact(engine)


def _reversed_rows(graph):
    indices = np.concatenate([
        graph.indices[graph.indptr[v]:graph.indptr[v + 1]][::-1]
        for v in range(graph.n)
    ])
    return CSRGraph(graph.indptr, indices, validate=False)


#: Malformed CSR inputs: (builder from a triangle, message fragment).
MALFORMED = {
    "reversed-rows": (_reversed_rows, "sorted"),
    "repeated-arc": (
        lambda g: CSRGraph([0, 2, 3, 4], [1, 1, 0, 0], validate=False),
        "repeated",
    ),
    "asymmetric": (
        lambda g: CSRGraph([0, 2, 3, 4], [1, 2, 0, 1], validate=False),
        "symmetric",
    ),
    "self-loop": (
        lambda g: CSRGraph([0, 1, 3, 4], [1, 0, 1, 1], validate=False),
        "self-loop",
    ),
    "out-of-range": (
        lambda g: CSRGraph([0, 1, 2, 2], [1, 3], validate=False),
        "out of range",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_csr_rejected(triangle, case):
    build, fragment = MALFORMED[case]
    with pytest.raises(InvalidGraphError, match=fragment):
        BatchDynamicKCore(build(triangle))


def test_deletion_checks_the_reverse_arc(triangle):
    """A key array that lost a reverse arc fails the splice, not silently."""
    engine = BatchDynamicKCore(triangle)
    n = triangle.n
    engine._keys = engine._keys[engine._keys != 1 * n + 0]
    with pytest.raises(InvalidGraphError, match="reverse"):
        engine.apply_batch(deletions=[(0, 1)])
    assert engine.epoch == 0
    assert engine.snapshot() is triangle


def test_noop_updates_counted(triangle):
    engine = BatchDynamicKCore(triangle)
    result = engine.apply_batch(
        insertions=[(0, 1)], deletions=[(1, 2)]
    )
    # (0,1) already present -> noop insert; (1,2) present -> applied.
    assert result.noop_insertions == 1
    assert result.applied_deletions == 1
    result = engine.apply_batch(deletions=[(1, 2)])
    assert result.noop_deletions == 1 and result.applied_deletions == 0
    assert engine.epoch == 2


def test_empty_batch_commits_an_epoch(small_er):
    engine = BatchDynamicKCore(small_er)
    before = engine.coreness.copy()
    result = engine.apply_batch()
    assert engine.epoch == 1 and result.epoch == 1
    assert result.changed.size == 0
    assert np.array_equal(engine.coreness, before)


def test_batch_of_one_equals_per_edge_engine(small_er):
    """Single-edge calls: exact after each, returning the coreness diff."""
    rng = np.random.default_rng(7)
    engine = BatchDynamicKCore(small_er)
    for ins, dels in random_batches(small_er, rng, 1, 40):
        for u, v in dels:
            before = engine.coreness.copy()
            lowered = engine.delete_edge(u, v)
            assert_exact(engine, ("delete", u, v))
            assert lowered.tolist() == np.flatnonzero(
                engine.coreness < before
            ).tolist()
            assert np.all(engine.coreness >= before - 1)
        for u, v in ins:
            before = engine.coreness.copy()
            raised = engine.insert_edge(u, v)
            assert_exact(engine, ("insert", u, v))
            assert raised.tolist() == np.flatnonzero(
                engine.coreness > before
            ).tolist()
            assert np.all(engine.coreness <= before + 1)


def test_permutation_invariance_within_batch(small_er):
    rng = np.random.default_rng(21)
    [(ins, dels)] = random_batches(small_er, rng, 1, 24)
    outcomes = []
    for order_seed in range(3):
        order = np.random.default_rng(order_seed)
        shuffled_ins = list(ins)
        shuffled_dels = list(dels)
        order.shuffle(shuffled_ins)
        order.shuffle(shuffled_dels)
        engine = BatchDynamicKCore(small_er)
        engine.apply_batch(
            insertions=shuffled_ins, deletions=shuffled_dels
        )
        outcomes.append(
            (engine.coreness.copy(), engine.snapshot())
        )
    first_core, first_graph = outcomes[0]
    for coreness, graph in outcomes[1:]:
        assert np.array_equal(coreness, first_core)
        assert graph == first_graph


def test_queries_read_committed_state(triangle):
    engine = BatchDynamicKCore(triangle)
    assert engine.core_number(0) == 2
    assert engine.has_edge(0, 1) and not engine.has_edge(0, 3)
    assert not engine.has_edge(0, 0)
    assert engine.degree(0) == 2
    engine.apply_batch(deletions=[(0, 1)])
    assert engine.core_number(0) == 1
    assert not engine.has_edge(0, 1)


def test_batch_result_counters(small_er):
    engine = BatchDynamicKCore(small_er)
    result = engine.apply_batch(insertions=[(0, 1)])
    assert isinstance(result, BatchResult)
    assert engine.batches == 1
    assert engine.updates == result.applied_insertions
    assert result.rounds >= 0


# ----------------------------------------------------------------------
# Kernel-mode matrix: identical coreness AND identical ledger
# ----------------------------------------------------------------------
ALL_MODES = [REFERENCE, AUTO] + ([NATIVE] if native_available() else [])
needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler"
)


def _replay(mode, graph, batches, scratch_levels=None):
    """Everything a replay under ``mode`` shows, batch by batch.

    Per batch: the coreness, the ``BatchResult`` fields, the touched
    vertices, the ledger steps it appended ``(work, span, barriers,
    tag)`` and ``to_stable_dict``; then the observed registry's
    snapshot and its tracer's step events and spans.  The replay counts
    one ``host`` kernel-mode decision per batch, which the snapshot
    leaves out.
    ``scratch_levels`` sizes the native round scratch in worst-case
    levels (the default when ``None``).
    """
    from repro.perf.kernels import RoundScratch
    from repro.trace import Tracer

    registry = MetricsRegistry("modes", tracer=Tracer())
    with mock.patch.dict(os.environ, {KERNELS_ENV: mode}):
        engine = BatchDynamicKCore(graph, registry=registry)
        if scratch_levels is not None:
            engine._scratch = RoundScratch(graph.n, levels=scratch_levels)
        per_batch = []
        for ins, dels in batches:
            start = len(engine.metrics.steps)
            result = engine.apply_batch(insertions=ins, deletions=dels)
            per_batch.append((
                engine.coreness.tolist(),
                {
                    name: value.tolist()
                    if isinstance(value, np.ndarray) else value
                    for name, value in vars(result).items()
                },
                engine.touched_vertices,
                [
                    (step.work, step.span, step.barriers, step.tag)
                    for step in engine.metrics.steps[start:]
                ],
                engine.metrics.to_stable_dict(DEFAULT_COST_MODEL),
            ))
    registry.tracer.finish()
    (decisions,) = registry.counter_values("kernel.mode.", "host").values()
    assert decisions == len(batches), mode
    return (
        per_batch,
        registry.to_snapshot(),
        registry.tracer.steps,
        registry.tracer.spans,
    )


def assert_same_replay(got, want, label) -> None:
    """Two replays agree in every observable."""
    for index, (batch_got, batch_want) in enumerate(zip(got[0], want[0])):
        assert batch_got == batch_want, (label, index)
    assert got[1:] == want[1:], label


def assert_modes_agree(graph, batches, mode=NATIVE, scratch_levels=None):
    """``mode`` and ``reference`` replays agree in every observable."""
    want = _replay(REFERENCE, graph, batches)
    assert_same_replay(
        _replay(mode, graph, batches, scratch_levels), want, mode
    )
    return want


@pytest.mark.parametrize("mode", ALL_MODES)
def test_kernel_modes_bit_exact(small_er, mode):
    rng = np.random.default_rng(3)
    batches = random_batches(small_er, rng, batches=5, batch_size=12)
    assert_modes_agree(small_er, batches, mode)


#: Single-batch cases for the native insertion round's corner cases:
#: (graph edges, n, insertions, the case the reference steps must show).
LEVEL_CASES = {
    # The level-0 BFS from vertex 3 meets only vertex 0 (level 2).
    "bfs-finds-nothing": (
        [(0, 1), (1, 2), (0, 2)], 5, [(0, 3)], "lone-subround",
    ),
    # Vertex 3 rises to 1 at level 0 and is a root again at level 1,
    # where it is peeled; the second peel subround ({1, 2}) finds every
    # neighbor already peeled, so it decrements nothing.  The riser 3
    # seeds a second round that peels level 1 the same way.
    "empty-segment": ([(0, 1), (1, 2)], 4, [(2, 3)], "empty-peel"),
    "edgeless": ([], 6, [(0, 1), (1, 2), (2, 0), (3, 4)], "raised"),
    # Vertex 2 rises to 1 at level 0, is a root of level 1 in the same
    # round and rises again with 0 and 1: the triangle is a 2-core
    # after one round; the second round peels level 2 and raises none.
    "raised-twice": ([(0, 1)], 3, [(2, 0), (2, 1)], "two-levels"),
}


@needs_native
@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_native_level_corner_cases(case):
    edges, n, insertions, shows = LEVEL_CASES[case]
    graph = CSRGraph.from_edges(n, edges)
    per_batch, _, events, _ = assert_modes_agree(
        graph, [(insertions, [])]
    )
    tags = [event.tag for event in events]
    if shows == "lone-subround":
        # A BFS subround with no frontier-bag step after it, straight
        # into the cd init: the level's only subround found nothing.
        assert tags[tags.index("dyn_subcore") + 1] == "dyn_cd_init"
    elif shows == "empty-peel":
        peels = [event for event in events if event.tag == "dyn_peel"]
        assert [event.atomics for event in peels] == [2, 0, 2, 0]
        assert per_batch[0][0] == [1, 1, 1, 1]
    elif shows == "two-levels":
        assert per_batch[0][0] == [2, 2, 2]
        level = ["dyn_subcore", "dyn_cd_init", "dyn_relabel"]
        assert tags == ["dyn_rebuild"] + level + level + [
            "dyn_subcore", "dyn_cd_init", "dyn_peel",
        ]
        # Level 1's BFS starts from all three vertices, 2 included.
        subcores = [event for event in events if event.tag == "dyn_subcore"]
        assert [event.work for event in subcores] == [
            DEFAULT_COST_MODEL.vertex_op * size
            + DEFAULT_COST_MODEL.edge_op * degrees
            for size, degrees in ((1, 2), (3, 6), (3, 6))
        ]
    else:
        assert per_batch[0][0] == [2, 2, 2, 1, 1, 0]


#: One rejected input each: (argument, bad value from (graph, coreness),
#: error).  ``marks``, the per-vertex buffers, ``risers``, ``rows`` and
#: ``contention`` live in the scratch.
BAD_LEVEL = {
    "roots-above-n": ("roots", lambda g, core: np.array([g.n]), IndexError),
    "roots-negative": ("roots", lambda g, core: np.array([-1]), IndexError),
    "levels-unsorted": (
        "levels", lambda g, core: np.array([2, 1]), ValueError
    ),
    "levels-repeated": (
        "levels", lambda g, core: np.array([1, 1]), ValueError
    ),
    "levels-int32": (
        "levels", lambda g, core: np.array([1], np.int32), ValueError
    ),
    "start-past-end": ("start", lambda g, core: 5, IndexError),
    "start-negative": ("start", lambda g, core: -1, IndexError),
    "coreness-int32": (
        "coreness", lambda g, core: core.astype(np.int32), ValueError
    ),
    "coreness-short": (
        "coreness", lambda g, core: core[:-1].copy(), ValueError
    ),
    "coreness-strided": (
        "coreness", lambda g, core: np.repeat(core, 2)[::2], ValueError
    ),
    "marks-bool": ("marks", lambda g, core: np.zeros(g.n, bool), ValueError),
    "marks-short": (
        "marks", lambda g, core: np.zeros(g.n - 1, np.uint8), ValueError
    ),
    "cd-short": (
        "cd", lambda g, core: np.empty(g.n - 1, np.int64), ValueError
    ),
    "queue-int32": (
        "queue", lambda g, core: np.empty(g.n, np.int32), ValueError
    ),
    "risers-too-small": (
        "risers", lambda g, core: np.empty(g.n - 1, np.int64), ValueError
    ),
    "rows-too-small": (
        "rows",
        lambda g, core: tuple(np.empty(3 * g.n - 1, np.int64)
                              for _ in range(5)),
        ValueError,
    ),
    "rows-ragged": (
        "rows",
        lambda g, core: tuple(np.empty(3 * g.n + k, np.int64)
                              for k in range(5)),
        ValueError,
    ),
    "contention-too-small": (
        "contention",
        lambda g, core: np.empty(g.indices.size - 1, np.int64),
        ValueError,
    ),
}


@needs_native
@pytest.mark.parametrize("case", sorted(BAD_LEVEL))
def test_insertion_level_rejects_bad_input(small_er, case):
    from repro.perf.kernels import RoundScratch
    from repro.perf.native import run_insertion_round

    coreness = reference_coreness(small_er).copy()
    scratch = RoundScratch(small_er.n)
    scratch.reserve(small_er.indices.size)
    roots = np.array([0, 5])
    args = {
        "roots": roots,
        "coreness": coreness,
        "levels": np.unique(coreness[roots]),
        "start": 0,
    }
    run_insertion_round(small_er, scratch=scratch, **args)  # accepted
    name, bad, error = BAD_LEVEL[case]
    if name in args:
        args[name] = bad(small_er, coreness)
    else:
        setattr(scratch, name, bad(small_er, coreness))
    before = coreness.copy()
    with pytest.raises(error, match=name):
        run_insertion_round(small_er, scratch=scratch, **args)
    assert np.array_equal(coreness, before)


def _multi_level_batches(data, n, pair, max_batches=4):
    """Batches whose insertions tend to meet several coreness levels.

    A clique on a drawn vertex set is inserted beside random edges, so
    its endpoints start a round at several levels and can rise twice.
    """
    batches = []
    for index in range(data.draw(st.integers(1, max_batches),
                                 label="batches")):
        clique = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=6),
            label=f"clique{index}",
        )
        ins = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
        ins += data.draw(st.lists(pair, max_size=12), label=f"ins{index}")
        dels = data.draw(st.lists(pair, max_size=6), label=f"dels{index}")
        batches.append((ins, dels))
    return batches


@needs_native
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_native_level_matches_reference(data):
    """Whole native rounds, resumed or not, replay the reference."""
    n = data.draw(st.integers(min_value=2, max_value=20), label="n")
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda uv: uv[0] != uv[1])
    graph = CSRGraph.from_edges(
        n, data.draw(st.lists(pair, max_size=40), label="initial_edges")
    )
    batches = _multi_level_batches(data, n, pair)
    levels = data.draw(st.sampled_from([None, 1]), label="scratch_levels")
    assert_modes_agree(graph, batches, scratch_levels=levels)


def _count_round_calls(graph, batches, scratch_levels=None):
    """Native round-kernel calls of a replay, and what the replay shows."""
    from repro.perf import native

    with mock.patch.object(
        native, "run_insertion_round", wraps=native.run_insertion_round
    ) as spy:
        shown = _replay(NATIVE, graph, batches, scratch_levels)
    return spy.call_count, shown


@needs_native
def test_round_resumes_after_a_full_scratch(small_er):
    """A scratch with room for one worst-case level resumes every round.

    The kernel stops before each level after the first non-empty one;
    the wrapper charges what ran and calls again from there, which
    must show exactly what one call per round shows.
    """
    rng = np.random.default_rng(5)
    batches = random_batches(small_er, rng, batches=6, batch_size=16)
    batches.append(([(2, 0), (2, 1)], []))
    calls, shown = _count_round_calls(small_er, batches)
    resumed, shown_resumed = _count_round_calls(small_er, batches, 1)
    assert resumed > calls
    assert shown_resumed == shown
    assert_same_replay(
        shown, _replay(REFERENCE, small_er, batches), NATIVE
    )


def test_native_unavailable_falls_back(monkeypatch, no_compiler):
    """Without a compiler, auto falls back to reference — loudly, once."""
    monkeypatch.setenv(KERNELS_ENV, AUTO)
    registry = MetricsRegistry()
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        assert kernel_mode(registry) == REFERENCE
    assert registry.value("kernel.fallback.native_unavailable") == 1.0
    assert registry.value("kernel.mode.reference") == 1.0
    graph = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 0)])
    engine = BatchDynamicKCore(graph, registry=registry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the warning is one-time
        engine.apply_batch(insertions=[(0, 3)])
    assert registry.value("kernel.fallback.native_unavailable") == 2.0
    assert registry.value("kernel.mode.reference") == 2.0
    assert_exact(engine, "auto-fallback")
    monkeypatch.setenv(KERNELS_ENV, NATIVE)
    with pytest.raises(RuntimeError, match="no C compiler"):
        engine.apply_batch(insertions=[(1, 3)])


def test_tracing_does_not_change_the_ledger(small_er):
    from repro.trace import Tracer

    rng = np.random.default_rng(9)
    batches = random_batches(small_er, rng, 3, 8)

    engine = BatchDynamicKCore(small_er)
    for ins, dels in batches:
        engine.apply_batch(insertions=ins, deletions=dels)
    untraced = engine.metrics.to_stable_dict(DEFAULT_COST_MODEL)

    registry = MetricsRegistry("batch-test", tracer=Tracer())
    with observing(registry):
        traced_engine = BatchDynamicKCore(small_er)
        for ins, dels in batches:
            traced_engine.apply_batch(insertions=ins, deletions=dels)
    traced = traced_engine.metrics.to_stable_dict(DEFAULT_COST_MODEL)

    assert traced == untraced
    assert np.array_equal(engine.coreness, traced_engine.coreness)
    assert any(
        event.name == "batch_commit" for event in registry.tracer.instants
    )


# ----------------------------------------------------------------------
# Hypothesis: arbitrary small graphs and update sets
# ----------------------------------------------------------------------
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_hypothesis_batches_match_recompute(data):
    n = data.draw(st.integers(min_value=2, max_value=24), label="n")
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda uv: uv[0] != uv[1])
    initial = data.draw(
        st.lists(pair, max_size=40), label="initial_edges"
    )
    graph = CSRGraph.from_edges(n, initial)
    engine = BatchDynamicKCore(graph)
    for index in range(data.draw(st.integers(1, 4), label="batches")):
        ins = data.draw(st.lists(pair, max_size=8), label=f"ins{index}")
        dels = data.draw(
            st.lists(pair, max_size=8), label=f"dels{index}"
        )
        before = engine.coreness.copy()
        result = engine.apply_batch(insertions=ins, deletions=dels)
        assert_exact(engine, index)
        assert_diff(result, before, engine.coreness)



@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_snapshot_tracks_the_edge_set(data):
    """The spliced CSR is the CSR of the edge set, epoch after epoch.

    After every batch, in every kernel mode, :meth:`snapshot` equals
    ``CSRGraph.from_edges`` of a separately tracked edge set, and every
    snapshot held from an earlier epoch still holds its arrays: the
    splice copies and never writes into a committed CSR.
    """
    n = data.draw(st.integers(min_value=2, max_value=24), label="n")
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda uv: uv[0] != uv[1])
    initial = data.draw(st.lists(pair, max_size=40), label="initial_edges")
    batches = [
        (
            data.draw(st.lists(pair, max_size=10), label=f"ins{index}"),
            data.draw(st.lists(pair, max_size=10), label=f"dels{index}"),
        )
        for index in range(data.draw(st.integers(1, 5), label="batches"))
    ]

    def canonical(pairs):
        return {(min(u, v), max(u, v)) for u, v in pairs}

    for mode in ALL_MODES:
        with mock.patch.dict(os.environ, {KERNELS_ENV: mode}):
            graph = CSRGraph.from_edges(n, initial)
            engine = BatchDynamicKCore(graph)
            edges = canonical(initial)
            held = [(graph, graph.indptr.copy(), graph.indices.copy())]
            for index, (ins, dels) in enumerate(batches):
                engine.apply_batch(insertions=ins, deletions=dels)
                edges = (edges - canonical(dels)) | canonical(ins)
                want = CSRGraph.from_edges(n, sorted(edges))
                got = engine.snapshot()
                assert np.array_equal(got.indptr, want.indptr), (mode, index)
                assert np.array_equal(got.indices, want.indices), (
                    mode, index,
                )
                assert_exact(engine, (mode, index))
                held.append((got, got.indptr.copy(), got.indices.copy()))
            for snap, indptr, indices in held:
                assert np.array_equal(snap.indptr, indptr), mode
                assert np.array_equal(snap.indices, indices), mode
