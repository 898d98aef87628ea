"""Seeded fuzzing: every algorithm against every graph shape.

Deterministic seeds (not hypothesis) so failures reproduce byte-for-byte;
this file is the wide-net companion to the targeted property tests.
"""

import numpy as np
import pytest

from repro.core.approximate import approximate_coreness
from repro.core.baselines import julienne_kcore, park_kcore, pkc_kcore
from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.framework import FrameworkConfig, decompose
from repro.core.subgraph import max_kcore_subgraph
from repro.core.verify import reference_coreness
from repro.graphs.csr import CSRGraph
from repro.graphs.transform import all_edges

SEEDS = list(range(8))


def random_graph(seed: int) -> CSRGraph:
    """Deliberately weird random graphs: skewed, clustered, sparse/dense."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 250))
    style = seed % 4
    if style == 0:  # uniform
        m = int(rng.integers(0, 4 * n))
        edges = rng.integers(0, n, size=(m, 2))
    elif style == 1:  # heavy hub
        hub = int(rng.integers(n))
        others = rng.integers(0, n, size=(2 * n, 2))
        hub_edges = np.stack(
            [np.full(n, hub), rng.integers(0, n, size=n)], axis=1
        )
        edges = np.concatenate([others, hub_edges])
    elif style == 2:  # clustered cliques
        edges = []
        size = max(int(rng.integers(2, 8)), 2)
        for start in range(0, n - size, size):
            ids = np.arange(start, start + size)
            a, b = np.meshgrid(ids, ids)
            mask = a < b
            edges.append(np.stack([a[mask], b[mask]], axis=1))
        edges = (
            np.concatenate(edges)
            if edges
            else np.zeros((0, 2), dtype=np.int64)
        )
    else:  # long chains plus chords
        ids = np.arange(n - 1)
        chain = np.stack([ids, ids + 1], axis=1)
        chords = rng.integers(0, n, size=(n // 4, 2))
        edges = np.concatenate([chain, chords])
    return CSRGraph.from_edges(n, edges, name=f"fuzz-{seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_all_solvers_agree(seed):
    graph = random_graph(seed)
    ref = reference_coreness(graph)
    configs = [
        FrameworkConfig(peel="online", buckets="1"),
        FrameworkConfig(peel="online", buckets="16", vgc=True),
        FrameworkConfig(
            peel="online", buckets="adaptive", sampling=True, vgc=True
        ),
        FrameworkConfig(peel="offline", buckets="hbs"),
    ]
    for config in configs:
        got = decompose(graph, config).coreness
        assert np.array_equal(got, ref), (seed, config.label())
    for runner in (julienne_kcore, park_kcore, pkc_kcore):
        assert np.array_equal(runner(graph).coreness, ref), (
            seed, runner.__name__,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_subgraph_and_approx_consistent(seed):
    graph = random_graph(seed)
    ref = reference_coreness(graph)
    for k in (1, 2, 4):
        members = max_kcore_subgraph(graph, k).members
        assert np.array_equal(members, ref >= k), (seed, k)
    approx = approximate_coreness(graph, eps=0.5).coreness
    nonzero = ref > 0
    assert np.all(approx[nonzero] >= ref[nonzero]), seed
    assert np.all(approx[nonzero] <= 1.5 * ref[nonzero] + 1e-9), seed


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_dynamic_fuzz(seed):
    """Single-edge updates; self-loops are skipped (the engine rejects
    them with ``ValueError``)."""
    graph = random_graph(seed)
    dyn = BatchDynamicKCore(graph)
    rng = np.random.default_rng(1000 + seed)
    existing = all_edges(graph)
    for _ in range(60):
        if rng.random() < 0.5 and existing.shape[0]:
            idx = int(rng.integers(existing.shape[0]))
            dyn.delete_edge(int(existing[idx, 0]), int(existing[idx, 1]))
        else:
            u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
            if u != v:
                dyn.insert_edge(u, v)
    assert np.array_equal(
        dyn.coreness, reference_coreness(dyn.snapshot())
    ), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_dynamic_fuzz(seed):
    """Noisy batches (dups, self-loops filtered upstream, absent
    deletes, present inserts) against a recompute and the coreness diff
    after every batch."""
    graph = random_graph(seed)
    batch = BatchDynamicKCore(graph)
    rng = np.random.default_rng(2000 + seed)
    for round_index in range(8):
        raw = rng.integers(0, graph.n, size=(int(rng.integers(1, 14)), 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        split = int(rng.integers(raw.shape[0] + 1))
        insertions = [tuple(int(x) for x in row) for row in raw[:split]]
        deletions = [tuple(int(x) for x in row) for row in raw[split:]]
        if rng.random() < 0.3 and insertions:
            insertions.append(insertions[0])  # duplicate in-batch
        before = batch.coreness.copy()
        result = batch.apply_batch(
            insertions=insertions, deletions=deletions
        )
        assert np.array_equal(
            batch.coreness, reference_coreness(batch.snapshot())
        ), (seed, round_index)
        changed = np.flatnonzero(batch.coreness != before)
        assert np.array_equal(result.changed, changed), (seed, round_index)
