"""Kernel equivalence for the baseline engines and the H-index solver.

The baselines' hot loops run through the shared kernels: PKC's
per-round chain drain is one compiled call (``pkc_chain_drain_native``),
ParK's and Julienne's scan-frontier rounds go through
``threshold_frontier`` / ``scan_peel_round``, and ``hindex_coreness``
is the shard engine's inline schedule on ``RoundKernels``.  The
``REPRO_KERNELS`` switch must therefore be unobservable for them exactly
as it is for our framework: identical coreness arrays and an identical
stable metrics ledger (work, span, contention, subrounds) on every graph
family under both modes.  ``hindex_coreness`` and
``shard_coreness(workers=0)`` must also agree with each other.

Mirrors ``test_perf_kernels.py``: full decompositions across generator
families x seeds, the native tier compared field-for-field against the
reference loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import julienne_kcore, park_kcore, pkc_kcore
from repro.core.locality import hindex_coreness
from repro.generators import (
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    hcns,
    knn_graph,
    power_law_with_hub,
    road_like,
)
from repro.perf import KERNELS_ENV, NATIVE, REFERENCE, native_available
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.shard import shard_coreness

#: One randomized builder per generator family (seeded — the *pair* of
#: runs must see the identical graph, not two draws of it).
GRAPHS = {
    "er": lambda seed: erdos_renyi(240, 5.0, seed=seed),
    "hub": lambda seed: power_law_with_hub(
        300, 3, hub_count=2, hub_degree=80, seed=seed
    ),
    "ba": lambda seed: barabasi_albert(320, 5, seed=seed, attach_min=2),
    "grid": lambda seed: grid_2d(14 + seed % 5, 18),
    "road": lambda seed: road_like(400, seed=seed),
    "knn": lambda seed: knn_graph(260, 4, dim=2, clusters=5, seed=seed),
    "hcns": lambda seed: hcns(32 + 8 * (seed % 3)),
}

ENGINES = {
    "pkc": pkc_kcore,
    "park": park_kcore,
    "julienne": julienne_kcore,
    "hindex": hindex_coreness,
    "shard-inline": lambda graph, model: shard_coreness(
        graph, model, workers=0
    ),
}

#: The fast tier, compared against REFERENCE where a compiler can build it.
FAST_MODES = [NATIVE] if native_available() else []


def _run(monkeypatch, mode: str, engine: str, family: str, seed: int):
    monkeypatch.setenv(KERNELS_ENV, mode)
    graph = GRAPHS[family](seed)
    result = ENGINES[engine](graph, DEFAULT_COST_MODEL)
    return (
        result.coreness,
        result.metrics.to_stable_dict(DEFAULT_COST_MODEL),
    )


@pytest.mark.parametrize("mode", FAST_MODES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_baseline_modes_bit_exact(monkeypatch, family, engine, mode):
    for seed in (3, 104):
        core_f, metrics_f = _run(monkeypatch, mode, engine, family, seed)
        core_r, metrics_r = _run(
            monkeypatch, REFERENCE, engine, family, seed
        )
        assert np.array_equal(core_f, core_r), (engine, family, seed)
        assert metrics_f == metrics_r, (engine, family, seed)


@pytest.mark.parametrize("mode", [REFERENCE, *FAST_MODES])
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_hindex_is_the_inline_shard_schedule(monkeypatch, family, mode):
    """Same coreness and the same stable ledger, round for round."""
    for seed in (3, 104):
        core_h, metrics_h = _run(monkeypatch, mode, "hindex", family, seed)
        core_s, metrics_s = _run(
            monkeypatch, mode, "shard-inline", family, seed
        )
        assert np.array_equal(core_h, core_s), (family, seed)
        assert metrics_h == metrics_s, (family, seed)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_pkc_contention_ledger_survives_batching(monkeypatch):
    """The contention multiset PKC reports is mode-independent.

    The compiled drain counts per-target decrement multiplicities with a
    scratch first-touch pass rather than replaying each atomic; the
    max/sum the ledger consumes must still match the reference exactly.
    """
    graph = GRAPHS["hub"](3)
    monkeypatch.setenv(KERNELS_ENV, REFERENCE)
    ref = pkc_kcore(graph, DEFAULT_COST_MODEL)
    monkeypatch.setenv(KERNELS_ENV, NATIVE)
    fast = pkc_kcore(graph, DEFAULT_COST_MODEL)
    ref_stable = ref.metrics.to_stable_dict(DEFAULT_COST_MODEL)
    fast_stable = fast.metrics.to_stable_dict(DEFAULT_COST_MODEL)
    assert ref_stable["max_contention"] == fast_stable["max_contention"]
    assert ref_stable == fast_stable
