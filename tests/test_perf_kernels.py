"""Kernel equivalence: the native peel kernels vs the reference loops.

The ``REPRO_KERNELS`` switch selects between two implementations of the
VGC task loop that must be *bit-exact*: identical coreness arrays and an
identical stable metrics ledger (work, span, contention, subrounds, RNG
consumption) on every graph family, with and without sampling.  These
tests run full decompositions under both modes and compare everything;
the regression goldens enforce the same property on the pinned matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig, decompose
from repro.core.sampling import SamplingConfig
from repro.generators import (
    barabasi_albert,
    empty_graph,
    erdos_renyi,
    grid_2d,
    hcns,
    knn_graph,
    power_law_with_hub,
    road_like,
)
from repro.perf import (
    AUTO,
    KERNELS_ENV,
    NATIVE,
    REFERENCE,
    kernel_mode,
    native_available,
)
from repro.perf.kernels import KernelScratch
from repro.runtime.cost_model import DEFAULT_COST_MODEL

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

CONFIGS = {
    "vgc": FrameworkConfig(vgc=True),
    "vgc-sample": FrameworkConfig(vgc=True, sampling=True),
    "vgc-sample-hbs": FrameworkConfig(
        vgc=True, sampling=True, buckets="adaptive"
    ),
    # The default threshold keeps these small graphs out of sample mode;
    # a tiny ``mu`` resamples on ba/er/hcns/hub and restarts on ba/hub,
    # so both recounts and the Las-Vegas check run in both modes.
    "vgc-sample-eager": FrameworkConfig(
        vgc=True,
        sampling=True,
        sampling_config=SamplingConfig(mu=4, threshold=8),
    ),
    # ``adaptive`` stays in its plain phase on every family but hcns;
    # ``hbs`` runs the structure (native and reference) from round one,
    # and the eager sampler adds resample and rejection DecreaseKeys.
    "vgc-hbs": FrameworkConfig(vgc=True, buckets="hbs"),
    "vgc-sample-eager-hbs": FrameworkConfig(
        vgc=True,
        sampling=True,
        buckets="hbs",
        sampling_config=SamplingConfig(mu=4, threshold=8),
    ),
    "flat": FrameworkConfig(),
}

#: The fast tier, compared against REFERENCE where a compiler can build it.
FAST_MODES = [NATIVE] if native_available() else []


def _run(monkeypatch, mode: str, family: str, seed: int, config_name: str):
    monkeypatch.setenv(KERNELS_ENV, mode)
    graph = GRAPHS[family](seed)
    result = decompose(graph, CONFIGS[config_name], DEFAULT_COST_MODEL)
    return (
        result.coreness,
        result.metrics.to_stable_dict(DEFAULT_COST_MODEL),
    )


@pytest.mark.parametrize("mode", FAST_MODES)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_modes_bit_exact(monkeypatch, family, config_name, mode):
    for seed in (3, 104):
        core_f, metrics_f = _run(
            monkeypatch, mode, family, seed, config_name
        )
        core_r, metrics_r = _run(
            monkeypatch, REFERENCE, family, seed, config_name
        )
        assert np.array_equal(core_f, core_r), (family, config_name, seed)
        assert metrics_f == metrics_r, (family, config_name, seed)


def test_default_mode_resolves(monkeypatch):
    monkeypatch.delenv(KERNELS_ENV, raising=False)
    expected = NATIVE if native_available() else REFERENCE
    assert kernel_mode() == expected


def test_auto_mode_resolves(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, AUTO)
    assert kernel_mode() in (NATIVE, REFERENCE)


def test_mode_env_roundtrip(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, " Reference ")
    assert kernel_mode() == REFERENCE


def test_unknown_mode_rejected(monkeypatch):
    # ``vectorized`` named the retired flat-NumPy tier.
    for mode in ("turbo", "vectorized"):
        monkeypatch.setenv(KERNELS_ENV, mode)
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            kernel_mode()


def test_kernels_never_read_the_mode_switch():
    """The kernels branch on the run's scratch, never on the environment."""
    import ast
    import inspect

    import repro.perf.kernels as kernels

    tree = ast.parse(inspect.getsource(kernels))
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {"kernel_mode", "KERNELS_ENV"}


def _write_truncated_library(native) -> str:
    """Put 7 bytes where the cached kernel library belongs."""
    import os

    path = native._so_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"\x7fELF\0\0\0")
    return path


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_unloadable_cached_library_is_rebuilt(fresh_native, monkeypatch):
    import os

    path = _write_truncated_library(fresh_native)
    monkeypatch.setenv(KERNELS_ENV, NATIVE)
    assert kernel_mode() == NATIVE
    assert os.path.getsize(path) > 7


def test_unloadable_library_reports_its_cause(no_compiler, monkeypatch):
    """A library that does not load is named, with why it was not rebuilt."""
    import repro.perf as perf

    path = _write_truncated_library(no_compiler)
    monkeypatch.setenv(KERNELS_ENV, NATIVE)
    with pytest.raises(RuntimeError, match="does not load") as raised:
        kernel_mode()
    assert path in str(raised.value)
    assert "no C compiler" in str(raised.value)
    monkeypatch.setenv(KERNELS_ENV, AUTO)
    monkeypatch.setattr(perf, "_fallback_warned", False)
    with pytest.warns(RuntimeWarning, match="does not load"):
        assert kernel_mode() == REFERENCE


def test_failed_compile_reports_its_cause(fresh_native, monkeypatch):
    monkeypatch.setattr(fresh_native, "_compiler", lambda: "false")
    monkeypatch.setenv(KERNELS_ENV, NATIVE)
    with pytest.raises(RuntimeError, match="false could not build"):
        kernel_mode()
    monkeypatch.setenv(KERNELS_ENV, AUTO)
    with pytest.warns(RuntimeWarning, match="false could not build"):
        assert kernel_mode() == REFERENCE


def _recount_oracle(graph, peeled, vertices, coreness, k):
    """The recount spelled out per vertex, neighbor by neighbor."""
    out = []
    for v in vertices.tolist():
        count = 0
        for u in graph.neighbors(v).tolist():
            alive = not peeled[u]
            if coreness is not None:
                alive = alive or coreness[u] >= k
            count += int(alive)
        out.append(count)
    return np.asarray(out, dtype=np.int64)


def _recount_inputs(seed: int):
    """A graph with isolated vertices and one fully peeled neighborhood."""
    from repro.graphs.csr import CSRGraph

    rng = np.random.default_rng(seed)
    n = 60
    edges = rng.integers(0, n - 6, size=(220, 2))  # the last 6 stay isolated
    graph = CSRGraph.from_edges(n, edges)
    peeled = rng.random(n) < 0.4
    peeled[graph.neighbors(0)] = True
    coreness = rng.integers(0, 6, size=n).astype(np.int64)
    vertices = np.concatenate(
        [
            rng.integers(0, n, size=40),  # unsorted, with repeats
            [0, 0, n - 1, n - 2, 0],  # peeled neighborhood, zero degree
        ]
    ).astype(np.int64)
    return graph, peeled, coreness, vertices


@pytest.mark.parametrize("mode", [REFERENCE, *FAST_MODES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recount_alive_matches_oracle(mode, seed):
    from repro.perf.kernels import KernelScratch, recount_alive

    graph, peeled, coreness, vertices = _recount_inputs(seed)
    scratch = KernelScratch(graph, mode)
    for k in (0, 2, 5, 9):
        for core in (None, coreness):
            expected = _recount_oracle(graph, peeled, vertices, core, k)
            got = recount_alive(scratch, peeled, vertices, core, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (k, core is None)
    assert recount_alive(scratch, peeled, vertices[:0]).size == 0
    all_peeled = np.ones(graph.n, dtype=bool)
    assert not recount_alive(scratch, all_peeled, vertices).any()


@pytest.mark.parametrize("mode", [REFERENCE, *FAST_MODES])
def test_recount_alive_trailing_isolated_vertex(mode):
    """An empty neighborhood after a full one leaves the full one whole."""
    from repro.graphs.csr import CSRGraph
    from repro.perf.kernels import KernelScratch, recount_alive

    graph = CSRGraph.from_edges(4, [(0, 1), (0, 2)])
    peeled = np.zeros(4, dtype=bool)
    vertices = np.array([3, 1, 3, 0, 3], dtype=np.int64)
    got = recount_alive(KernelScratch(graph, mode), peeled, vertices)
    assert got.tolist() == [0, 1, 0, 2, 0]


@pytest.mark.parametrize("mode", FAST_MODES)
def test_recount_alive_rejects_bad_input(mode):
    from repro.perf.kernels import KernelScratch, recount_alive

    graph, peeled, coreness, _ = _recount_inputs(0)
    scratch = KernelScratch(graph, mode)
    with pytest.raises(IndexError):
        recount_alive(scratch, peeled, np.array([graph.n], dtype=np.int64))
    with pytest.raises(IndexError):
        recount_alive(scratch, peeled, np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError, match="peeled"):
        recount_alive(scratch, peeled.astype(np.int64), np.array([0]))
    with pytest.raises(ValueError, match="coreness"):
        recount_alive(
            scratch, peeled, np.array([0]), coreness.astype(np.int32), 1
        )
    with pytest.raises(ValueError, match="coreness"):
        recount_alive(scratch, peeled, np.array([0]), coreness[::2], 1)


def _flat_kernel_call(kernel: str, graph, **bad):
    """Call a flat native kernel wrapper on well-formed inputs, except
    for the ``bad`` overrides; returns the ``dtilde`` it may mutate."""
    from repro.perf import native
    from repro.perf.kernels import KernelScratch

    n = graph.n
    scratch = KernelScratch(graph, NATIVE)
    args = {
        "dtilde": graph.degrees.copy(),
        "peeled": np.zeros(n, dtype=bool),
        "frontier": np.array([0, 1], dtype=np.int64),
        "out": scratch.touched_buf(),
    }
    args.update(bad)
    if kernel == "task_loop":
        native.run_task_loop(
            graph, args["dtilde"], args["peeled"], np.zeros(n, np.int64),
            None, args["frontier"], 0, 4, 64, scratch,
        )
    elif kernel == "pkc_round":
        native.run_pkc_round(
            graph, args["dtilde"], args["peeled"], np.zeros(n, np.int64),
            args["frontier"], 0, 2, scratch.queue_buf(n),
            scratch.count_buf(), scratch.touched_buf(), scratch,
        )
    elif kernel == "scan_peel":
        native.run_scan_peel(
            graph, args["dtilde"], args["frontier"], scratch.count_buf(),
            scratch.touched_buf(), scratch,
        )
    else:
        native.run_scan_frontier(
            args["dtilde"], args["peeled"], 1, args["out"], scratch
        )
    return args["dtilde"]


#: One rejected input each: (kernel, argument, bad value from n, error).
BAD_FLAT = {
    f"{kernel}-frontier-{what}": (kernel, "frontier", value, IndexError)
    for kernel in ("task_loop", "pkc_round", "scan_peel")
    for what, value in (
        ("above-n", lambda n: np.array([0, n])),
        ("negative", lambda n: np.array([-1, 0])),
    )
}
BAD_FLAT.update({
    "scan_frontier-dtilde-int32": (
        "scan_frontier", "dtilde", lambda n: np.zeros(n, np.int32),
        ValueError,
    ),
    "scan_frontier-dtilde-strided": (
        "scan_frontier", "dtilde", lambda n: np.zeros(2 * n, np.int64)[::2],
        ValueError,
    ),
    "scan_frontier-peeled-short": (
        "scan_frontier", "peeled", lambda n: np.zeros(n - 1, bool),
        ValueError,
    ),
    "scan_frontier-peeled-uint8": (
        "scan_frontier", "peeled", lambda n: np.zeros(n, np.uint8),
        ValueError,
    ),
    "scan_frontier-out-too-small": (
        "scan_frontier", "out", lambda n: np.empty(n - 1, np.int64),
        ValueError,
    ),
})


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("case", sorted(BAD_FLAT))
def test_flat_kernels_reject_bad_input(case):
    """Frontier ids and array layouts are checked before C reads them."""
    kernel, name, bad, error = BAD_FLAT[case]
    graph = erdos_renyi(40, 4.0, seed=1)
    _flat_kernel_call(kernel, graph)  # well-formed: accepted
    dtilde = graph.degrees.copy()
    overrides = {name: bad(graph.n)}
    overrides.setdefault("dtilde", dtilde)
    with pytest.raises(error, match=name):
        _flat_kernel_call(kernel, graph, **overrides)
    assert np.array_equal(dtilde, graph.degrees)


# ---------------------------------------------------------------------------
# The native HBS: closed-form extraction prices, sorted frontiers, checks
# ---------------------------------------------------------------------------


def _hbs_ledger(graph, mode, dtilde=None, decrease=None):
    """Build an HBS under ``mode``, optionally DecreaseKey, then one round.

    ``decrease`` is ``(vertices, new keys)``: the keys are written to
    ``dtilde`` and the vertices passed with their old keys.  Returns the
    round and the ledger steps.
    """
    from repro.runtime.simulator import SimRuntime
    from repro.structures.hbs import HierarchicalBuckets

    dtilde = graph.degrees.astype(np.int64) if dtilde is None else dtilde
    runtime = SimRuntime()
    structure = HierarchicalBuckets()
    structure.build(
        graph, dtilde, np.zeros(graph.n, dtype=bool), runtime,
        KernelScratch(graph, mode),
    )
    if decrease is not None:
        vertices, keys = decrease
        old = dtilde[vertices].copy()
        dtilde[vertices] = keys
        structure.on_decrements(vertices, old)
    step = structure.next_round()
    ledger = [
        (s.work, s.span, s.barriers, s.tag) for s in runtime.metrics.steps
    ]
    return step, ledger


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize(
    "copies", [1, 191, 192, 193, 575, 576, 577, 1343, 1344, 1345]
)
def test_native_hbs_prices_extraction_in_closed_form(copies):
    """A bag's scanned prefix at and around every chunk boundary."""
    from repro.structures.hash_bag import extract_prefix

    graph = empty_graph(copies)
    native_step, native_ledger = _hbs_ledger(graph, NATIVE)
    reference_step, reference_ledger = _hbs_ledger(graph, REFERENCE)
    assert native_step[0] == reference_step[0] == 0
    assert np.array_equal(native_step[1], reference_step[1])
    assert native_ledger == reference_ledger
    unit = DEFAULT_COST_MODEL.bag_extract_op
    assert native_ledger[-1] == (
        unit * extract_prefix(copies), unit, 1, "bag_extract"
    )


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_native_hbs_sorts_shuffled_frontiers():
    """Copies land in DecreaseKey order; the frontier comes out sorted."""
    n = 70_000  # ids past 2**16: three radix passes
    rng = np.random.default_rng(5)
    graph = empty_graph(n)
    movers = rng.permutation(n)[: n // 2].astype(np.int64)
    outs = []
    for mode in (NATIVE, REFERENCE):
        dtilde = np.full(n, 9, dtype=np.int64)
        outs.append(
            _hbs_ledger(graph, mode, dtilde, (movers, np.zeros(n // 2)))
        )
    (k, frontier), ledger = outs[0]
    assert k == 0
    assert np.array_equal(frontier, np.sort(movers))
    assert np.array_equal(frontier, outs[1][0][1])
    assert ledger == outs[1][1]


@pytest.mark.parametrize("mode", [REFERENCE] + FAST_MODES)
def test_hbs_key_below_layout_raises(mode):
    from repro.runtime.simulator import SimRuntime
    from repro.structures.hbs import HierarchicalBuckets

    graph = erdos_renyi(40, 4.0, seed=1)
    dtilde = graph.degrees.astype(np.int64)
    structure = HierarchicalBuckets()
    structure.build(
        graph, dtilde, np.zeros(graph.n, dtype=bool), SimRuntime(),
        KernelScratch(graph, mode),
    )
    old = dtilde[[3]].copy()
    dtilde[3] = -1
    with pytest.raises(ValueError, match="below"):
        structure.on_decrements(np.array([3]), old)
    with pytest.raises(ValueError, match="below"):
        structure.on_decrements(np.array([3]))


def _loaded_hbs(graph):
    """A native HBS loaded with every vertex: ``(scratch, buckets)``."""
    from repro.perf.kernels import hbs_load
    from repro.runtime.simulator import SimRuntime
    from repro.structures.hbs import interval_layout

    scratch = KernelScratch(graph, NATIVE)
    dtilde = graph.degrees.astype(np.int64)
    buckets = hbs_load(
        scratch, dtilde, np.arange(graph.n, dtype=np.int64),
        interval_layout(0, int(dtilde.max())), SimRuntime(),
    )
    return scratch, buckets


def _hbs_kernel_call(kernel: str, graph, scratch, buckets, **bad):
    """Call an HBS kernel wrapper on a loaded structure with well-formed
    inputs, except for the ``bad`` overrides."""
    from repro.perf import native

    n = graph.n
    dtilde = graph.degrees.astype(np.int64)
    args = {
        "dtilde": dtilde,
        "peeled": np.zeros(n, dtype=bool),
        "marks": scratch.count_buf(),
        "vertices": np.array([0, 1], dtype=np.int64),
        "old_keys": dtilde[[0, 1]] + 8,
    }
    args.update(bad)
    for name in ("out", "live"):
        if name in bad:
            setattr(buckets, name, bad[name])
    if kernel == "decrease":
        native.run_hbs_decrease(
            args["dtilde"], args["vertices"], args["old_keys"], True,
            buckets,
        )
    else:
        native.run_hbs_next_round(
            args["dtilde"], args["peeled"], args["marks"], buckets, 256,
            192, 0, scratch,
        )


#: One rejected input each: (kernel, argument, bad value from n, error).
BAD_HBS = {
    "decrease-vertices-above-n": (
        "decrease", "vertices", lambda n: np.array([0, n]), IndexError,
    ),
    "decrease-vertices-negative": (
        "decrease", "vertices", lambda n: np.array([-1, 0]), IndexError,
    ),
    "decrease-old_keys-short": (
        "decrease", "old_keys", lambda n: np.array([9]), ValueError,
    ),
    "decrease-dtilde-int32": (
        "decrease", "dtilde", lambda n: np.zeros(n, np.int32), ValueError,
    ),
    "next_round-dtilde-strided": (
        "next_round", "dtilde", lambda n: np.zeros(2 * n, np.int64)[::2],
        ValueError,
    ),
    "next_round-peeled-uint8": (
        "next_round", "peeled", lambda n: np.zeros(n, np.uint8), ValueError,
    ),
    "next_round-peeled-short": (
        "next_round", "peeled", lambda n: np.zeros(n - 1, bool), ValueError,
    ),
    "next_round-marks-short": (
        "next_round", "marks", lambda n: np.zeros(n - 1, np.int64),
        ValueError,
    ),
    "next_round-out-too-small": (
        "next_round", "out", lambda n: np.empty(n - 1, np.int64), ValueError,
    ),
    "next_round-live-too-small": (
        "next_round", "live", lambda n: np.empty(n - 1, np.int64),
        ValueError,
    ),
}


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("case", sorted(BAD_HBS))
def test_hbs_kernels_reject_bad_input(case):
    """Ids, lengths, layouts and capacities are checked before C runs."""
    kernel, name, bad, error = BAD_HBS[case]
    graph = erdos_renyi(40, 4.0, seed=1)
    _hbs_kernel_call(kernel, graph, *_loaded_hbs(graph))  # accepted
    scratch, buckets = _loaded_hbs(graph)
    state = buckets.state.copy()
    counts = buckets.slots[4].copy()
    with pytest.raises(error, match=name):
        _hbs_kernel_call(
            kernel, graph, scratch, buckets, **{name: bad(graph.n)}
        )
    assert np.array_equal(buckets.state, state)
    assert np.array_equal(buckets.slots[4], counts)
