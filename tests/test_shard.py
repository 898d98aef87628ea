"""Tests for repro.shard: partitioning, kernels, pool, engine, CLI.

The load-bearing properties:

* exactness — inline shard rounds match Batagelj–Zaversnik, and pooled
  runs match the inline oracle bit-for-bit (coreness AND ledger) for
  every worker count, kernel mode and start method;
* true mmap sharing — concurrent fork and spawn children map identical
  bytes out of the same cache file;
* loud failure — a corrupt, compressed or misaligned cache file raises
  :class:`ShardWorkerError` in the coordinator, never hangs a worker.
"""

from __future__ import annotations

import io
import json
import multiprocessing as mp
import zipfile

import numpy as np
import pytest

from repro.core.sequential import bz_core
from repro.generators import erdos_renyi, grid_2d, hcns, power_law_with_hub
from repro.graphs.io import load_npz, save_npz
from repro.perf import NATIVE, REFERENCE, native_available
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.shard import (
    RoundKernels,
    ShardPool,
    ShardWorkerError,
    graph_digest,
    partition_ranges,
    shard_coreness,
)
from repro.shard.pool import _digest_main
from repro.shard.partition import ShardPlan


def small_graphs():
    return [
        erdos_renyi(300, 6.0, seed=101),
        power_law_with_hub(500, 4, hub_count=2, hub_degree=120, seed=102),
        grid_2d(24, 24),
        hcns(64),
    ]


def ledger(result):
    return result.metrics.to_stable_dict(DEFAULT_COST_MODEL)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_bounds_cover_every_vertex_once(self):
        g = power_law_with_hub(500, 4, hub_count=2, hub_degree=120, seed=1)
        for shards in (1, 2, 3, 4, 7):
            plan = partition_ranges(g.indptr, shards)
            assert plan.shards == shards
            assert plan.bounds[0] == 0
            assert plan.bounds[-1] == g.n
            assert list(plan.bounds) == sorted(plan.bounds)

    def test_degree_balance(self):
        g = erdos_renyi(2000, 8.0, seed=2)
        weight = np.asarray(g.indptr) + np.arange(g.n + 1)
        total = int(weight[-1])
        plan = partition_ranges(g.indptr, 4)
        max_unit = int(g.degrees.max()) + 1
        for shard in range(plan.shards):
            lo, hi = plan.range_of(shard)
            share = int(weight[hi] - weight[lo])
            # Each shard is within one vertex's weight of the ideal cut.
            assert abs(share - total / 4) <= max_unit

    def test_more_shards_than_vertices(self):
        g = grid_2d(2, 2)
        plan = partition_ranges(g.indptr, 16)
        assert plan.shards == 16
        assert plan.bounds[-1] == g.n
        covered = [
            v
            for shard in range(plan.shards)
            for v in range(*plan.range_of(shard))
        ]
        assert covered == list(range(g.n))

    def test_invalid_shard_count_rejected(self):
        g = grid_2d(3, 3)
        with pytest.raises(ValueError):
            partition_ranges(g.indptr, 0)

    def test_plan_round_trips_to_dict(self):
        plan = ShardPlan(bounds=(0, 3, 9))
        assert plan.to_dict() == {"shards": 2, "bounds": [0, 3, 9]}


# ----------------------------------------------------------------------
# Round kernels
# ----------------------------------------------------------------------
class TestRoundKernels:
    def modes(self):
        return [REFERENCE] + ([NATIVE] if native_available() else [])

    def test_first_round_matches_reference_in_every_mode(self):
        for g in small_graphs():
            active = np.arange(g.n, dtype=np.int64)
            outs = {
                mode: RoundKernels(
                    g.indptr, g.indices, mode=mode
                ).hindex_round(active)
                for mode in self.modes()
            }
            base = outs.pop(REFERENCE)
            for mode, out in outs.items():
                assert np.array_equal(base, out), (g.name, mode)

    def test_next_active_is_neighbors_of_changed(self):
        g = erdos_renyi(200, 5.0, seed=3)
        changed = np.array([0, 17, 100], dtype=np.int64)
        expected = np.unique(
            np.concatenate([g.neighbors(int(v)) for v in changed])
        )
        for mode in self.modes():
            kernels = RoundKernels(g.indptr, g.indices, mode=mode)
            got = kernels.next_active(changed)
            assert np.array_equal(got, expected), mode
            lo, hi = 50, 150
            window = RoundKernels(
                g.indptr, g.indices, lo=lo, hi=hi, mode=mode
            ).next_active(changed)
            assert np.array_equal(
                window, expected[(expected >= lo) & (expected < hi)]
            ), mode

    def test_empty_active_set(self):
        g = grid_2d(4, 4)
        for mode in self.modes():
            kernels = RoundKernels(g.indptr, g.indices, mode=mode)
            assert kernels.hindex_round(np.zeros(0, np.int64)).size == 0
            assert kernels.next_active(np.zeros(0, np.int64)).size == 0


#: One rejected input each: (argument, bad value from (graph, est), error).
BAD_HINDEX_ROUND = {
    "active-above-n": ("active", lambda g, est: np.array([g.n]), IndexError),
    "active-negative": ("active", lambda g, est: np.array([-1]), IndexError),
    "est-int32": ("est", lambda g, est: est.astype(np.int32), ValueError),
    "est-short": ("est", lambda g, est: est[:-1].copy(), ValueError),
    "est-strided": (
        "est", lambda g, est: np.repeat(est, 2)[::2], ValueError
    ),
    "out-too-small": (
        "out", lambda g, est: np.empty(g.n - 1, np.int64), ValueError
    ),
    "hist-too-small": (
        "hist", lambda g, est: np.zeros(int(est.max()), np.int64), ValueError
    ),
}

BAD_MARK_DIRTY = {
    "changed-above-n": (
        "changed", lambda g: np.array([g.n]), IndexError
    ),
    "changed-negative": ("changed", lambda g: np.array([-1]), IndexError),
    "dirty-bool": ("dirty", lambda g: np.zeros(g.n, bool), ValueError),
    "dirty-short": (
        "dirty", lambda g: np.zeros(g.n - 1, np.uint8), ValueError
    ),
    "dirty-strided": (
        "dirty", lambda g: np.zeros(2 * g.n, np.uint8)[::2], ValueError
    ),
}


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("case", sorted(BAD_HINDEX_ROUND))
def test_hindex_round_rejects_bad_input(case):
    from repro.perf.native import run_hindex_round

    g = erdos_renyi(60, 4.0, seed=7)
    est = np.asarray(g.degrees, dtype=np.int64)
    args = {
        "est": est,
        "active": np.arange(g.n, dtype=np.int64),
        "out": np.empty(g.n, dtype=np.int64),
        "hist": np.zeros(int(est.max()) + 2, dtype=np.int64),
    }
    run_hindex_round(g.indptr, g.indices, **args)  # well-formed: accepted
    name, bad, error = BAD_HINDEX_ROUND[case]
    args[name] = bad(g, est)
    with pytest.raises(error, match=name):
        run_hindex_round(g.indptr, g.indices, **args)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("case", sorted(BAD_MARK_DIRTY))
def test_mark_dirty_rejects_bad_input(case):
    from repro.perf.native import run_mark_dirty

    g = erdos_renyi(60, 4.0, seed=7)
    args = {
        "changed": np.array([0, 5], dtype=np.int64),
        "dirty": np.zeros(g.n, dtype=np.uint8),
    }
    run_mark_dirty(g.indptr, g.indices, **args)  # well-formed: accepted
    name, bad, error = BAD_MARK_DIRTY[case]
    args[name] = bad(g)
    with pytest.raises(error, match=name):
        run_mark_dirty(g.indptr, g.indices, **args)


# ----------------------------------------------------------------------
# Engine: inline oracle and pooled equality
# ----------------------------------------------------------------------
class TestEngine:
    def test_inline_matches_bz(self):
        for g in small_graphs():
            result = shard_coreness(g, workers=0)
            assert np.array_equal(
                result.coreness, bz_core(g, DEFAULT_COST_MODEL).coreness
            ), g.name
            assert result.algorithm == "shard"

    def test_pooled_bit_equal_to_inline(self):
        g = power_law_with_hub(500, 4, hub_count=2, hub_degree=120, seed=4)
        inline = shard_coreness(g, workers=0)
        for workers in (1, 2, 3):
            pooled = shard_coreness(g, workers=workers)
            assert np.array_equal(pooled.coreness, inline.coreness)
            assert ledger(pooled) == ledger(inline), workers

    def test_spawn_context_bit_equal(self):
        g = grid_2d(16, 16)
        inline = shard_coreness(g, workers=0)
        pooled = shard_coreness(g, workers=2, context="spawn")
        assert np.array_equal(pooled.coreness, inline.coreness)
        assert ledger(pooled) == ledger(inline)

    def test_pool_reuse_across_runs(self, tmp_path):
        g = erdos_renyi(300, 6.0, seed=5)
        path = str(tmp_path / "g.npz")
        save_npz(g, path, compress=False)
        inline = shard_coreness(g, workers=0)
        with ShardPool(
            path, partition_ranges(g.indptr, 2), mode=REFERENCE
        ) as pool:
            for _ in range(2):
                pooled = shard_coreness(g, pool=pool)
                assert np.array_equal(pooled.coreness, inline.coreness)
                assert ledger(pooled) == ledger(inline)

    def test_empty_graph(self):
        g = grid_2d(1, 1)
        result = shard_coreness(g, workers=2)
        assert result.coreness.size == 1
        assert result.coreness[0] == 0

    def test_round_limit_raises(self):
        g = grid_2d(8, 8)
        with pytest.raises(RuntimeError):
            shard_coreness(g, workers=0, max_rounds=1)

    @pytest.mark.parametrize("workers", [-1, -2])
    def test_negative_workers_rejected(self, workers, capsys):
        from repro.shard.cli import main

        with pytest.raises(ValueError, match="workers must be >= 0"):
            shard_coreness(grid_2d(8, 8), workers=workers)
        with pytest.raises(SystemExit) as exit_info:
            main(["GRID", "--tiny", "--workers", str(workers)])
        assert exit_info.value.code != 0
        assert "workers must be >= 0" in capsys.readouterr().err


# ----------------------------------------------------------------------
# mmap sharing across fork and spawn
# ----------------------------------------------------------------------
def _child_digests(path: str, method: str, children: int = 2) -> list[str]:
    """Digests computed by concurrent children using ``method`` start."""
    ctx = mp.get_context(method)
    pipes, procs = [], []
    for _ in range(children):
        parent_end, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_digest_main, args=(child_end, path))
        proc.start()
        child_end.close()
        pipes.append(parent_end)
        procs.append(proc)
    replies = [conn.recv() for conn in pipes]
    for proc in procs:
        proc.join(timeout=30)
    for status, payload in replies:
        assert status == "ok", payload
    return [payload for _, payload in replies]


class TestMmapSharing:
    @pytest.fixture()
    def cache_file(self, tmp_path):
        g = power_law_with_hub(400, 4, hub_count=2, hub_degree=90, seed=6)
        path = str(tmp_path / "shared.npz")
        save_npz(g, path, compress=False)
        return path

    def test_strict_mmap_load_is_a_true_mapping(self, cache_file):
        g = load_npz(cache_file, mmap=True, strict=True)
        # The CSR arrays must be zero-copy views onto the file mapping
        # (np.asarray wraps the memmap without copying).
        for array in (g.indptr, g.indices):
            assert not array.flags.owndata
            assert isinstance(array.base, np.memmap)
        from repro.shard import resolve_graph_path

        assert resolve_graph_path(g) == cache_file

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_concurrent_children_map_identical_bytes(
        self, cache_file, method
    ):
        expected = graph_digest(cache_file)
        digests = _child_digests(cache_file, method)
        assert digests == [expected] * len(digests)


# ----------------------------------------------------------------------
# Loud failure on bad cache files
# ----------------------------------------------------------------------
def _misaligned_npz(path: str, graph) -> None:
    """A stored npz whose int64 members start at a non-8-aligned offset."""
    arrays = {
        "name.npy": np.array(graph.name),
        "indptr.npy": np.asarray(graph.indptr),
        "indices.npy": np.asarray(graph.indices),
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for member, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            zinfo = zipfile.ZipInfo(member, date_time=(1980, 1, 1, 0, 0, 0))
            zinfo.compress_type = zipfile.ZIP_STORED
            # A 5-byte extra field shifts the member payload off any
            # 8-byte boundary (numpy pads npy headers to 64 bytes, so
            # without the shift the data offset would be 8-aligned).
            zinfo.extra = b"\x00\x00\x01\x00\x00"
            archive.writestr(zinfo, buf.getvalue())


class TestLoudFailure:
    def test_compressed_cache_fails_strict_load(self, tmp_path):
        g = grid_2d(6, 6)
        path = str(tmp_path / "compressed.npz")
        save_npz(g, path, compress=True)
        with pytest.raises(ValueError):
            load_npz(path, mmap=True, strict=True)
        # The non-strict path still loads (copying fallback).
        assert load_npz(path, mmap=True).n == g.n

    def test_misaligned_cache_fails_strict_load(self, tmp_path):
        g = grid_2d(6, 6)
        path = str(tmp_path / "misaligned.npz")
        _misaligned_npz(path, g)
        with pytest.raises(ValueError, match="unaligned"):
            load_npz(path, mmap=True, strict=True)

    def test_misaligned_cache_surfaces_as_coordinator_error(self, tmp_path):
        g = grid_2d(6, 6)
        path = str(tmp_path / "misaligned.npz")
        _misaligned_npz(path, g)
        with pytest.raises(ShardWorkerError, match="unaligned"):
            shard_coreness(g, workers=2, graph_path=path)

    def test_corrupt_cache_surfaces_as_coordinator_error(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a zip archive")
        g = grid_2d(6, 6)
        with pytest.raises(ShardWorkerError):
            shard_coreness(g, workers=2, graph_path=path)

    def test_worker_death_is_an_error_not_a_hang(self, tmp_path):
        g = grid_2d(6, 6)
        path = str(tmp_path / "g.npz")
        save_npz(g, path, compress=False)
        pool = ShardPool(path, partition_ranges(g.indptr, 2), REFERENCE)
        try:
            for proc in pool._procs:
                proc.terminate()
                proc.join(timeout=30)
            with pytest.raises(ShardWorkerError):
                pool.round(
                    np.zeros(0, np.int64), np.zeros(0, np.int64)
                )
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Registry metrics and the CLI report
# ----------------------------------------------------------------------
class TestObservability:
    def test_shard_counters_recorded(self):
        from repro.obs import MetricsRegistry, observing

        g = grid_2d(12, 12)
        registry = MetricsRegistry("shard-test")
        with observing(registry):
            result = shard_coreness(g, workers=2)
        counters = registry.counter_values("shard.")
        assert counters["shard.rounds"] == result.metrics.rounds
        assert counters["shard.deltas"] > 0
        shipped = registry.counter_values("shard.", family="host")
        assert shipped["shard.bytes_shipped"] > 0

    def test_report_is_worker_count_invariant(self, tmp_path, capsys):
        from repro.shard.cli import main

        reports = []
        for workers in (0, 2):
            out = tmp_path / f"report-{workers}.json"
            code = main(
                ["GRID", "--tiny", "--workers", str(workers),
                 "--output", str(out)]
            )
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["shard_report_version"] == 1
        assert payload["rounds"] > 0
        assert "workers" not in payload
