"""The repro.bench subsystem: disk cache, matrix runner, CLI.

Everything runs on tiny suite graphs with a per-test cache directory, so
the tests exercise the real cold -> warm lifecycle (including the
process pool) in seconds without touching the repository's cache.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import DISK_CACHE_ENV, ExperimentCache
from repro.bench.cache import CACHE_DIR_ENV, DiskCache, cache_key
from repro.bench.cli import main
from repro.bench.runner import (
    BenchCell,
    compare_kernels,
    compare_kernels_all,
    default_matrix,
    execute,
    run_cell,
)
from repro.perf import AUTO, KERNELS_ENV, REFERENCE
from repro.regress.matrix import ENGINES


class TestCacheKey:
    def test_insensitive_to_field_order(self):
        assert cache_key({"a": 1, "b": [2, 3]}) == cache_key(
            {"b": [2, 3], "a": 1}
        )

    def test_sensitive_to_values(self):
        assert cache_key({"a": 1}) != cache_key({"a": 2})

    def test_cell_key_pins_engine_graph_size_and_kernels(self):
        base = BenchCell("ours", "GL2-S", size="tiny")
        assert base.key() != BenchCell("bz", "GL2-S", size="tiny").key()
        assert base.key() != BenchCell("ours", "AF-S", size="tiny").key()
        assert base.key() != BenchCell("ours", "GL2-S", size="full").key()
        assert base.key() != BenchCell("ours", "GL2-S", size="large").key()
        assert (
            base.key()
            != BenchCell(
                "ours", "GL2-S", size="tiny", kernels="reference"
            ).key()
        )


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"x": 1})
        assert cache.get("deadbeef") == {"x": 1}
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", {"x": 1})
        cache.path("k").write_text("{not json")
        assert cache.get("k") is None

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envdir"))
        cache = DiskCache()
        cache.put("k", {"x": 2})
        assert (tmp_path / "envdir" / "k.json").exists()


class TestMatrix:
    def test_default_matrix_covers_all_engines_and_graphs(self):
        from repro.generators.suite import SUITE

        cells = default_matrix()
        assert len(cells) == len(ENGINES) * len(SUITE)

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="unknown engine"):
            default_matrix(engines=["warp"])

    def test_unknown_graph_rejected(self):
        with pytest.raises(KeyError, match="unknown suite graph"):
            default_matrix(graphs=["nope"])

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown suite size"):
            default_matrix(size="huge")

    def test_large_size_accepted(self):
        cells = default_matrix(
            engines=["ours"], graphs=["GL2-S"], size="large"
        )
        assert cells[0].size == "large"
        assert "/large/" in cells[0].label


class TestRunner:
    CELLS = [
        BenchCell(engine, graph, size="tiny")
        for engine in ("bz", "ours")
        for graph in ("GL2-S", "AF-S")
    ]

    def test_cold_then_warm(self, tmp_path):
        cache = DiskCache(tmp_path)
        cold = execute(self.CELLS, jobs=1, cache=cache)
        assert cold["summary"]["misses"] == len(self.CELLS)
        assert cold["summary"]["hits"] == 0
        assert cold["summary"]["measured_wall_s"] > 0
        assert cold["summary"]["cached_wall_s"] == 0

        warm = execute(self.CELLS, jobs=1, cache=cache)
        assert warm["summary"]["hits"] == len(self.CELLS)
        assert warm["summary"]["misses"] == 0
        # A warm run still reports full timings: every cell carries the
        # wall-clock of the run that produced its payload, and the
        # per-engine totals aggregate hits and misses alike.
        assert warm["summary"]["measured_wall_s"] == 0
        assert warm["summary"]["cached_wall_s"] > 0
        assert warm["summary"]["by_engine_wall_s"].keys() == {"bz", "ours"}
        assert all(
            wall > 0
            for wall in warm["summary"]["by_engine_wall_s"].values()
        )
        # The warm payloads are the cold ones, byte for byte.
        for before, after in zip(cold["cells"], warm["cells"]):
            assert before["coreness_sha256"] == after["coreness_sha256"]
            assert before["key"] == after["key"]
            assert after["wall_s"] == before["wall_s"]

    def test_refresh_ignores_cache(self, tmp_path):
        cache = DiskCache(tmp_path)
        execute(self.CELLS[:1], jobs=1, cache=cache)
        again = execute(self.CELLS[:1], jobs=1, cache=cache, refresh=True)
        assert again["summary"]["misses"] == 1

    def test_pool_matches_inline(self, tmp_path):
        inline = execute(self.CELLS, jobs=1, cache=DiskCache(tmp_path / "a"))
        pooled = execute(self.CELLS, jobs=2, cache=DiskCache(tmp_path / "b"))
        fingerprint = lambda rep: [
            (c["engine"], c["graph"], c["coreness_sha256"], c["m"])
            for c in rep["cells"]
        ]
        assert fingerprint(inline) == fingerprint(pooled)

    def test_graph_cache_summary_independent_of_jobs(
        self, tmp_path, monkeypatch
    ):
        """Cold runs report the same ``summary.caches`` inline and pooled."""
        from repro.generators import suite

        cells = [
            BenchCell(engine, graph, size="tiny")
            for engine in ("ours", "bz")
            for graph in ("GRID", "LJ-S")
        ]
        caches = []
        for jobs in (1, 2, 2):
            monkeypatch.setenv(
                "REPRO_GRAPH_CACHE", str(tmp_path / f"graphs-{len(caches)}")
            )
            suite.load.cache_clear()
            report = execute(
                cells, jobs=jobs,
                cache=DiskCache(tmp_path / f"cells-{len(caches)}"),
            )
            caches.append(report["summary"]["caches"])
        suite.load.cache_clear()
        assert caches[0]["graph_npz"] == {"miss": 2}
        assert caches[0] == caches[1] == caches[2]

    def test_default_cell_runs_reference_without_compiler(
        self, monkeypatch, no_compiler
    ):
        monkeypatch.setenv(KERNELS_ENV, AUTO)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            cell = BenchCell("ours", "GL2-S", size="tiny")
        assert cell.kernels == REFERENCE
        assert cell.label == "ours/GL2-S/tiny/reference"
        assert run_cell(cell)["coreness"]

    def test_payload_matches_direct_run(self):
        from repro.generators import suite
        from repro.regress.matrix import coreness_fingerprint
        from repro.runtime.cost_model import DEFAULT_COST_MODEL

        payload = run_cell(BenchCell("julienne", "GL2-S", size="tiny"))
        graph = suite.load("GL2-S", tiny=True)
        result = ENGINES["julienne"](graph, DEFAULT_COST_MODEL)
        assert payload["coreness"] == coreness_fingerprint(result.coreness)
        assert payload["metrics"] == result.metrics.to_stable_dict(
            DEFAULT_COST_MODEL
        )
        assert payload["wall"]["wall_s"] >= 0

    def test_compare_kernels_tiny(self):
        comp = compare_kernels(graphs=["GL2-S"], size="tiny")
        assert comp["engine"] == "ours"
        assert comp["wall_s"]["reference"] > 0
        assert comp["wall_s"]["native"] > 0
        assert comp["fastest"] != "reference"
        assert set(comp["graphs"]) == {"GL2-S"}

    def test_compare_kernels_all_covers_baselines(self):
        report = compare_kernels_all(
            graphs=["GL2-S"],
            size="tiny",
            engines=("pkc", "julienne"),
            modes=("reference", "native"),
        )
        assert set(report["per_engine"]) == {"pkc", "julienne"}
        for engine, comp in report["per_engine"].items():
            assert comp["engine"] == engine
            assert comp["wall_s"]["reference"] > 0
            assert comp["wall_s"]["native"] > 0
            assert set(comp["graphs"]) == {"GL2-S"}


class TestCLI:
    ARGS = [
        "--tiny",
        "--engines",
        "bz,ours",
        "--graphs",
        "GL2-S",
        "--jobs",
        "1",
    ]

    def test_cold_then_warm_all_hits(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        args = self.ARGS + ["--cache-dir", str(tmp_path / "c"), "--output", out]
        assert main(args) == 0
        assert main(args + ["--assert-all-hits"]) == 0
        report = json.loads(open(out).read())
        assert report["summary"]["hits"] == 2
        assert {c["cache"] for c in report["cells"]} == {"hit"}
        printed = capsys.readouterr().out
        assert "2 hits" in printed

    def test_assert_all_hits_fails_cold(self, tmp_path):
        args = self.ARGS + [
            "--cache-dir",
            str(tmp_path / "c"),
            "--output",
            "-",
            "--assert-all-hits",
        ]
        assert main(args) == 1

    def test_assert_wall_budget(self, tmp_path):
        args = self.ARGS + [
            "--cache-dir",
            str(tmp_path / "c"),
            "--output",
            "-",
            "--assert-wall-budget",
            "1e-9",
        ]
        # A cold run measures real wall time, which busts a 1ns budget;
        # the warm rerun measures nothing and passes.
        assert main(args) == 1
        assert main(args) == 0

    def test_tiny_and_large_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["--tiny", "--large"])


class TestExperimentDiskCache:
    def test_records_roundtrip_across_instances(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_TINY", "1")
        monkeypatch.setenv(DISK_CACHE_ENV, "1")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        first = ExperimentCache()
        record = first.get("bz", "GL2-S")
        assert len(DiskCache(tmp_path)) == 1

        # Tamper with the stored payload: a second cache instance must
        # read the disk record, not recompute.
        disk = DiskCache(tmp_path)
        key = next(disk.root.glob("*.json")).stem
        payload = disk.get(key)
        payload["kmax"] = 999
        disk.put(key, payload)
        second = ExperimentCache()
        assert second.get("bz", "GL2-S").kmax == 999
        assert record.kmax != 999

    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_TINY", "1")
        monkeypatch.delenv(DISK_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        ExperimentCache().get("bz", "GL2-S")
        assert len(DiskCache(tmp_path)) == 0
