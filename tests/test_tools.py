"""Tests for the repository tooling (API doc generator, trace compare)."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import compare_traces  # noqa: E402
import gen_api_docs  # noqa: E402


class TestApiDocs:
    def test_generate_covers_modules(self):
        text = gen_api_docs.generate()
        for module in gen_api_docs.PUBLIC_MODULES:
            assert f"## `{module}`" in text

    def test_key_symbols_present(self):
        text = gen_api_docs.generate()
        for symbol in ("ParallelKCore", "HashBag", "CSRGraph",
                       "hindex_coreness", "table2"):
            assert symbol in text

    def test_no_undocumented_public_items(self):
        """Every public export must carry a docstring."""
        text = gen_api_docs.generate()
        assert "(undocumented)" not in text

    def test_main_writes_file(self, tmp_path):
        out = tmp_path / "API.md"
        assert gen_api_docs.main(["prog", str(out)]) == 0
        assert out.exists()
        assert out.read_text().startswith("# API index")

    def test_help_prints_usage_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            gen_api_docs.main(["prog", "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestCompareTraces:
    @staticmethod
    def _write(path, events):
        path.write_text(json.dumps({"traceEvents": events}))
        return str(path)

    def test_mode_tracks_are_ignored(self, tmp_path):
        step = {"ph": "X", "name": "dyn_peel", "ts": 1.0, "dur": 2.0}
        native = self._write(tmp_path / "n.json", [
            step,
            {"ph": "C", "name": "obs/kernel.mode.native", "ts": 3.0},
            {"ph": "C", "name": "obs/cache.native_so.hit", "ts": 3.0},
        ])
        reference = self._write(tmp_path / "r.json", [
            step,
            {"ph": "C", "name": "obs/kernel.mode.reference", "ts": 3.0},
        ])
        assert compare_traces.main([native, reference]) == 0

    def test_any_other_difference_fails(self, tmp_path, capsys):
        first = self._write(tmp_path / "a.json", [
            {"ph": "C", "name": "obs/dyn.batches", "ts": 1.0},
        ])
        second = self._write(tmp_path / "b.json", [
            {"ph": "C", "name": "obs/dyn.batches", "ts": 2.0},
        ])
        assert compare_traces.main([first, second]) == 1
        assert "differ at event 0" in capsys.readouterr().err
