"""Tests for the repository tooling (the API doc generator)."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

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

