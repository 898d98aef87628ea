"""The ``python -m repro.regress`` CLI: run / bless / diff / oracle / list."""

from __future__ import annotations

import json

import pytest

from repro.regress.cli import main
from repro.runtime.cost_model import CostModelOverrides
from repro.runtime.metrics import METRICS_SCHEMA_VERSION

#: A narrow filter keeping CLI runs to a couple of matrix cases.
FILTER = ["-k", "julienne/grid-24"]


def _bless(tmp_path, extra=()):
    return main(
        ["--goldens-dir", str(tmp_path), "bless", *FILTER, *extra]
    )


class TestRunBlessDiff:
    def test_unblessed_run_fails(self, tmp_path, capsys):
        code = main(["--goldens-dir", str(tmp_path), "run", *FILTER])
        assert code == 1
        assert "UNBLESSED" in capsys.readouterr().out

    def test_bless_then_run_passes(self, tmp_path, capsys):
        assert _bless(tmp_path) == 0
        out = capsys.readouterr().out
        assert "blessed" in out and "julienne.json" in out
        assert main(["--goldens-dir", str(tmp_path), "run", *FILTER]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_golden_file_shape(self, tmp_path):
        _bless(tmp_path)
        payload = json.loads((tmp_path / "julienne.json").read_text())
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert payload["engine"] == "julienne"
        entry = payload["entries"]["grid-24/default"]
        assert set(entry) == {"graph", "coreness", "metrics"}
        assert entry["metrics"]["time_p1"] > 0

    def test_perturbation_fails_run_and_diff(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.regress import matrix as matrix_mod

        _bless(tmp_path)
        capsys.readouterr()
        monkeypatch.setitem(
            matrix_mod.COST_MODELS,
            "default",
            CostModelOverrides().with_fields(omega=12_000.0),
        )
        assert main(["--goldens-dir", str(tmp_path), "run", *FILTER]) == 1
        out = capsys.readouterr().out
        assert "DRIFT julienne/grid-24/default" in out
        assert "metrics.burdened_span" in out and "->" in out
        assert (
            main(["--goldens-dir", str(tmp_path), "diff", *FILTER]) == 1
        )

    def test_diff_json_format(self, tmp_path, capsys):
        _bless(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "--goldens-dir", str(tmp_path),
                "diff", *FILTER, "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_partial_bless_merges(self, tmp_path, capsys):
        _bless(tmp_path)
        assert (
            main(
                [
                    "--goldens-dir", str(tmp_path),
                    "bless", "-k", "julienne/hcns-64",
                ]
            )
            == 0
        )
        payload = json.loads((tmp_path / "julienne.json").read_text())
        assert "grid-24/default" in payload["entries"]
        assert "hcns-64/default" in payload["entries"]

    def test_full_run_against_committed_goldens(self, capsys):
        """CI's regress gate, exercised in-process."""
        assert main(["run"]) == 0
        assert capsys.readouterr().out.startswith("OK:")


class TestOracleAndList:
    def test_oracle_clean(self, capsys):
        code = main(["oracle", "--graphs", "GRID,CUBE"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: every engine agrees with BZ")
        assert "kernel modes {reference" in out

    def test_oracle_unknown_graph(self):
        with pytest.raises(KeyError):
            main(["oracle", "--graphs", "NOPE"])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ours/er-300/default" in out
        assert "cases" in out
