"""Rules the differential harness applies to every subject.

One raise rule, one kernel-mode loop, one CLI verb — and the ``shard``
subject, swept clean and with a substituted faulty pooled runner.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.baselines.julienne import julienne_kcore
from repro.core.sequential import bz_core
from repro.generators import suite
from repro.perf import KERNELS_ENV, REFERENCE
from repro.regress import harness, load_reproducer, replay, run_oracle
from repro.regress.cli import COMMANDS, build_parser
from repro.shard import shard_coreness


def _fragile(graph, model):
    """Seeded fault: raises on any vertex of degree >= 5."""
    if graph.n and graph.degrees.max() >= 5:
        raise RuntimeError("hub vertex")
    return julienne_kcore(graph, model)


def _capped_pooled(graph, model, workers):
    """Seeded fault: pooled runs cap coreness at 3; inline is correct.

    It computes inline either way, so shrinking spawns no pool.
    """
    result = shard_coreness(graph, model, workers=0)
    if workers > 0:
        np.minimum(result.coreness, 3, out=result.coreness)
    return result


class TestRaisedRule:
    def test_raise_is_a_finding_and_the_sweep_goes_on(self):
        report = run_oracle(
            "engines",
            ["LJ-S", "HCNS"],
            runners={"fragile": _fragile, "julienne": julienne_kcore},
        )
        # Both graphs have hubs: the sweep reached the second one.
        assert [(f.case.label, f.case.runner) for f in report.findings] == [
            ("LJ-S", "fragile"), ("HCNS", "fragile"),
        ]
        for finding in report.findings:
            assert finding.divergence.kind == "raised"
            assert finding.divergence.got == "RuntimeError"
            assert "hub vertex" in finding.divergence.detail
            witness = finding.witness.graph
            # A vertex of degree 5 and its five neighbours.
            assert witness.n == 6 and witness.degrees.max() == 5


class TestShardSubject:
    def test_clean_sweep_of_one_small_graph(self, monkeypatch):
        inline_runs = []

        def counted(graph, model, workers):
            inline_runs.append(workers)
            return shard_coreness(graph, model, workers=workers)

        monkeypatch.setattr(harness, "_shard_run", counted)
        report = run_oracle("shard", ["GRID"], workers=(1, 2))
        assert report.findings == []
        # Worker count 0 (inline vs BZ) anchors every graph.
        assert report.cases == 3
        # The pooled cases share one inline reference run.
        assert inline_runs == [0]

    def test_faulty_pooled_runner_is_found_minimized_and_dumped(
        self, tmp_path
    ):
        report = run_oracle(
            "shard",
            ["LJ-S"],
            workers=(2,),
            runners={"shard": _capped_pooled},
            dump_dir=tmp_path,
        )
        [finding] = report.findings
        assert finding.case.workers == 2
        assert finding.divergence.kind == "coreness"
        assert "inline" in finding.divergence.detail
        assert finding.witness.graph.n <= 8

        case, payload = load_reproducer(finding.reproducer_path)
        assert payload["subject"] == "shard"
        assert payload["workers"] == 2 and case.workers == 2
        assert payload["kernels"] == finding.kernels
        # The divergent pair is inline vs pooled, not BZ vs inline.
        inline = shard_coreness(case.graph, workers=0).coreness
        assert payload["expected"] == inline.tolist()
        assert payload["got"] == np.minimum(inline, 3).tolist()
        assert np.array_equal(bz_core(case.graph).coreness, inline)

        assert replay(finding.reproducer_path, {"shard": _capped_pooled})
        assert replay(finding.reproducer_path) is None


class TestKernelModeLoop:
    def test_every_mode_swept_and_env_restored(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        report = run_oracle(
            "engines", ["GRID"], kernels=[REFERENCE, REFERENCE]
        )
        assert report.kernels == [REFERENCE, REFERENCE]
        assert KERNELS_ENV not in os.environ
        monkeypatch.setenv(KERNELS_ENV, "auto")
        run_oracle("engines", ["GRID"], kernels=[REFERENCE])
        assert os.environ[KERNELS_ENV] == "auto"

    def test_cli_kernels_are_resolved_or_rejected(self, capsys):
        """``--kernels`` sweeps the modes runs resolve to, or exits 2."""
        from repro.perf import kernel_mode, kernel_modes, kernels_env
        from repro.regress.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["oracle", "--kernels", "turbo"])
        assert exited.value.code == 2
        assert "REPRO_KERNELS must be one of" in capsys.readouterr().err
        with kernels_env("auto"):
            resolved = kernel_mode()
        code = main(
            [
                "oracle", "--subject", "shard", "--graphs", "GRID",
                "--workers", "1", "--kernels", "auto, auto",
            ]
        )
        assert code == 0
        assert f"kernel modes {{{resolved}}}" in capsys.readouterr().out
        expected = [REFERENCE] if resolved == REFERENCE else [
            REFERENCE, resolved,
        ]
        assert kernel_modes("reference,auto,reference") == expected

    def test_findings_record_their_kernel_mode(self, tmp_path):
        report = run_oracle(
            "engines",
            ["HCNS"],
            kernels=[REFERENCE],
            runners={"fragile": _fragile},
            dump_dir=tmp_path,
        )
        [finding] = report.findings
        assert finding.kernels == REFERENCE
        _, payload = load_reproducer(finding.reproducer_path)
        assert payload["kernels"] == REFERENCE


class TestOneVerb:
    def test_one_oracle_verb_with_at_most_seven_flags(self):
        assert "oracle" in COMMANDS
        assert not any(name.startswith("oracle-") for name in COMMANDS)
        parser = build_parser()
        [sub] = [
            action for action in parser._actions
            if action.dest == "command"
        ]
        oracle = sub.choices["oracle"]
        flags = [
            action for action in oracle._actions
            if action.option_strings and action.dest != "help"
        ]
        assert len(flags) <= 7, [a.option_strings for a in flags]

    def test_small_names_the_small_set(self, capsys):
        from repro.regress.cli import main

        code = main(
            [
                "oracle", "--subject", "shard", "--graphs", "SMALL",
                "--workers", "1", "--kernels", "reference",
            ]
        )
        assert code == 0
        cases = 2 * len(suite.SMALL)
        assert f"{cases} cases" in capsys.readouterr().out
