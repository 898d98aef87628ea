"""The harness's ``engines`` subject: every engine vs sequential BZ.

This is the permanent cross-engine safety net the regression subsystem
hangs off: all exact engines must agree with Batagelj–Zaversnik on every
graph family of the generator suite (tiny renditions keep the sweep in
seconds), the approximate engine must honor its (1 + eps) guarantee, and
an injected fault must be caught and minimized to a tiny reproducer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.baselines.julienne import julienne_kcore
from repro.core.sequential import bz_core
from repro.generators import erdos_renyi, suite
from repro.regress import (
    APPROX_EPS,
    EXACT_ENGINES,
    Case,
    check_approximate,
    load_reproducer,
    replay,
    run_oracle,
)
from repro.regress.harness import ORACLE_ENGINES, check
from repro.regress.matrix import ENGINES
from repro.runtime.cost_model import DEFAULT_COST_MODEL


@lru_cache(maxsize=None)
def _tiny(name: str):
    return suite.load(name, tiny=True)


@lru_cache(maxsize=None)
def _oracle_coreness(name: str) -> tuple:
    return tuple(bz_core(_tiny(name)).coreness.tolist())


class TestExactEnginesAgree:
    @pytest.mark.parametrize("engine", sorted(EXACT_ENGINES))
    @pytest.mark.parametrize("name", sorted(suite.SUITE))
    def test_engine_matches_bz(self, engine, name):
        graph = _tiny(name)
        got = EXACT_ENGINES[engine](graph, DEFAULT_COST_MODEL).coreness
        expected = np.array(_oracle_coreness(name), dtype=np.int64)
        bad = np.nonzero(expected != got)[0]
        assert bad.size == 0, (
            f"{engine} disagrees with BZ on {name} at vertices "
            f"{bad[:10].tolist()}"
        )

    def test_exact_roster_covers_all_parallel_engines(self):
        assert set(EXACT_ENGINES) == set(ENGINES) - {"bz", "approx"}

    def test_check_exact_clean_on_correct_engine(self):
        case = Case("engines", "GRID", "julienne", _tiny("GRID"))
        assert check(case, EXACT_ENGINES["julienne"]) is None


class TestApproximateBounds:
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize(
        "name", ["LJ-S", "TW-S", "AF-S", "GL5-S", "GRID", "HCNS", "HPL"]
    )
    def test_guarantee_holds_on_suite(self, name, eps):
        from repro.core.approximate import approximate_coreness

        graph = _tiny(name)
        estimate = approximate_coreness(graph, eps=eps).coreness
        violations = check_approximate(graph, eps, estimate)
        assert violations.size == 0, violations[:10].tolist()

    def test_matrix_engine_honors_pinned_eps(self):
        graph = _tiny("LJ-S")
        estimate = ENGINES["approx"](graph, DEFAULT_COST_MODEL).coreness
        assert check_approximate(graph, APPROX_EPS, estimate).size == 0

    def test_violation_detected(self):
        graph = _tiny("GRID")
        exact = bz_core(graph).coreness
        inflated = exact * 10 + 5
        assert check_approximate(graph, 0.5, inflated, exact=exact).size


class TestFaultInjection:
    @staticmethod
    def _capped_engine(graph, model):
        """Seeded fault: silently caps coreness at 3 (wrong on kmax>3)."""
        result = julienne_kcore(graph, model)
        np.minimum(result.coreness, 3, out=result.coreness)
        return result

    @staticmethod
    def _inflated_approx(graph, model):
        """Seeded fault: estimates 2 * kappa + 1, outside every bound."""
        result = bz_core(graph, model)
        result.coreness = 2 * result.coreness + 1
        return result

    def test_fault_is_caught_and_minimized(self, tmp_path):
        report = run_oracle(
            "engines",
            ["LJ-S", "GRID"],
            runners={"capped": self._capped_engine},
            dump_dir=tmp_path,
        )
        # GRID (kmax == 2) cannot expose the cap; LJ-S (kmax > 3) must.
        assert [f.case.label for f in report.findings] == ["LJ-S"]
        finding = report.findings[0]
        assert finding.case.runner == "capped"
        assert finding.divergence.kind == "coreness"
        # ddmin shrinks the witness to (nearly) the minimal K5.
        assert finding.witness is not None
        assert finding.witness.graph.n <= 8
        assert bz_core(finding.witness.graph).coreness.max() > 3

    def test_reproducer_dump_replays(self, tmp_path):
        report = run_oracle(
            "engines",
            ["LJ-S"],
            runners={"capped": self._capped_engine},
            dump_dir=tmp_path,
        )
        path = report.findings[0].reproducer_path
        assert path is not None and path.exists()
        case, payload = load_reproducer(path)
        assert case.graph.n == payload["n"]
        assert (payload["subject"], payload["runner"]) == (
            "engines", "capped"
        )
        assert payload["kernels"] == report.kernels[0]
        expected = np.asarray(payload["expected"])
        got = self._capped_engine(case.graph, DEFAULT_COST_MODEL).coreness
        # The dumped pair reproduces from the file alone...
        assert np.array_equal(got, np.asarray(payload["got"]))
        assert np.array_equal(bz_core(case.graph).coreness, expected)
        # ...replay fails with the fault and is clean without it.
        divergence = replay(path, runners={"capped": self._capped_engine})
        assert divergence is not None and divergence.kind == "coreness"
        assert replay(path, runners={"capped": julienne_kcore}) is None

    def test_approx_fault_is_found_and_minimized(self, tmp_path):
        report = run_oracle(
            "engines",
            ["GRID"],
            runners={"approx": self._inflated_approx},
            dump_dir=tmp_path,
        )
        [finding] = report.findings
        assert finding.divergence.kind == "bound"
        # One vertex already breaks the bound (kappa = 0, estimate 1).
        assert finding.witness.graph.n == 1
        path = finding.reproducer_path
        assert replay(path, runners={"approx": self._inflated_approx})
        assert replay(path) is None

    def test_clean_roster_yields_no_findings(self):
        report = run_oracle("engines", ["GRID", "CUBE"])
        assert report.findings == []
        assert report.cases == 2 * len(ORACLE_ENGINES)


class TestOracleOffSuite:
    def test_random_graphs_agree(self):
        # Extra belt-and-braces corpus beyond the suite families.
        for seed in (1, 2, 3):
            graph = erdos_renyi(250, 7.0, seed=seed)
            expected = bz_core(graph).coreness
            for engine, runner in EXACT_ENGINES.items():
                got = runner(graph, DEFAULT_COST_MODEL).coreness
                assert np.array_equal(expected, got), (engine, seed)
