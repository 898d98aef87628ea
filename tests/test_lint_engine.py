"""The lint engine: module graph, call graph, taint, cache, R007, CLI.

These tests exercise the whole-program layer underneath the rules:
name resolution across modules, the charge-reachability and taint
fixpoints, the content-hash incremental cache (including the warm/cold
speedup the Makefile relies on), the baseline and SARIF surfaces, and
the R007 native-parity checks against both the real embedded kernel and
deliberately drifted fixtures.
"""

from __future__ import annotations

import json
import statistics
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import filter_new, load_baseline, write_baseline
from repro.lint.cli import main
from repro.lint.engine.modulegraph import Module, module_name_for
from repro.lint.engine.program import Program
from repro.lint.reporters import format_sarif
from repro.lint.runner import lint_source, run_lint

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def build(*files: tuple[str, str]) -> Program:
    """A Program from (path, source) pairs (sources are dedented)."""
    return Program(
        Module.parse(path, textwrap.dedent(source))
        for path, source in files
    )


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


# ----------------------------------------------------------------------
# Module graph
# ----------------------------------------------------------------------
class TestModuleGraph:
    def test_module_names_follow_roots(self):
        assert module_name_for("src/repro/core/peel.py") == "repro.core.peel"
        assert module_name_for("tests/test_lint.py") == "tests.test_lint"
        assert module_name_for("examples/demo.py") == "examples.demo"
        assert module_name_for("src/repro/__init__.py") == "repro"

    def test_import_aliases_and_project_deps(self):
        program = build(
            (
                "src/repro/a.py",
                """
                import repro.b as bee
                from repro.c import helper as h
                """,
            ),
            ("src/repro/b.py", "x = 1\n"),
            ("src/repro/c.py", "def helper():\n    return 1\n"),
        )
        module = program.module_named("repro.a")
        assert module.import_aliases["bee"] == "repro.b"
        assert module.import_aliases["h"] == "repro.c.helper"
        assert program.deps("repro.a") == {"repro.b", "repro.c"}

    def test_relative_imports_resolve_against_package(self):
        program = build(
            (
                "src/repro/core/peel.py",
                "from .frontier import advance\nfrom ..runtime import sim\n",
            ),
            ("src/repro/core/frontier.py", "def advance():\n    pass\n"),
            ("src/repro/runtime/sim.py", "x = 1\n"),
        )
        deps = program.deps("repro.core.peel")
        assert "repro.core.frontier" in deps
        assert "repro.runtime" in deps or "repro.runtime.sim" in deps


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_direct_and_method_resolution(self):
        program = build(
            (
                "src/repro/core/x.py",
                """
                class Peeler:
                    def charge(self, runtime):
                        runtime.sequential(1.0, tag="t")

                    def run(self, runtime):
                        self.charge(runtime)

                def top(runtime):
                    p = Peeler()
                    p.run(runtime)
                """,
            )
        )
        graph = program.callgraph
        assert graph.can_charge("repro.core.x.Peeler.charge")
        assert graph.can_charge("repro.core.x.Peeler.run")
        assert graph.can_charge("repro.core.x.top")

    def test_aliased_import_resolution(self):
        program = build(
            (
                "src/repro/core/a.py",
                """
                import repro.core.b as helpers
                from repro.core.b import charge_all as ca

                def f(runtime):
                    helpers.charge_all(runtime)

                def g(runtime):
                    ca(runtime)
                """,
            ),
            (
                "src/repro/core/b.py",
                """
                def charge_all(runtime):
                    runtime.parallel_for(1.0, count=1, tag="x")
                """,
            ),
        )
        graph = program.callgraph
        assert graph.can_charge("repro.core.a.f")
        assert graph.can_charge("repro.core.a.g")

    def test_callback_passed_to_helper_counts_as_edge(self):
        # Higher-order: the task body is passed, not called, yet charge
        # reachability must flow through it.
        program = build(
            (
                "src/repro/core/h.py",
                """
                def run_tasks(body, runtime, n):
                    for i in range(n):
                        body(runtime, i)

                def task(runtime, i):
                    runtime.sequential(1.0, tag="task")

                def driver(runtime):
                    run_tasks(task, runtime, 4)
                """,
            )
        )
        graph = program.callgraph
        assert graph.can_charge("repro.core.h.driver")

    def test_stored_attribute_method_resolution(self):
        program = build(
            (
                "src/repro/core/s.py",
                """
                class Ledger:
                    def charge(self, runtime):
                        runtime.sequential(1.0, tag="t")

                class Holder:
                    def __init__(self):
                        self.ledger = Ledger()

                    def go(self, runtime):
                        self.ledger.charge(runtime)
                """,
            )
        )
        assert program.callgraph.can_charge("repro.core.s.Holder.go")

    def test_non_charging_chain_stays_false(self):
        program = build(
            (
                "src/repro/core/n.py",
                """
                def a(x):
                    return b(x)

                def b(x):
                    return x + 1
                """,
            )
        )
        graph = program.callgraph
        assert not graph.can_charge("repro.core.n.a")
        assert not graph.can_charge("repro.core.n.b")

    def test_contended_params_flow_through_helpers(self):
        program = build(
            (
                "src/repro/core/c.py",
                """
                from repro.runtime.atomics import batch_decrement

                def inner(values, targets, k):
                    return batch_decrement(values, targets, k)

                def outer(shared, targets, k):
                    return inner(shared, targets, k)
                """,
            )
        )
        graph = program.callgraph
        inner = graph.functions["repro.core.c.inner"]
        outer = graph.functions["repro.core.c.outer"]
        assert graph.contending_params(inner) == frozenset({0})
        assert graph.contending_params(outer) == frozenset({0})


# ----------------------------------------------------------------------
# Taint dataflow (one fixture per source kind)
# ----------------------------------------------------------------------
class TestTaintDataflow:
    def _r003(self, source: str, path="src/repro/core/t.py"):
        return lint_source(
            textwrap.dedent(source), path=path, select=["R003"]
        )

    def test_wall_clock_taint_reaches_charge_through_call(self):
        findings = self._r003(
            """
            import time

            def log_cost(runtime, value):
                runtime.sequential(value, tag="t")

            def outer(runtime):
                elapsed = time.perf_counter()
                log_cost(runtime, elapsed)
            """
        )
        messages = [f.message for f in findings]
        assert any("wall-clock value reaches" in m for m in messages)

    def test_rng_taint_via_return_summary(self):
        findings = self._r003(
            """
            import numpy as np

            def draw():
                return np.random.rand(4)

            def outer(runtime):
                noise = draw()
                runtime.record_samples(noise)
            """
        )
        assert any(
            "rng value reaches record_samples()" in f.message
            for f in findings
        )

    def test_unordered_iteration_reaching_ledger_is_flagged(self):
        findings = self._r003(
            """
            def outer(runtime, weights):
                seen = {1, 2, 3}
                total = 0.0
                for v in seen:
                    total = total + weights[v]
                runtime.sequential(total, tag="sum")
            """
        )
        assert any(
            "unordered-iter value reaches sequential()" in f.message
            for f in findings
        )

    def test_sorted_sanitizes_unordered_taint(self):
        findings = self._r003(
            """
            def outer(runtime, weights):
                seen = {1, 2, 3}
                total = 0.0
                for v in sorted(seen):
                    total = total + weights[v]
                runtime.sequential(total, tag="sum")
            """
        )
        assert findings == []

    def test_membership_test_is_not_tainted(self):
        findings = self._r003(
            """
            def outer(runtime, items, key):
                seen = {1, 2, 3}
                flag = key in seen
                runtime.sequential(1.0 if flag else 2.0, tag="x")
            """
        )
        assert findings == []

    def test_dict_comprehension_source(self):
        findings = self._r003(
            """
            def outer(runtime, mapping):
                d = {1: "a", 2: "b"}
                order = [k for k in d]
                runtime.record_order(order)
            """
        )
        assert any("unordered-iter" in f.message for f in findings)

    def test_np_unique_sanitizes(self):
        findings = self._r003(
            """
            import numpy as np

            def outer(runtime, weights):
                seen = {1, 2, 3}
                idx = np.unique(list(seen))
                runtime.sequential(weights[idx].sum(), tag="x")
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# R004 disjointness refinements
# ----------------------------------------------------------------------
class TestR004Disjointness:
    def _r004(self, source: str):
        return lint_source(
            textwrap.dedent(source),
            path="src/repro/core/p.py",
            select=["R004"],
        )

    def test_unique_index_write_is_clean(self):
        findings = self._r004(
            """
            import numpy as np
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                touched = np.unique(frontier)
                dtilde[touched] = 0
                return outcome
            """
        )
        assert findings == []

    def test_boolean_mask_write_is_clean(self):
        findings = self._r004(
            """
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                dtilde[dtilde < k] = 0
                return outcome
            """
        )
        assert findings == []

    def test_repeatable_index_write_is_flagged(self):
        findings = self._r004(
            """
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                dtilde[frontier] -= 1
                return outcome
            """
        )
        assert [f.rule_id for f in findings] == ["R004"]

    def test_sharing_through_resolved_helper_is_seen(self):
        findings = self._r004(
            """
            from repro.runtime.atomics import batch_decrement

            def helper(values, targets, k):
                return batch_decrement(values, targets, k)

            def peel(dtilde, frontier, k):
                counts = helper(dtilde, frontier, k)
                dtilde[frontier] -= 1
                return counts
            """
        )
        assert [f.rule_id for f in findings] == ["R004"]


# ----------------------------------------------------------------------
# R007 native parity
# ----------------------------------------------------------------------
GOOD_NATIVE = '''
_SOURCE = r"""
void vgc_peel_tasks(
    const long *indptr,
    long *dtilde,
    long n_tasks,
    long k,
    long *nv_out,
    long *counters)
{
    counters[0] = 0;
    counters[1] = 0;
}
"""

COST_COUNTERS = {"nv": "vertex_op"}

import ctypes
import numpy as np

def _ptr(a):
    return a

def run(lib, indptr, dtilde, n_tasks, k, nv):
    fn = lib.vgc_peel_tasks
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ] * 2
    counters = np.zeros(2, dtype=np.int64)
    lib.vgc_peel_tasks(
        _ptr(indptr), _ptr(dtilde), n_tasks, k, _ptr(nv), _ptr(counters)
    )
    dp, ep = (int(x) for x in counters)
    return dp, ep
'''

GOOD_COST_MODEL = """
from dataclasses import dataclass

@dataclass(frozen=True)
class CostModel:
    vertex_op: float = 1.5
    edge_op: float = 1.0
"""

MULTI_NATIVE = '''
_SOURCE = r"""
void vgc_peel_tasks(
    const long *indptr,
    long *dtilde,
    long n_tasks,
    long k,
    long *nv_out,
    long *counters)
{
    counters[0] = 0;
    counters[1] = 0;
}

void pkc_chain_drain(
    const long *indptr,
    long *dtilde,
    long *nv_out,
    long *ne_out,
    long n_front,
    long *counters)
{
    counters[0] = 0;
    counters[1] = 0;
}
"""

COST_COUNTERS = {"nv": "vertex_op"}
PKC_COST_COUNTERS = {"nv": "vertex_op", "ne": ["edge_op", "atomic_op"]}

import ctypes
import numpy as np

def _ptr(a):
    return a

def run(lib, indptr, dtilde, n_tasks, k, nv):
    fn = lib.vgc_peel_tasks
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ] * 2
    counters = np.zeros(2, dtype=np.int64)
    lib.vgc_peel_tasks(
        _ptr(indptr), _ptr(dtilde), n_tasks, k, _ptr(nv), _ptr(counters)
    )
    dp, ep = (int(x) for x in counters)
    return dp, ep

def run_pkc(lib, indptr, dtilde, nv, n_front):
    pkc = lib.pkc_chain_drain
    pkc.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 1 + [
        ctypes.c_void_p
    ] * 1
    counters = np.zeros(2, dtype=np.int64)
    lib.pkc_chain_drain(
        _ptr(indptr), _ptr(dtilde), _ptr(nv), _ptr(nv), n_front,
        _ptr(counters)
    )
    tp, claimed = (int(x) for x in counters)
    return tp, claimed
'''

PKC_COST_MODEL = """
from dataclasses import dataclass

@dataclass(frozen=True)
class CostModel:
    vertex_op: float = 1.5
    edge_op: float = 1.0
    atomic_op: float = 2.0
"""

# Same kernel driven through the cached-pointer idiom: an `sp` alias
# bound to `scratch.ptr` (falling back to `_ptr`), a pointer local
# assigned per branch, and a conditional pointer argument.
CACHED_PTR_NATIVE = '''
_SOURCE = r"""
void vgc_peel_tasks(
    const long *indptr,
    long *dtilde,
    long n_tasks,
    long k,
    long *nv_out,
    long *counters)
{
    counters[0] = 0;
    counters[1] = 0;
}
"""

COST_COUNTERS = {"nv": "vertex_op"}

import ctypes
import numpy as np

def _ptr(a):
    return a

def run(lib, indptr, dtilde, n_tasks, k, nv, scratch=None):
    fn = lib.vgc_peel_tasks
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ] * 2
    counters = np.zeros(2, dtype=np.int64)
    sp = scratch.ptr if scratch is not None else _ptr
    if scratch is not None:
        dtilde_p = scratch.ptr(dtilde)
    else:
        dtilde_p = _ptr(dtilde)
    lib.vgc_peel_tasks(
        sp(indptr), dtilde_p, n_tasks, k,
        sp(nv) if nv is not None else None, _ptr(counters)
    )
    dp, ep = (int(x) for x in counters)
    return dp, ep
'''


ROUND_NATIVE = '''
_SOURCE = r"""
void insertion_round(
    const long *indptr,
    long n_roots,
    long *nv_out,
    long *ne_out,
    long *counters)
{
    counters[0] = 0;
    counters[1] = 0;
    counters[2] = 0;
}
"""

ROUND_COST_COUNTERS = {"nv": "vertex_op", "ne": "edge_op"}

import ctypes
import numpy as np

def _ptr(a):
    return a

def run_round(lib, indptr, n_roots, scratch):
    round_ = lib.insertion_round
    round_.argtypes = [ctypes.c_void_p] * 1 + [ctypes.c_int64] * 1 + [
        ctypes.c_void_p
    ] * 3
    counters = np.zeros(3, dtype=np.int64)
    sp = scratch.ptr
    lib.insertion_round(
        _ptr(indptr), n_roots, sp(scratch.nv), sp(scratch.ne),
        _ptr(counters)
    )
    nc, bfs, peels = (int(x) for x in counters)
    return nc, bfs, peels
'''


class TestR007NativeParity:
    def _lint(self, tmp_path, native: str, cost_model: str = GOOD_COST_MODEL):
        write_tree(
            tmp_path,
            {
                "src/repro/perf/native.py": native,
                "src/repro/runtime/cost_model.py": cost_model,
            },
        )
        return run_lint([tmp_path / "src"], select=["R007"]).findings

    def test_real_kernel_passes(self):
        findings = run_lint(
            [SRC / "perf", SRC / "runtime"], select=["R007"]
        ).findings
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_consistent_fixture_passes(self, tmp_path):
        assert self._lint(tmp_path, GOOD_NATIVE) == []

    def test_drifted_cost_constant_fails(self, tmp_path):
        drifted = GOOD_COST_MODEL.replace("1.5", "0.3")
        findings = self._lint(tmp_path, GOOD_NATIVE, drifted)
        assert any("dyadic" in f.message for f in findings)

    def test_argtypes_mismatch_fails(self, tmp_path):
        broken = GOOD_NATIVE.replace(
            "[ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2",
            "[ctypes.c_void_p] * 3 + [ctypes.c_int64] * 1",
        )
        findings = self._lint(tmp_path, broken)
        assert any("argtypes" in f.message for f in findings)

    def test_counter_width_mismatch_fails(self, tmp_path):
        broken = GOOD_NATIVE.replace("np.zeros(2", "np.zeros(3")
        findings = self._lint(tmp_path, broken)
        assert any("counters" in f.message for f in findings)

    def test_unknown_counter_key_fails(self, tmp_path):
        broken = GOOD_NATIVE.replace(
            'COST_COUNTERS = {"nv": "vertex_op"}',
            'COST_COUNTERS = {"nz": "vertex_op"}',
        )
        findings = self._lint(tmp_path, broken)
        assert any("nz_out" in f.message for f in findings)

    def test_closed_form_drift_fails(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/perf/native.py": GOOD_NATIVE,
                "src/repro/runtime/cost_model.py": GOOD_COST_MODEL,
                "src/repro/perf/kernels.py": """
                def vgc_peel_tasks_native(state, model, nv, ne):
                    task_costs = model.edge_op * ne
                    return task_costs
                """,
            },
        )
        findings = run_lint([tmp_path / "src"], select=["R007"]).findings
        assert any("COST_COUNTERS" in f.message for f in findings)

    def test_multi_kernel_fixture_passes(self, tmp_path):
        assert self._lint(tmp_path, MULTI_NATIVE, PKC_COST_MODEL) == []

    def test_cached_pointer_idiom_passes(self, tmp_path):
        findings = self._lint(tmp_path, CACHED_PTR_NATIVE)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_raw_pointer_argument_fails(self, tmp_path):
        broken = GOOD_NATIVE.replace("_ptr(dtilde)", "dtilde")
        findings = self._lint(tmp_path, broken)
        assert any("pointer expression" in f.message for f in findings)

    def test_unbound_alias_call_fails(self, tmp_path):
        # A call through a name never bound to a pointer maker is not a
        # pointer expression.
        broken = CACHED_PTR_NATIVE.replace(
            "sp = scratch.ptr if scratch is not None else _ptr",
            "sp = some_other_helper",
        )
        findings = self._lint(tmp_path, broken)
        assert any("pointer expression" in f.message for f in findings)

    def test_second_kernel_argtypes_mismatch_fails(self, tmp_path):
        broken = MULTI_NATIVE.replace(
            "[ctypes.c_void_p] * 4 + [ctypes.c_int64] * 1",
            "[ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2",
        )
        findings = self._lint(tmp_path, broken, PKC_COST_MODEL)
        assert any("argtypes" in f.message for f in findings)

    def test_list_valued_counter_key_fails(self, tmp_path):
        broken = MULTI_NATIVE.replace(
            '"ne": ["edge_op", "atomic_op"]',
            '"nx": ["edge_op", "atomic_op"]',
        )
        findings = self._lint(tmp_path, broken, PKC_COST_MODEL)
        assert any("nx_out" in f.message for f in findings)

    def test_level_fixture_passes(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/perf/native.py": ROUND_NATIVE,
                "src/repro/runtime/cost_model.py": GOOD_COST_MODEL,
                "src/repro/perf/kernels.py": """
                def insertion_round_native(model, nv, ne):
                    task_costs = model.vertex_op * nv + model.edge_op * ne
                    return task_costs
                """,
            },
        )
        findings = run_lint([tmp_path / "src"], select=["R007"]).findings
        assert findings == [], "\n".join(f.render() for f in findings)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[ctypes.c_void_p] * 1 + [ctypes.c_int64] * 1",
             "[ctypes.c_void_p] * 2 + [ctypes.c_int64] * 0", "argtypes"),
            ("np.zeros(3", "np.zeros(4", "counters"),
            ("nc, bfs, peels =", "nc, bfs =", "counters unpack"),
            ('"ne": "edge_op"', '"nd": "edge_op"', "nd_out"),
            ('"ne": "edge_op"', '"ne": "hyper_op"', "not a CostModel"),
        ],
    )
    def test_level_kernel_drift_fails(self, tmp_path, old, new, message):
        assert old in ROUND_NATIVE
        findings = self._lint(tmp_path, ROUND_NATIVE.replace(old, new))
        assert any(message in f.message for f in findings), [
            f.message for f in findings
        ]

    def test_level_closed_form_drift_fails(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/perf/native.py": ROUND_NATIVE,
                "src/repro/runtime/cost_model.py": GOOD_COST_MODEL,
                "src/repro/perf/kernels.py": """
                def insertion_round_native(model, nv, ne):
                    task_costs = model.vertex_op * nv
                    return task_costs
                """,
            },
        )
        findings = run_lint([tmp_path / "src"], select=["R007"]).findings
        assert any("ROUND_COST_COUNTERS" in f.message for f in findings)

    def test_pkc_closed_form_drift_fails(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/perf/native.py": MULTI_NATIVE,
                "src/repro/runtime/cost_model.py": PKC_COST_MODEL,
                "src/repro/perf/kernels.py": """
                def pkc_thread_works(model, nv, ne):
                    task_costs = model.vertex_op * nv + model.edge_op * ne
                    return task_costs
                """,
            },
        )
        findings = run_lint([tmp_path / "src"], select=["R007"]).findings
        assert any("PKC_COST_COUNTERS" in f.message for f in findings)


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
CACHE_TREE = {
    "src/repro/core/alpha.py": """
        from repro.core.beta import charge

        def run(runtime, n):
            charge(runtime, n)
    """,
    "src/repro/core/beta.py": """
        def charge(runtime, n):
            runtime.sequential(float(n), tag="beta")
    """,
    "src/repro/core/gamma.py": """
        def pure(x):
            return x + 1
    """,
}


class TestIncrementalCache:
    def test_warm_run_hits_every_module(self, tmp_path):
        write_tree(tmp_path, CACHE_TREE)
        cache = tmp_path / ".lint-cache"
        cold = run_lint([tmp_path / "src"], cache_dir=cache)
        warm = run_lint([tmp_path / "src"], cache_dir=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.files_analyzed == 3
        assert warm.stats.cache_hits == 3
        assert warm.stats.files_analyzed == 0
        assert warm.findings == cold.findings

    def test_edit_invalidates_dependents_only(self, tmp_path):
        write_tree(tmp_path, CACHE_TREE)
        cache = tmp_path / ".lint-cache"
        run_lint([tmp_path / "src"], cache_dir=cache)
        beta = tmp_path / "src/repro/core/beta.py"
        beta.write_text(
            beta.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        again = run_lint([tmp_path / "src"], cache_dir=cache)
        # beta changed; alpha imports beta; gamma is untouched.
        assert again.stats.files_analyzed == 2
        assert again.stats.cache_hits == 1

    def test_cached_findings_replay_without_reanalysis(self, tmp_path):
        tree = dict(CACHE_TREE)
        tree["src/repro/core/dirty.py"] = """
            def f(runtime, n):
                runtime.sequential(float(n))
        """
        write_tree(tmp_path, tree)
        cache = tmp_path / ".lint-cache"
        cold = run_lint([tmp_path / "src"], cache_dir=cache)
        warm = run_lint([tmp_path / "src"], cache_dir=cache)
        assert [f.rule_id for f in cold.findings] == ["R002"]
        assert warm.findings == cold.findings
        assert warm.stats.files_analyzed == 0

    def test_warm_run_is_at_least_3x_faster_than_cold(self, tmp_path):
        # A tree big enough that analysis dominates process overheads.
        tree = {}
        for i in range(24):
            dep = f"from repro.core.m{i - 1} import f{i - 1}\n" if i else ""
            tree[f"src/repro/core/m{i}.py"] = (
                f"{dep}"
                f"def f{i}(runtime, n):\n"
                f"    runtime.sequential(float(n), tag='m{i}')\n"
            )
        write_tree(tmp_path, tree)
        # Runs take tens of ms, so compare medians of 5 cold runs (each
        # on a fresh cache) and of the 5 warm runs that follow them.
        cold, warm = [], []
        for sample in range(5):
            cache = tmp_path / f".lint-cache-{sample}"
            cold.append(run_lint([tmp_path / "src"], cache_dir=cache))
            warm.append(run_lint([tmp_path / "src"], cache_dir=cache))
            assert warm[-1].stats.cache_hits == 24
        cold_s = statistics.median(run.stats.wall_s for run in cold)
        warm_s = statistics.median(run.stats.wall_s for run in warm)
        assert warm_s < cold_s / 3, (
            f"median warm {warm_s:.4f}s vs cold {cold_s:.4f}s"
        )

    def test_select_bypasses_cache(self, tmp_path):
        write_tree(tmp_path, CACHE_TREE)
        cache = tmp_path / ".lint-cache"
        run_lint([tmp_path / "src"], cache_dir=cache)
        selected = run_lint(
            [tmp_path / "src"], select=["R002"], cache_dir=cache
        )
        assert selected.stats.cache_hits == 0


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_suppresses_recorded_findings(self, tmp_path):
        findings = lint_source(
            "def f(runtime, n):\n    runtime.sequential(float(n))\n",
            path="src/repro/core/b.py",
        )
        assert findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        assert filter_new(findings, baseline) == []

    def test_new_findings_survive_filter(self, tmp_path):
        old = lint_source(
            "def f(runtime, n):\n    runtime.sequential(float(n))\n",
            path="src/repro/core/b.py",
        )
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, old)
        # Fingerprints cover (path, rule, message), so only a genuinely
        # different finding — not a moved line — escapes the baseline.
        new = lint_source("import random\n", path="src/repro/core/b.py")
        assert filter_new(new, load_baseline(baseline_file)) == new

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(ROOT / ".lint-baseline.json")
        assert sum(baseline.values()) == 0

    def test_cli_baseline_flow(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        baseline_file = tmp_path / "bl.json"
        assert (
            main(
                [
                    str(bad),
                    "--baseline",
                    str(baseline_file),
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main([str(bad), "--baseline", str(baseline_file)]) == 0
        assert main([str(bad)]) == 1


# ----------------------------------------------------------------------
# Reporters and CLI surface
# ----------------------------------------------------------------------
class TestReportersAndCli:
    def test_sarif_document_shape(self):
        findings = lint_source(
            "import random\n", path="src/repro/core/r.py"
        )
        doc = json.loads(format_sarif(findings))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R001", "R007"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R003"
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 1

    def test_json_stats_payload(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--format", "json", str(clean)]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["files_total"] == 1
        assert stats["files_analyzed"] == 1
        assert stats["cache_hits"] == 0
        assert stats["wall_s"] >= 0
        assert stats["rule_counts"] == {}

    def test_cli_cache_flag(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        cache = tmp_path / "cache"
        assert main(["--cache", str(cache), str(clean)]) == 0
        capsys.readouterr()
        assert main(["--cache", str(cache), "--format", "json", str(clean)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cache_hits"] == 1

    def test_cli_only_filters_reported_paths(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {
                "pkg/bad_one.py": "import random\n",
                "pkg/bad_two.py": "import random\n",
            },
        )
        code = main(
            [
                str(tmp_path / "pkg"),
                "--only",
                str(tmp_path / "pkg" / "bad_one.py"),
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["path"].endswith("bad_one.py")

    def test_sarif_cli_format(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--format", "sarif", str(clean)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
