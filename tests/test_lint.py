"""The repro.lint static analyzer: rules, suppressions, runner and CLI.

Every rule is exercised with at least one triggering and one clean
fixture; the suite ends with the self-check that the linter runs clean
over ``src/repro`` itself — the invariant CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rule, lint_paths, lint_source
from repro.lint.cli import main
from repro.lint.reporters import format_json, format_text
from repro.lint.suppress import parse_suppressions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Default fixture path: under repro/core/ so every rule (R004 is scoped
#: to core modules) sees the snippet as algorithm code.
CORE_PATH = "src/repro/core/snippet.py"


def lint(source: str, path: str = CORE_PATH, select=None):
    return lint_source(textwrap.dedent(source), path=path, select=select)


def rule_ids(findings) -> list[str]:
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_eight_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R009",
        ]
        with pytest.raises(KeyError):
            get_rule("R008")  # retired into R006, never reused

    def test_rules_have_names_and_summaries(self):
        for rule in all_rules():
            assert rule.name
            assert rule.summary

    def test_get_rule(self):
        assert get_rule("R001").name == "charge-coverage"
        with pytest.raises(KeyError):
            get_rule("R999")


# ----------------------------------------------------------------------
# R001 charge-coverage
# ----------------------------------------------------------------------
class TestR001ChargeCoverage:
    def test_uncharged_numpy_kernel_is_flagged(self):
        findings = lint(
            """
            import numpy as np

            def kernel(graph, runtime):
                degrees = np.diff(graph.indptr)
                return degrees * 2
            """
        )
        assert rule_ids(findings) == ["R001"]
        assert "kernel" in findings[0].message

    def test_charged_kernel_is_clean(self):
        findings = lint(
            """
            import numpy as np

            def kernel(graph, runtime):
                degrees = np.diff(graph.indptr)
                runtime.parallel_for(
                    runtime.model.scan_op, count=degrees.size, tag="deg"
                )
                return degrees
            """
        )
        assert findings == []

    def test_block_charge_counts_as_charging(self):
        findings = lint(
            """
            import numpy as np

            def level(graph, runtime, block, tags):
                degrees = np.diff(graph.indptr)
                runtime.charge_block(block, tags=tags)
                return degrees
            """
        )
        assert findings == []

    def test_conditional_charge_is_clean(self):
        findings = lint(
            """
            import numpy as np

            def kernel(values, runtime=None):
                out = np.cumsum(values)
                if runtime is not None:
                    runtime.sequential(runtime.model.scan_op, tag="scan")
                return out
            """
        )
        assert findings == []

    def test_forwarding_runtime_to_callee_is_clean(self):
        findings = lint(
            """
            import numpy as np

            def driver(graph, runtime):
                degrees = np.diff(graph.indptr)
                return peel(degrees, runtime=runtime)
            """
        )
        assert findings == []

    def test_storing_runtime_on_charging_class_is_clean(self):
        findings = lint(
            """
            import numpy as np

            class Bag:
                def build(self, values, runtime):
                    self.runtime = runtime
                    self.slots = np.zeros(values.size)

                def drain(self):
                    self.runtime.sequential(float(self.slots.size), tag="d")
            """
        )
        assert findings == []

    def test_storing_runtime_on_non_charging_class_is_flagged(self):
        # v1 treated *any* store of the runtime as an escape hatch; the
        # call-graph engine sees that no method of Bag ever charges, so
        # the stored runtime can never account for the numpy work.
        findings = lint(
            """
            import numpy as np

            class Bag:
                def build(self, values, runtime):
                    self.runtime = runtime
                    self.slots = np.zeros(values.size)
            """
        )
        assert rule_ids(findings) == ["R001"]

    def test_forwarding_to_resolved_non_charging_callee_is_flagged(self):
        # The v1 false negative the engine closes: the runtime is
        # forwarded, but to a *resolved* callee that never charges.
        findings = lint(
            """
            import numpy as np

            def collect(runtime, values):
                return values.sum()

            def driver(graph, runtime):
                degrees = np.diff(graph.indptr)
                collect(runtime, degrees)
                return degrees
            """
        )
        assert rule_ids(findings) == ["R001"]
        assert "driver" in findings[0].message

    def test_annotation_marks_runtime_parameter(self):
        findings = lint(
            """
            import numpy as np

            def kernel(values, sim: "SimRuntime"):
                return np.cumsum(values)
            """
        )
        assert rule_ids(findings) == ["R001"]

    def test_no_numpy_work_is_clean(self):
        findings = lint(
            """
            def describe(runtime):
                return f"{runtime.model.n_cores} cores"
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# R002 untagged-charge
# ----------------------------------------------------------------------
class TestR002UntaggedCharge:
    def test_missing_tag_is_flagged(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.parallel_for(runtime.model.scan_op, count=n)
            """
        )
        assert rule_ids(findings) == ["R002"]
        assert "no tag=" in findings[0].message

    def test_positional_tag_is_flagged(self):
        findings = lint(
            """
            def f(runtime):
                runtime.sequential(runtime.model.scan_op, "scan")
            """
        )
        assert rule_ids(findings) == ["R002"]
        assert "positionally" in findings[0].message

    def test_empty_tag_is_flagged(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.parallel_for(runtime.model.scan_op, count=n, tag="")
            """
        )
        assert rule_ids(findings) == ["R002"]

    def test_every_charge_method_is_covered(self):
        findings = lint(
            """
            def f(runtime, costs, counts, works, block):
                runtime.parallel_for(costs)
                runtime.parallel_update(costs, counts)
                runtime.sequential(1.0)
                runtime.barrier_only(2)
                runtime.imbalanced_step(works)
                runtime.charge_block(block)
            """
        )
        assert rule_ids(findings) == ["R002"] * 6

    def test_block_charge_needs_its_tags(self):
        findings = lint(
            """
            def f(runtime, block, tags):
                runtime.charge_block(block, tag="level")
                runtime.charge_block(block, tags=[])
                runtime.charge_block(block, tags=())
            """
        )
        assert rule_ids(findings) == ["R002"] * 3
        assert "no tags=" in findings[0].message
        assert "empty tags=" in findings[1].message

    def test_keyword_tags_are_clean(self):
        findings = lint(
            """
            def f(runtime, costs, counts, label):
                runtime.parallel_for(costs, tag="gather")
                runtime.parallel_update(costs, counts, tag=label)
                runtime.barrier_only(1, tag="sync")
                runtime.charge_block(costs, tags=["peel"] * len(counts))
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# R003 determinism
# ----------------------------------------------------------------------
class TestR003Determinism:
    def test_wall_clock_read_is_flagged(self):
        findings = lint(
            """
            import time

            def f():
                return time.perf_counter()
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_from_import_clock_is_flagged(self):
        findings = lint(
            """
            from time import perf_counter as clock

            def f():
                return clock()
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_legacy_np_random_is_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(4)
            """
        )
        assert rule_ids(findings) == ["R003", "R003"]

    def test_unseeded_default_rng_is_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """
        )
        assert rule_ids(findings) == ["R003"]
        assert "unseeded" in findings[0].message

    def test_random_module_import_is_flagged(self):
        assert rule_ids(lint("import random")) == ["R003"]
        assert rule_ids(lint("from random import shuffle")) == ["R003"]

    def test_seeded_generator_is_clean(self):
        findings = lint(
            """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random(8)
            """
        )
        assert findings == []

    def test_benchmarks_are_exempt(self):
        findings = lint(
            """
            import time

            def f():
                return time.perf_counter()
            """,
            path="benchmarks/bench_timer.py",
        )
        assert findings == []

    def test_env_read_in_cache_key_function_is_flagged(self):
        findings = lint(
            """
            import os

            def graph_cache_key(generator, params):
                return hash((os.environ.get("HOST"), generator))
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]
        assert "cache-key" in findings[0].message

    def test_getenv_in_key_fields_is_flagged(self):
        findings = lint(
            """
            import os

            def key_fields(self):
                return {"mode": os.getenv("REPRO_KERNELS")}
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_env_read_outside_key_function_is_clean(self):
        findings = lint(
            """
            import os

            def cache_dir():
                return os.environ.get("REPRO_GRAPH_CACHE")
            """,
            select=["R003"],
        )
        assert findings == []

    def test_pure_key_function_is_clean(self):
        findings = lint(
            """
            import hashlib, json

            def graph_cache_key(generator, params):
                blob = json.dumps([generator, sorted(params.items())])
                return hashlib.sha256(blob.encode()).hexdigest()
            """,
            select=["R003"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R004 simulated-race
# ----------------------------------------------------------------------
RACY_PEEL = """
    import numpy as np
    from repro.runtime.atomics import batch_decrement

    def peel(dtilde, frontier, runtime, k):
        outcome = batch_decrement(dtilde, frontier, k)
        dtilde[frontier] -= 1
        runtime.parallel_update(
            1.0, outcome.counts, count=1, tag="peel"
        )
        return outcome.crossed
"""


class TestR004SimulatedRace:
    def test_raw_write_to_batch_decremented_array_is_flagged(self):
        findings = lint(RACY_PEEL, select=["R004"])
        assert rule_ids(findings) == ["R004"]
        assert "dtilde" in findings[0].message

    def test_inplace_ufunc_on_contended_array_is_flagged(self):
        findings = lint(
            """
            import numpy as np
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                np.subtract.at(dtilde, frontier, 1)
                return outcome.crossed
            """,
            select=["R004"],
        )
        assert rule_ids(findings) == ["R004"]

    def test_write_to_contention_counted_array_is_flagged(self):
        findings = lint(
            """
            def peel(runtime, shared, costs, idx):
                runtime.parallel_update(costs, shared, tag="peel")
                shared[idx] = 0
            """,
            select=["R004"],
        )
        assert rule_ids(findings) == ["R004"]

    def test_write_to_unrelated_array_is_clean(self):
        findings = lint(
            """
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, coreness, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                coreness[frontier] = k
                return outcome.crossed
            """,
            select=["R004"],
        )
        assert findings == []

    def test_rule_is_scoped_to_core_modules(self):
        findings = lint(
            RACY_PEEL, path="src/repro/runtime/snippet.py", select=["R004"]
        )
        assert findings == []

    def test_write_through_sorted_unique_index_is_clean(self):
        findings = lint(
            """
            from repro.primitives.bitops import sorted_unique
            from repro.runtime.atomics import batch_decrement

            def peel(dtilde, frontier, k):
                outcome = batch_decrement(dtilde, frontier, k)
                dtilde[sorted_unique(frontier)] = k
                return outcome.crossed
            """,
            select=["R004"],
        )
        assert findings == []

    def test_per_task_cost_arrays_are_not_contended(self):
        findings = lint(
            """
            def peel(runtime, task_costs, counts, i, cost):
                task_costs[i] = cost
                runtime.parallel_update(task_costs, counts, tag="peel")
            """,
            select=["R004"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R005 magic-cost-constant
# ----------------------------------------------------------------------
class TestR005MagicCostConstant:
    def test_literal_cost_is_flagged(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n, tag="init")
            """
        )
        assert rule_ids(findings) == ["R005"]
        assert "5" in findings[0].message

    def test_model_field_cost_is_clean(self):
        findings = lint(
            """
            def f(runtime, model, n):
                runtime.parallel_for(model.scan_op, count=n, tag="scan")
                runtime.sequential(2 * model.edge_op, tag="edges")
            """
        )
        assert findings == []

    def test_neutral_literals_are_clean(self):
        findings = lint(
            """
            import numpy as np

            def f(runtime, counts, work):
                runtime.parallel_update(0.0, counts, count=1, tag="inc")
                runtime.parallel_for(
                    np.array([max(work, 1.0)]), tag="round"
                )
            """
        )
        assert findings == []

    def test_count_literals_are_not_costs(self):
        findings = lint(
            """
            def f(runtime, model):
                runtime.parallel_for(model.scan_op, count=4096, tag="scan")
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# R006 observer-side-effect: clocks, the trace package, tracer hooks
# ----------------------------------------------------------------------
class TestR006TraceSideEffect:
    def test_clock_read_in_repro_package_is_flagged(self):
        findings = lint(
            """
            import time

            def f():
                return time.monotonic()
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "wallclock" in findings[0].message

    def test_bench_wallclock_module_is_exempt(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            path="src/repro/bench/wallclock.py",
            select=["R006"],
        )
        assert findings == []

    def test_charge_inside_trace_package_is_flagged(self):
        findings = lint(
            """
            def export(runtime):
                runtime.parallel_for(1.0, count=1, tag="oops")
            """,
            path="src/repro/trace/export.py",
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "charge" in findings[0].message

    def test_randomness_inside_trace_package_is_flagged(self):
        findings = lint(
            """
            import numpy as np

            def jitter():
                return np.random.default_rng(0).random()
            """,
            path="src/repro/trace/export.py",
            select=["R006"],
        )
        assert findings and all(f.rule_id == "R006" for f in findings)

    def test_metrics_mutation_inside_trace_package_is_flagged(self):
        findings = lint(
            """
            def poke(runtime):
                runtime.metrics.restarts = 1
            """,
            path="src/repro/trace/export.py",
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "metrics" in findings[0].message

    def test_unguarded_tracer_hook_is_flagged(self):
        findings = lint(
            """
            def f(self, n):
                self.registry.on_step("seq", 1.0, 1.0, 0, "t")
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "is not None" in findings[0].message

    def test_guarded_tracer_hook_is_clean(self):
        findings = lint(
            """
            def f(self, n):
                if self.registry is not None:
                    self.registry.on_step("seq", 1.0, 1.0, 0, "t")
                    self.registry.host_span("cell", 0.5)
            """,
            select=["R006"],
        )
        assert findings == []

    def test_guard_on_wrong_name_does_not_count(self):
        findings = lint(
            """
            def f(self, other):
                if other is not None:
                    self.registry.instant("x")
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_else_branch_of_guard_is_still_flagged(self):
        findings = lint(
            """
            def f(registry):
                if registry is not None:
                    pass
                else:
                    registry.on_round(3)
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_constructed_tracer_is_exempt(self):
        findings = lint(
            """
            from repro.obs import MetricsRegistry
            from repro.trace import Tracer

            def f():
                registry = MetricsRegistry("t", tracer=Tracer())
                registry.instant("x")
                return registry
            """,
            path="tests/snippet.py",
            select=["R006"],
        )
        assert findings == []

    def test_reading_tracer_state_is_clean(self):
        findings = lint(
            """
            def f(self):
                return self.registry.tracer.telemetry()
            """,
            select=["R006"],
        )
        assert findings == []

    def test_transitive_charge_from_observer_package_is_flagged(
        self, tmp_path
    ):
        from repro.lint.runner import run_lint

        helper = """
            def drive(runtime):
                runtime.sequential(1.0, tag="t")
            """
        caller = """
            from repro.core.helper import drive

            def export(runtime):
                drive(runtime)
            """
        for rel, source in {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/helper.py": helper,
            "src/repro/obs/__init__.py": "",
            "src/repro/obs/export.py": caller,
            "src/repro/trace/__init__.py": "",
            "src/repro/trace/cli.py": caller,
        }.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        findings = run_lint([tmp_path / "src"], select=["R006"]).findings
        # The driver module (trace/cli.py) may launch a charging run.
        assert [(Path(f.path).name, f.rule_id) for f in findings] == [
            ("export.py", "R006")
        ]
        assert "ledger charge is reachable" in findings[0].message


# ----------------------------------------------------------------------
# R006 observer-side-effect: the obs package and registry hooks (the
# former R008 metrics-side-effect, retired into R006)
# ----------------------------------------------------------------------
class TestR008MetricsSideEffect:
    def test_unguarded_registry_hook_is_flagged(self):
        findings = lint(
            """
            def f(self):
                self.registry.inc("runtime.rounds")
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "is not None" in findings[0].message

    def test_unguarded_block_hook_is_flagged(self):
        findings = lint(
            """
            def f(self, block, tags):
                self.registry.on_block(block, tags)
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_guarded_registry_hook_is_clean(self):
        findings = lint(
            """
            def f(self):
                registry = self.registry
                if registry is not None:
                    registry.inc("runtime.rounds")
                    registry.observe("x", 1.0)
            """,
            select=["R006"],
        )
        assert findings == []

    def test_guard_on_wrong_name_does_not_count(self):
        findings = lint(
            """
            def f(self, other):
                if other is not None:
                    self.registry.observe("x", 1.0)
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_else_branch_of_guard_is_still_flagged(self):
        findings = lint(
            """
            def f(registry):
                if registry is not None:
                    pass
                else:
                    registry.set_gauge("x", 1.0)
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_constructed_registry_is_exempt(self):
        findings = lint(
            """
            from repro.obs import MetricsRegistry

            def f():
                registry = MetricsRegistry("t")
                registry.inc("x")
                return registry
            """,
            path="tests/snippet.py",
            select=["R006"],
        )
        assert findings == []

    def test_charge_inside_obs_package_is_flagged(self):
        findings = lint(
            """
            def export(runtime):
                runtime.sequential(3.0, tag="oops")
            """,
            path="src/repro/obs/export.py",
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "charge" in findings[0].message

    def test_block_charge_inside_obs_package_is_flagged(self):
        findings = lint(
            """
            def export(runtime, block, tags):
                runtime.charge_block(block, tags=tags)
                runtime.metrics.record_block([1.0], [1.0], [1], tags)
            """,
            path="src/repro/obs/export.py",
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006", "R006"]

    def test_randomness_inside_obs_package_is_flagged(self):
        findings = lint(
            """
            import numpy as np

            def jitter():
                return np.random.default_rng(0).random()
            """,
            path="src/repro/obs/export.py",
            select=["R006"],
        )
        assert findings and all(f.rule_id == "R006" for f in findings)

    def test_metrics_mutation_inside_obs_package_is_flagged(self):
        findings = lint(
            """
            def poke(runtime):
                runtime.metrics.restarts = 1
            """,
            path="src/repro/obs/export.py",
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        assert "metrics" in findings[0].message

    def test_reading_registry_state_is_clean(self):
        findings = lint(
            """
            def f(self):
                return self.registry.counter_values("cache.")
            """,
            select=["R006"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R009 shard-determinism
# ----------------------------------------------------------------------
SHARD_PATH = "src/repro/shard/snippet.py"


class TestR009ShardDeterminism:
    def test_charge_inside_as_completed_loop_is_flagged(self):
        findings = lint(
            """
            from concurrent.futures import as_completed

            def merge(runtime, futures, model):
                for future in as_completed(futures):
                    ids, costs = future.result()
                    runtime.parallel_for(model.scan_op, count=len(ids),
                                         barriers=1, tag="shard_exchange")
            """,
            path=SHARD_PATH,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]
        assert "completion order" in findings[0].message

    def test_registry_hook_inside_imap_unordered_is_flagged(self):
        findings = lint(
            """
            def merge(pool, registry, chunks):
                for reply in pool.imap_unordered(work, chunks):
                    if registry is not None:
                        registry.inc("shard.deltas", reply.count)
            """,
            path=SHARD_PATH,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]

    def test_wrapped_unordered_source_is_flagged(self):
        findings = lint(
            """
            from concurrent.futures import as_completed

            def merge(runtime, futures, model):
                for index, future in enumerate(as_completed(futures)):
                    runtime.sequential(model.scan_op, tag="shard_merge")
            """,
            path=SHARD_PATH,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]

    def test_collect_then_sorted_fold_is_clean(self):
        findings = lint(
            """
            from concurrent.futures import as_completed

            def merge(runtime, futures, model):
                replies = {}
                for future in as_completed(futures):
                    shard, ids = future.result()
                    replies[shard] = ids
                for shard in sorted(replies):
                    runtime.parallel_for(model.scan_op,
                                         count=len(replies[shard]),
                                         barriers=1, tag="shard_exchange")
            """,
            path=SHARD_PATH,
            select=["R009"],
        )
        assert findings == []

    def test_fixed_order_loop_is_clean(self):
        findings = lint(
            """
            def merge(runtime, workers, model):
                for worker in workers:
                    reply = worker.recv()
                    runtime.sequential(model.scan_op, tag="shard_merge")
            """,
            path=SHARD_PATH,
            select=["R009"],
        )
        assert findings == []

    def test_rule_is_scoped_to_the_shard_package(self):
        findings = lint(
            """
            from concurrent.futures import as_completed

            def merge(runtime, futures, model):
                for future in as_completed(futures):
                    runtime.sequential(model.scan_op, tag="merge")
            """,
            path=CORE_PATH,
            select=["R009"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n, tag="x")  # lint: disable=R005
            """
        )
        assert findings == []

    def test_standalone_comment_suppresses_next_line(self):
        findings = lint(
            """
            def f(runtime, n):
                # lint: disable=R005
                runtime.sequential(5.0 * n, tag="x")
            """
        )
        assert findings == []

    def test_disable_all(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n)  # lint: disable=all
            """
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n, tag="x")  # lint: disable=R001
            """
        )
        assert rule_ids(findings) == ["R005"]

    def test_multiple_ids_in_one_directive(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n)  # lint: disable=R002, R005
            """
        )
        assert findings == []

    def test_parse_suppressions_shape(self):
        table = parse_suppressions(
            "x = 1  # lint: disable=R001\n# lint: disable=R002\ny = 2\n"
        )
        assert table[1] == frozenset({"R001"})
        assert "R002" in table[3]


# ----------------------------------------------------------------------
# Runner, reporters, CLI
# ----------------------------------------------------------------------
class TestRunnerAndCli:
    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "def f(runtime, n):\n"
            "    runtime.sequential(7.0, tag='x')\n",
            encoding="utf-8",
        )
        (package / "good.py").write_text("x = 1\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["R005"]

    def test_select_filters_rules(self):
        source = """
            def f(runtime, n):
                runtime.sequential(5.0 * n)
        """
        assert rule_ids(lint(source)) == ["R002", "R005"]
        assert rule_ids(lint(source, select=["R002"])) == ["R002"]

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="R999"):
            lint("x = 1", select=["R999"])

    def test_syntax_error_becomes_e000(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["E000"]

    def test_text_reporter_format(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n, tag="x")
            """
        )
        text = format_text(findings)
        assert f"{CORE_PATH}:3:" in text
        assert text.endswith("1 finding")

    def test_json_reporter_round_trips(self):
        findings = lint(
            """
            def f(runtime, n):
                runtime.sequential(5.0 * n, tag="x")
            """
        )
        payload = json.loads(format_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "R005"

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")

        assert main([str(bad)]) == 1
        assert "R003" in capsys.readouterr().out
        assert main([str(good)]) == 0
        assert main(["--select", "R999", str(good)]) == 2
        assert main([str(tmp_path / "no_such_dir")]) == 2
        assert main(["--list-rules"]) == 0
        assert "R004 simulated-race" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        assert main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_module_entry_point(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(clean)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 findings" in proc.stdout


# ----------------------------------------------------------------------
# The acceptance criterion: the codebase itself lints clean
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_root_has_zero_unsuppressed_findings(self):
        roots = [
            ROOT / name
            for name in ("tests", "benchmarks", "examples", "tools")
            if (ROOT / name).exists()
        ]
        findings = lint_paths([SRC, *roots])
        assert findings == [], "\n".join(f.render() for f in findings)
