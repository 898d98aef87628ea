"""repro.trace: the registry's timeline facet, exporters, CLI.

The two load-bearing suites here are determinism (two traced runs of the
same input produce byte-identical exports) and the observational
guarantee (the blessed regression goldens pass bit-exactly *with an
active registry carrying a tracer*, without re-blessing anything).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.cache import DiskCache
from repro.bench.runner import BenchCell, execute, run_cell, trace_path
from repro.core.framework import FrameworkConfig, decompose
from repro.core.parallel_kcore import ParallelKCore
from repro.generators import grid_2d, power_law_with_hub
from repro.obs import MetricsRegistry, active_registry, observing
from repro.regress.goldens import read_golden
from repro.regress.matrix import run_case, select_cases
from repro.runtime.simulator import SimRuntime
from repro.trace import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    collapsed_stacks,
    render_flamegraph,
    render_perfetto,
    render_text,
    to_perfetto,
    write_trace,
)
from repro.trace.cli import default_output, main


def hub_graph():
    """A high-degree-hub graph that exercises the sampling scheme."""
    return power_law_with_hub(500, 4, hub_count=2, hub_degree=120, seed=102)


def traced(label: str = "test", threads: int = 96) -> MetricsRegistry:
    """A registry with a tracer facet."""
    return MetricsRegistry(label, tracer=Tracer(threads=threads))


def traced_run(graph, solver=None, threads: int = 96) -> MetricsRegistry:
    registry = traced(threads=threads)
    solver = solver if solver is not None else ParallelKCore()
    solver.decompose(graph, registry=registry)
    registry.tracer.finish()
    return registry


# ----------------------------------------------------------------------
# Core tracer behavior
# ----------------------------------------------------------------------
class TestTracer:
    def test_absent_by_default(self):
        assert active_registry() is None
        assert SimRuntime().registry is None

    def test_tracing_context_installs_and_restores(self):
        registry = traced()
        with observing(registry) as installed:
            assert installed is registry
            assert active_registry() is registry
            assert SimRuntime().registry is registry
        assert active_registry() is None
        assert registry.tracer.attempts == 1  # the facet saw the attach

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_non_positive_threads(self, threads):
        with pytest.raises(ValueError, match="at least 1 simulated thread"):
            Tracer(threads=threads)

    def test_rounds_and_subrounds_nest(self):
        tracer = traced_run(grid_2d(16, 16)).tracer
        assert tracer.attempts == 1
        assert tracer.rounds
        for rnd in tracer.rounds:
            assert rnd.t0 <= rnd.t1
        round_spans = [s for s in tracer.spans if s.kind == "round"]
        sub_spans = [s for s in tracer.spans if s.kind == "subround"]
        assert len(round_spans) == len(tracer.rounds)
        assert len(sub_spans) == sum(r.subrounds for r in tracer.rounds)
        # Every subround sits inside its round's extent.
        by_index = {s.args["index"]: s for s in round_spans if "index" in s.args}
        for sub in sub_spans:
            parent = by_index[sub.args["round"]]
            assert parent.t0 <= sub.t0 <= sub.t1 <= parent.t1

    def test_clock_is_monotone_and_matches_steps(self):
        tracer = traced_run(grid_2d(16, 16)).tracer
        prev = 0.0
        for step in tracer.steps:
            assert step.t0 == prev
            assert step.t1 >= step.t0
            prev = step.t1
        assert tracer.clock == prev

    def test_round_k_matches_coreness_levels(self):
        tracer = traced_run(grid_2d(16, 16)).tracer
        ks = [r.k for r in tracer.rounds if r.k is not None]
        assert ks == sorted(ks)
        assert 2 in ks  # grid kmax

    def test_telemetry_records_vgc_and_frontier(self):
        tele = traced_run(grid_2d(24, 24)).tracer.telemetry()
        peeling = [r for r in tele if r["subrounds"]]
        assert peeling
        assert any(r["absorbed"] for r in peeling)
        assert all(r["peak_frontier"] > 0 for r in peeling)

    def test_sampling_telemetry_on_hub_graph(self):
        tele = traced_run(hub_graph()).tracer.telemetry()
        assert sum(r["sample_draws"] for r in tele) > 0
        assert sum(r["resamples"] for r in tele) > 0

    def test_threads_one_clock_equals_work(self):
        graph = grid_2d(12, 12)
        tracer = traced_run(graph, threads=1).tracer
        result = ParallelKCore().decompose(graph)
        assert tracer.clock == result.metrics.work

    def test_finish_is_idempotent(self):
        tracer = traced_run(grid_2d(8, 8)).tracer
        spans = len(tracer.spans)
        tracer.finish()
        tracer.finish()
        assert len(tracer.spans) == spans


class TestDeterminism:
    def test_two_traced_runs_export_identically(self):
        graph = grid_2d(20, 20)
        a, b = traced_run(graph), traced_run(graph)
        assert render_perfetto(a) == render_perfetto(b)
        assert render_text(a) == render_text(b)
        assert render_flamegraph(a) == render_flamegraph(b)

    def test_tracing_does_not_perturb_results(self):
        graph = hub_graph()
        plain = ParallelKCore().decompose(graph)
        observed = ParallelKCore().decompose(graph, registry=traced())
        assert (plain.coreness == observed.coreness).all()
        assert (
            plain.metrics.to_stable_dict()
            == observed.metrics.to_stable_dict()
        )


class TestGoldensWithTracing:
    """The observational guarantee, checked against the blessed files.

    Runs every grid-24 matrix case (all engines, plus the alternate
    cost models) under a process-wide active registry with a tracer
    facet and requires the payloads to match the committed goldens
    bit-exactly — tracing on must equal tracing off, which the
    full-matrix goldens test pins.
    """

    @pytest.mark.parametrize(
        "case", select_cases("grid-24"), ids=lambda c: c.case_id
    )
    def test_traced_case_matches_blessed_golden(self, case):
        blessed = read_golden(case.engine)
        assert blessed is not None, f"no golden for {case.engine}"
        with observing(traced(case.case_id)) as registry:
            payload = run_case(case)
        assert payload == blessed[case.entry_key]
        assert registry.tracer.steps  # the tracer actually saw the run


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestPerfettoExport:
    def test_event_schema(self):
        doc = to_perfetto(traced_run(grid_2d(16, 16)))
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in {"X", "i", "C", "M"}
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"
            if event["ph"] == "C":
                assert isinstance(event["args"]["value"], float)

    def test_counter_timestamps_monotone(self):
        doc = to_perfetto(traced_run(hub_graph()))
        last: dict[str, float] = {}
        seen = set()
        for event in doc["traceEvents"]:
            if event["ph"] != "C":
                continue
            name = event["name"]
            seen.add(name)
            assert event["ts"] >= last.get(name, 0.0)
            last[name] = event["ts"]
        assert "frontier" in seen
        assert "contention" in seen

    def test_other_data_versioned(self):
        doc = to_perfetto(traced_run(grid_2d(8, 8)))
        other = doc["otherData"]
        assert other["trace_schema_version"] == TRACE_SCHEMA_VERSION
        assert other["threads"] == 96
        assert other["rounds"] == len(
            [s for s in doc["traceEvents"] if s.get("cat") == "round"]
        )
        assert other["model_signature"]

    def test_render_is_valid_json(self):
        text = render_perfetto(traced_run(grid_2d(8, 8)))
        doc = json.loads(text)
        assert doc["displayTimeUnit"] == "ms"

    def test_host_spans_on_second_pid(self):
        registry = MetricsRegistry("test", tracer=Tracer())
        ParallelKCore().decompose(grid_2d(8, 8), registry=registry)
        registry.host_span("cell", 0.25, max_rss_kb=1024)
        hosts = [
            e
            for e in to_perfetto(registry)["traceEvents"]
            if e.get("cat") == "host"
        ]
        assert len(hosts) == 1
        assert hosts[0]["pid"] == 2
        assert hosts[0]["dur"] == pytest.approx(0.25e6)

    def test_write_trace(self, tmp_path):
        path = tmp_path / "out.trace.json"
        write_trace(traced_run(grid_2d(8, 8)), str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestFlamegraph:
    def test_collapsed_stack_format(self):
        text = render_flamegraph(traced_run(grid_2d(16, 16)))
        lines = text.split("\n")
        assert lines
        for line in lines:
            assert re.fullmatch(r"\S+(;\S+)* \d+", line), line
        assert any(";round_k=2;" in line for line in lines)
        assert any(line.startswith("test;setup;") for line in lines)

    def test_counts_sum_to_simulated_clock(self):
        registry = traced_run(grid_2d(16, 16))
        tracer = registry.tracer
        total = sum(collapsed_stacks(registry).values())
        assert total == pytest.approx(tracer.clock, abs=len(tracer.steps))


class TestTextTimeline:
    def test_header_rounds_and_host(self):
        registry = MetricsRegistry("test", tracer=Tracer())
        ParallelKCore().decompose(grid_2d(16, 16), registry=registry)
        registry.host_span("run", 0.125)
        text = render_text(registry)
        assert f"schema v{TRACE_SCHEMA_VERSION}" in text
        assert "clock:" in text
        assert text.count("round") >= len(registry.tracer.rounds)
        assert "host: run wall=0.125s" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_smoke_writes_trace_and_flame(self, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        flame = tmp_path / "t.folded"
        code = main(
            [
                "ours",
                "GRID",
                "--tiny",
                "--output",
                str(out),
                "--flame",
                str(flame),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["otherData"]["label"] == "ours/GRID.tiny"
        assert flame.read_text().strip()
        stdout = capsys.readouterr().out
        assert "trace: ours/GRID.tiny" in stdout
        assert "kmax=2" in stdout

    def test_output_dash_prints_json(self, capsys):
        assert main(["julienne", "GRID", "--tiny", "--output", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["trace_schema_version"] == TRACE_SCHEMA_VERSION

    def test_unknown_engine_and_graph(self, capsys):
        assert main(["nope", "GRID"]) == 2
        assert "unknown engine" in capsys.readouterr().err
        assert main(["ours", "NOPE"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_is_a_usage_error(
        self, tmp_path, capsys, threads
    ):
        out = tmp_path / "t.trace.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["ours", "GRID", "--tiny", "--threads", threads,
                  "--output", str(out)])
        assert exit_info.value.code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_default_output_name(self):
        assert default_output("ours", "LJ-S", False) == "ours-LJ-S.trace.json"
        assert default_output("bz", "GRID", True) == "bz-GRID.tiny.trace.json"


# ----------------------------------------------------------------------
# Bench integration
# ----------------------------------------------------------------------
class TestBenchTracing:
    CELL = BenchCell("ours", "GRID", size="tiny")

    def test_run_cell_writes_trace_and_payload_unchanged(self, tmp_path):
        traced = run_cell(self.CELL, trace_dir=str(tmp_path))
        plain = run_cell(self.CELL)
        assert traced["metrics"] == plain["metrics"]
        assert traced["coreness"] == plain["coreness"]
        path = trace_path(self.CELL, str(tmp_path))
        doc = json.loads(open(path).read())
        assert doc["otherData"]["label"] == self.CELL.label
        # The host span carries the measured wall clock of the cell.
        hosts = [
            e for e in doc["traceEvents"] if e.get("cat") == "host"
        ]
        assert len(hosts) == 1

    def test_execute_progress_and_trace_records(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path / "cache"))
        trace_dir = str(tmp_path / "traces")
        report = execute(
            [self.CELL], cache=cache, trace_dir=trace_dir, progress=True
        )
        err = capsys.readouterr().err
        assert "bench: [1/1] ours/GRID/tiny/native ran" in err
        (record,) = report["cells"]
        assert record["trace"] == trace_path(self.CELL, trace_dir)
        assert json.loads(open(record["trace"]).read())["traceEvents"]

    def test_execute_trace_implies_refresh(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path / "cache"))
        execute([self.CELL], cache=cache, progress=False)
        report = execute(
            [self.CELL],
            cache=cache,
            trace_dir=str(tmp_path / "traces"),
            progress=False,
        )
        assert report["summary"]["misses"] == 1  # cache bypassed

    def test_execute_cached_progress_line(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path / "cache"))
        execute([self.CELL], cache=cache, progress=False)
        execute([self.CELL], cache=cache, progress=True)
        assert "cached" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Framework plumbing
# ----------------------------------------------------------------------
class TestFrameworkPlumbing:
    def test_decompose_kwarg_attaches(self):
        registry = traced()
        decompose(grid_2d(8, 8), FrameworkConfig(), registry=registry)
        assert registry.attached == registry.tracer.attempts == 1
        assert registry.tracer.steps

    def test_explicit_kwarg_wins_over_active(self):
        explicit = traced("explicit")
        ambient = traced("ambient")
        with observing(ambient):
            decompose(grid_2d(8, 8), FrameworkConfig(), registry=explicit)
        assert explicit.tracer.steps
        assert not ambient.tracer.steps
        assert ambient.attached == 0
        assert explicit.value("runtime.rounds") > 0
        assert ambient.counter_values("kernel.", family="host") == {}
        decisions = explicit.counter_values("kernel.mode.", family="host")
        assert sum(decisions.values()) == 1

    def test_baseline_engines_trace_via_active_tracer(self):
        from repro.regress.matrix import ENGINES
        from repro.runtime.cost_model import DEFAULT_COST_MODEL

        graph = grid_2d(10, 10)
        for engine in ("julienne", "bz", "park"):
            with observing(traced(engine)) as registry:
                ENGINES[engine](graph, DEFAULT_COST_MODEL)
            assert registry.tracer.steps, engine
