"""repro.obs: metrics registry, exporters, trend gate, observational law.

The two load-bearing suites are determinism (two same-seed observed runs
produce byte-identical JSON snapshots, with or without a tracer facet)
and the observational guarantee (the blessed regression goldens pass
bit-exactly *with a registry attached*, without re-blessing anything);
tests/test_trace.py covers the registry's timeline facet.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.cache import DiskCache
from repro.bench.runner import BenchCell, execute
from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.parallel_kcore import ParallelKCore
from repro.core.sequential import bz_core
from repro.generators import grid_2d, power_law_with_hub, suite
from repro.generators.streams import generate_stream
from repro.obs import (
    DEFAULT_MAX_REGRESS,
    OBS_SCHEMA_VERSION,
    SIZE_BOUNDARIES,
    TIME_BOUNDARIES_NS,
    Histogram,
    MetricsRegistry,
    TrendError,
    active_registry,
    diff_reports,
    observing,
    percentile_summary,
    render_dashboard,
    render_epoch_table,
    render_json,
    render_prometheus,
    render_trend,
    write_snapshot,
)
from repro.obs.cli import main as obs_main
from repro.perf import NATIVE, REFERENCE, native_available
from repro.regress.goldens import read_golden
from repro.regress.matrix import (
    ENGINES,
    GRAPH_BUILDERS,
    load_graph,
    run_case,
    select_cases,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime
from repro.serve import CoreService, run_service
from repro.serve.__main__ import main as serve_main
from repro.trace import Tracer, render_perfetto, to_perfetto
from repro.trace.export_perfetto import SIM_PID

#: Kernel modes a run can resolve to on this host.
KERNEL_MODES = [REFERENCE] + ([NATIVE] if native_available() else [])


# ----------------------------------------------------------------------
# Registry units
# ----------------------------------------------------------------------
class TestRegistry:
    def test_absent_by_default(self):
        assert active_registry() is None
        assert SimRuntime().registry is None

    def test_observing_installs_and_restores(self):
        registry = MetricsRegistry()
        with observing(registry) as installed:
            assert installed is registry
            assert active_registry() is registry
            assert SimRuntime().registry is registry
        assert active_registry() is None

    def test_observing_restores_previous(self):
        outer = MetricsRegistry("outer")
        inner = MetricsRegistry("inner")
        with observing(outer):
            with observing(inner):
                assert active_registry() is inner
            assert active_registry() is outer
        assert active_registry() is None

    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2.5)
        assert registry.value("a") == 3.5
        assert registry.value("missing", default=-1.0) == -1.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            registry.inc("a", -1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3.0)
        registry.set_gauge("depth", 1.0)
        assert registry.value("depth") == 1.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.set_gauge("x", 1.0)

    def test_family_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x", family="sim")
        with pytest.raises(ValueError, match="never mix"):
            registry.inc("x", family="host")

    def test_unknown_family_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric family"):
            registry.inc("x", family="cpu")

    def test_histogram_placement(self):
        hist = Histogram("h", "sim", (1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1e6):
            hist.observe(value)
        # bisect_right: a value equal to an edge lands past it.
        assert hist.counts == [1, 2, 0, 2]
        assert hist.count == 5
        assert hist.sum == pytest.approx(0.5 + 1.0 + 5.0 + 100.0 + 1e6)

    def test_histogram_boundaries_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "sim", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "sim", ())

    def test_histogram_redeclare_with_other_boundaries_rejected(self):
        registry = MetricsRegistry()
        registry.declare_histogram("h", (1.0, 2.0))
        registry.declare_histogram("h", (1.0, 2.0))  # idempotent
        with pytest.raises(ValueError, match="already declared"):
            registry.declare_histogram("h", (1.0, 3.0))

    def test_observe_defaults_time_boundaries(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1e6)
        assert registry.get("lat").boundaries == TIME_BOUNDARIES_NS

    def test_observe_on_counter_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="not a histogram"):
            registry.observe("x", 1.0)

    def test_quantile_estimates_are_monotone(self):
        registry = MetricsRegistry()
        for value in range(1, 200):
            registry.observe("h", float(value), boundaries=SIZE_BOUNDARIES)
        hist = registry.get("h")
        q50, q90, q99 = (
            hist.quantile(0.5), hist.quantile(0.9), hist.quantile(0.99)
        )
        assert 0.0 < q50 <= q90 <= q99
        assert Histogram("e", "sim", (1.0,)).quantile(0.5) == 0.0

    def test_marks_snapshot_sim_scalars_only(self):
        registry = MetricsRegistry()
        registry.inc("a", 2.0)
        registry.set_gauge("g", 7.0)
        registry.observe("h", 1.0)
        registry.inc("w", 1.0, family="host")
        registry.mark(123.0, label="epoch 1")
        (mark,) = registry.marks
        assert mark.ts == 123.0
        assert mark.label == "epoch 1"
        assert mark.values == {"a": 2.0, "g": 7.0}

    def test_merge_counts_and_prefix_filter(self):
        registry = MetricsRegistry()
        registry.inc("cache.graph_npz.hit", 2, family="host")
        registry.merge_counts({"cache.graph_npz.hit": 1.0}, family="host")
        registry.merge_counts({"other": 4.0})
        assert registry.counter_values("cache.", family="host") == {
            "cache.graph_npz.hit": 3.0
        }
        assert registry.counter_values() == {"other": 4.0}

    def test_percentile_summary_shape(self):
        summary = percentile_summary([])
        assert summary == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        summary = percentile_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["p50"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_attach_counts_runtimes(self):
        registry = MetricsRegistry()
        with observing(registry):
            SimRuntime()
            SimRuntime()
        assert registry.attached == 2


# ----------------------------------------------------------------------
# The observational law: metrics change nothing
# ----------------------------------------------------------------------
class TestObservationalLaw:
    def test_ledger_identical_with_and_without_registry(self):
        graph = grid_2d(24, 24)
        plain = ParallelKCore().decompose(graph)
        registry = MetricsRegistry()
        observed = ParallelKCore().decompose(graph, registry=registry)
        assert (plain.coreness == observed.coreness).all()
        assert (
            plain.metrics.to_stable_dict()
            == observed.metrics.to_stable_dict()
        )
        assert registry.value("runtime.rounds") > 0

    def test_batch_dynamic_identical_with_registry(self):
        graph = grid_2d(12, 12)
        registry = MetricsRegistry()
        plain = BatchDynamicKCore(graph)
        observed = BatchDynamicKCore(graph, registry=registry)
        for engine in (plain, observed):
            engine.apply_batch(insertions=[(0, 25), (3, 40)])
            engine.apply_batch(deletions=[(0, 25)])
        assert (plain.coreness == observed.coreness).all()
        assert plain.metrics.to_stable_dict() == (
            observed.metrics.to_stable_dict()
        )
        assert registry.value("dyn.batches") == 2.0
        assert registry.value("dyn.insertions.applied") == 2.0
        assert registry.value("dyn.deletions.applied") == 1.0
        assert registry.get("dyn.batch_size").count == 2

    def test_snapshot_is_byte_deterministic(self):
        def one_run() -> str:
            graph = grid_2d(16, 16)
            registry = MetricsRegistry("det")
            with observing(registry):
                ParallelKCore().decompose(graph)
                events = generate_stream(
                    graph, "steady", batches=3, batch_size=4, seed=1
                )
                run_service(graph, events, registry=registry)
            return render_json(registry)

        assert one_run() == one_run()

    def test_snapshot_identical_with_tracer_facet(self):
        def one_run(tracer) -> str:
            graph = grid_2d(16, 16)
            registry = MetricsRegistry("facet", tracer=tracer)
            with observing(registry):
                ParallelKCore().decompose(power_law_with_hub(
                    300, 4, hub_count=2, hub_degree=80, seed=7
                ))
                events = generate_stream(
                    graph, "steady", batches=3, batch_size=4, seed=1
                )
                run_service(graph, events, registry=registry)
            return render_json(registry)

        traced = Tracer()
        assert one_run(None) == one_run(traced)
        assert traced.steps and traced.instants

    def test_bz_counts_its_one_step(self):
        graph = grid_2d(12, 12)
        registry = MetricsRegistry("bz")
        with observing(registry):
            result = bz_core(graph)
        assert registry.attached == 1
        assert registry.counter_values("runtime.") == {
            "runtime.steps.sequential": 1.0,
            "runtime.work": result.metrics.work,
        }

    def test_write_snapshot_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a")
        path = tmp_path / "obs.json"
        write_snapshot(registry, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["obs_schema_version"] == OBS_SCHEMA_VERSION
        assert loaded["families"]["sim"]["counters"]["a"]["value"] == 1.0


class TestGoldensWithMetrics:
    """The observational guarantee against the blessed files.

    Runs every grid-24 matrix case under a process-wide active registry
    and requires the payloads to match the committed goldens bit-exactly
    — metrics on must equal metrics off, which the full-matrix goldens
    test pins (the goldens are never re-blessed for observability).
    """

    @pytest.mark.parametrize(
        "case", select_cases("grid-24"), ids=lambda c: c.case_id
    )
    def test_observed_case_matches_blessed_golden(self, case):
        blessed = read_golden(case.engine)
        assert blessed is not None, f"no golden for {case.engine}"
        with observing(MetricsRegistry(label=case.case_id)) as registry:
            payload = run_case(case)
        assert payload == blessed[case.entry_key]
        assert registry.counter_values()  # the registry saw the run


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def observed_serve(graph=None):
    graph = graph if graph is not None else grid_2d(12, 12)
    registry = MetricsRegistry("serve-test")
    events = generate_stream(
        graph, "steady", batches=4, batch_size=4,
        queries_per_batch=3, seed=0,
    )
    service = CoreService(graph, registry=registry)
    service.replay(events)
    return registry, service


class TestPrometheusExport:
    def test_exposition_format(self):
        registry, _ = observed_serve()
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert text.endswith("\n")
        # Counters: HELP/TYPE pair, _total suffix.
        assert "# TYPE repro_sim_serve_queries_total counter" in lines
        assert any(
            line.startswith("repro_sim_serve_queries_total ")
            for line in lines
        )
        # Histograms: cumulative buckets ending at +Inf == _count.
        assert "# TYPE repro_sim_serve_staleness_ns histogram" in lines
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_sim_serve_staleness_ns_bucket")
        ]
        assert buckets == sorted(buckets)
        count = next(
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_sim_serve_staleness_ns_count")
        )
        assert buckets[-1] == count
        inf_lines = [
            line for line in lines if 'le="+Inf"' in line
            and line.startswith("repro_sim_serve_staleness_ns_bucket")
        ]
        assert len(inf_lines) == 1

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_exposition_deterministic(self):
        first = render_prometheus(observed_serve()[0])
        second = render_prometheus(observed_serve()[0])
        assert first == second


class TestDashboard:
    def test_dashboard_lists_metrics(self):
        registry, _ = observed_serve()
        text = render_dashboard(registry)
        assert "== metrics: serve-test" in text
        assert "[sim]" in text
        assert "serve.queries" in text
        assert "~p50=" in text

    def test_epoch_table_rows(self):
        registry, _ = observed_serve()
        text = render_epoch_table(registry)
        assert "epoch 1" in text
        assert "dyn.batches+1" in text
        assert render_epoch_table(MetricsRegistry()) == (
            "(no epoch marks recorded)"
        )


class TestPerfettoCounterTracks:
    def test_no_registry_is_byte_identical(self):
        """The ``obs/*`` tracks are additive: a counter-less registry on
        the same tracer exports exactly the other events."""
        registry = MetricsRegistry("t", tracer=Tracer())
        ParallelKCore().decompose(grid_2d(12, 12), registry=registry)
        bare = MetricsRegistry("t", tracer=registry.tracer)
        full = to_perfetto(registry)
        full["traceEvents"] = [
            e for e in full["traceEvents"]
            if not e["name"].startswith("obs/")
        ]
        assert len(full["traceEvents"]) < len(
            to_perfetto(registry)["traceEvents"]
        )
        assert json.dumps(full, indent=1, sort_keys=True) == (
            render_perfetto(bare)
        )

    def test_marks_become_counter_tracks(self):
        graph = grid_2d(12, 12)
        registry = MetricsRegistry("serve", tracer=Tracer())
        events = generate_stream(
            graph, "steady", batches=3, batch_size=4, seed=0
        )
        service = CoreService(graph, registry=registry)
        service.replay(events)
        doc = to_perfetto(registry)
        obs_events = [
            e for e in doc["traceEvents"]
            if e["name"].startswith("obs/")
        ]
        assert obs_events
        assert all(e["ph"] == "C" for e in obs_events)
        batch_samples = [
            e["args"]["value"]
            for e in obs_events
            if e["name"] == "obs/dyn.batches"
        ]
        # One sample per epoch mark plus the final snapshot.
        assert batch_samples == [1.0, 2.0, 3.0, 3.0]
        ts = [e["ts"] for e in obs_events]
        assert ts == sorted(ts)


# ----------------------------------------------------------------------
# Instrumented subsystems: kernels, caches, bench matrix
# ----------------------------------------------------------------------
class TestSubsystemCounters:
    def test_kernel_mode_counters(self, monkeypatch):
        """Each decision counts into the registry given, never the active."""
        from repro.perf import kernel_mode

        monkeypatch.setenv("REPRO_KERNELS", "reference")
        registry = MetricsRegistry()
        ambient = MetricsRegistry()
        with observing(ambient):
            kernel_mode(registry)
            kernel_mode(registry)
            kernel_mode()
        assert registry.value("kernel.mode.reference") == 2.0
        assert ambient.counter_values("kernel.", family="host") == {}

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_every_run_counts_one_decision(self, monkeypatch, mode):
        """One ``kernel.mode.<mode>`` per engine run, into its registry."""
        from repro.core.locality import hindex_coreness
        from repro.shard import shard_coreness

        monkeypatch.setenv("REPRO_KERNELS", mode)
        graph = power_law_with_hub(
            300, 3, hub_count=2, hub_degree=80, seed=104
        )
        runs = {
            name: (lambda runner=runner: runner(graph, DEFAULT_COST_MODEL))
            for name, runner in ENGINES.items()
        }
        runs["shard-inline"] = lambda: shard_coreness(graph, workers=0)
        runs["shard-1-worker"] = lambda: shard_coreness(graph, workers=1)
        runs["hindex"] = lambda: hindex_coreness(graph)
        counts = {}
        for name, run in runs.items():
            registry = MetricsRegistry(name)
            with observing(registry):
                run()
            counts[name] = registry.counter_values("kernel.", family="host")
        assert counts == {
            name: {f"kernel.mode.{mode}": 1.0} for name in runs
        }

    def test_restarts_count_one_decision(self):
        """Las-Vegas restarts reuse the run's one decision."""
        from repro.core.framework import FrameworkConfig, decompose
        from repro.core.sampling import SamplingConfig

        graph = power_law_with_hub(
            300, 3, hub_count=2, hub_degree=80, seed=104
        )
        config = FrameworkConfig(
            vgc=True,
            sampling=True,
            sampling_config=SamplingConfig(mu=4, threshold=8),
        )
        registry = MetricsRegistry()
        result = decompose(graph, config, registry=registry)
        assert result.metrics.restarts == 2
        decisions = registry.counter_values("kernel.mode.", family="host")
        assert sum(decisions.values()) == 1.0

    def test_service_counts_one_decision_per_batch(self):
        """A service attached with ``registry=`` counts its own batches."""
        registry = MetricsRegistry("service")
        ambient = MetricsRegistry("ambient")
        graph = grid_2d(8, 8)
        engine = BatchDynamicKCore(graph, registry=registry)
        with observing(ambient):
            engine.apply_batch(insertions=[(0, 9)])
            engine.apply_batch(deletions=[(0, 1)])
            engine.apply_batch(insertions=[(0, 1)], deletions=[(0, 9)])
        decisions = registry.counter_values("kernel.mode.", family="host")
        assert sum(decisions.values()) == 3.0
        assert ambient.counter_values("kernel.", family="host") == {}

    def test_graph_cache_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path))
        registry = MetricsRegistry()
        with observing(registry):
            suite.load.cache_clear()
            suite.load("GRID", size="tiny")
            suite.load.cache_clear()
            suite.load("GRID", size="tiny")
        suite.load.cache_clear()
        assert registry.value("cache.graph_npz.miss") == 1.0
        assert registry.value("cache.graph_npz.hit") == 1.0

    def test_bench_summary_caches_section(self, tmp_path):
        cache = DiskCache(str(tmp_path / "bench"))
        cells = [
            BenchCell("ours", "GRID", size="tiny", kernels="native")
        ]
        registry = MetricsRegistry()
        with observing(registry):
            cold = execute(cells, cache=cache)
        assert cold["schema_version"] == 4
        caches = cold["summary"]["caches"]
        assert caches["bench_cell"] == {"miss": 1}
        warm = execute(cells, cache=cache)
        assert warm["summary"]["caches"]["bench_cell"] == {"hit": 1}
        assert registry.value("cache.bench_cell.miss") == 1.0

    def test_traced_cell_reports_its_caches(self, tmp_path, monkeypatch):
        from repro.perf import native

        if not native.available():
            pytest.skip("no C compiler: the .so cache never loads")
        cell = BenchCell("ours", "GRID", size="tiny", kernels="native")
        suite.load("GRID", size="tiny")
        # Unload the kernels: the cell's first native call reloads the
        # .so, so its cache counter is bumped inside the traced run.
        monkeypatch.setattr(native, "_available", None)
        monkeypatch.setattr(native, "_lib", None)
        registry = MetricsRegistry()
        with observing(registry):
            report = execute(
                [cell],
                cache=DiskCache(str(tmp_path / "bench")),
                trace_dir=str(tmp_path / "traces"),
            )
        assert report["summary"]["caches"] == {
            "bench_cell": {"miss": 1},
            "native_so": {"hit": 1},
        }

    def test_cached_payloads_identical_with_metrics(self, tmp_path):
        cells = [
            BenchCell("bz", "GRID", size="tiny", kernels="native")
        ]
        plain = execute(cells, cache=DiskCache(str(tmp_path / "a")))
        with observing(MetricsRegistry()):
            observed = execute(cells, cache=DiskCache(str(tmp_path / "b")))
        strip = (
            lambda rep: [
                {
                    k: v
                    for k, v in cell.items()
                    if k not in ("wall_s", "max_rss_kb")
                }
                for cell in rep["cells"]
            ]
        )
        assert strip(plain) == strip(observed)


# ----------------------------------------------------------------------
# The host family: shown by Prometheus and the dashboard, left out of
# the snapshot and the trace
# ----------------------------------------------------------------------
def traced_engine(engine: str, graph: str) -> tuple[str, list[dict]]:
    """The snapshot and the simulated-clock trace events of one run.

    Host spans (pid 2, such as the shard pool's per-worker wall tracks)
    are host data and are left out.
    """
    registry = MetricsRegistry(f"{engine}/{graph}", tracer=Tracer())
    with observing(registry):
        ENGINES[engine](load_graph(graph), DEFAULT_COST_MODEL)
    events = to_perfetto(registry)["traceEvents"]
    return render_json(registry), [e for e in events if e["pid"] == SIM_PID]


def tiny_replay(graph: str, path: Path) -> tuple[str, str, str]:
    """Snapshot, trace and exposition of a tiny ``graph`` serve replay."""
    path.mkdir()
    files = [path / name for name in ("obs.json", "trace.json", "prom")]
    status = serve_main(
        [
            "--tiny", "--graph", graph,
            "--metrics-output", str(files[0]),
            "--trace", str(files[1]),
            "--prom", str(files[2]),
            "--output", str(path / "report.json"),
        ]
    )
    assert status == 0
    return tuple(file.read_text() for file in files)


needs_native = pytest.mark.skipif(
    NATIVE not in KERNEL_MODES, reason="the native kernels do not load"
)


class TestHostFamily:
    def test_host_metrics_stay_out_of_the_snapshot(self):
        registry, _ = observed_serve()
        assert registry.value(f"kernel.mode.{KERNEL_MODES[-1]}") == 4.0
        assert "kernel.mode." not in render_json(registry)
        assert "repro_host_kernel_mode_" in render_prometheus(registry)
        dashboard = render_dashboard(registry)
        assert "[host]" in dashboard and "kernel.mode." in dashboard

    @needs_native
    @pytest.mark.parametrize("graph", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_kernel_modes_trace_alike(self, monkeypatch, engine, graph):
        runs = []
        for mode in (NATIVE, REFERENCE):
            monkeypatch.setenv("REPRO_KERNELS", mode)
            runs.append(traced_engine(engine, graph))
        assert runs[0] == runs[1]

    def test_pool_size_leaves_the_snapshot_alone(self):
        from repro.shard import shard_coreness

        graph = load_graph("grid-24")
        snapshots = []
        for workers in (0, 1, 2):
            registry = MetricsRegistry("shard")
            with observing(registry):
                shard_coreness(graph, workers=workers)
            assert registry.value("shard.workers") == workers
            snapshots.append(render_json(registry))
        assert snapshots[0] == snapshots[1] == snapshots[2]

    @needs_native
    def test_first_kernel_load_leaves_the_snapshot_alone(
        self, tmp_path, monkeypatch
    ):
        from repro.perf import native

        # Unload the kernels: the first replay loads them again and
        # counts the .so cache event; the second does not.
        monkeypatch.setattr(native, "_available", None)
        monkeypatch.setattr(native, "_lib", None)
        first = tiny_replay("GRID", tmp_path / "first")
        second = tiny_replay("GRID", tmp_path / "second")
        assert "repro_host_cache_native_so_" in first[2]
        assert "repro_host_cache_native_so_" not in second[2]
        assert first[:2] == second[:2]

    @needs_native
    @pytest.mark.parametrize("graph", ["GRID", "LJ-S"])
    def test_kernel_modes_replay_alike(self, tmp_path, monkeypatch, graph):
        replays = {}
        for mode in (NATIVE, REFERENCE):
            monkeypatch.setenv("REPRO_KERNELS", mode)
            replays[mode] = tiny_replay(graph, tmp_path / mode)
            assert f"repro_host_kernel_mode_{mode}_total 12\n" in (
                replays[mode][2]
            )
        assert replays[NATIVE][:2] == replays[REFERENCE][:2]


# ----------------------------------------------------------------------
# The trend gate
# ----------------------------------------------------------------------
def make_report(walls: dict[tuple[str, str], float], size="tiny",
                kernels="native") -> dict:
    return {
        "schema_version": 4,
        "cells": [
            {
                "engine": engine,
                "graph": graph,
                "size": size,
                "kernels": kernels,
                "wall_s": wall,
            }
            for (engine, graph), wall in sorted(walls.items())
        ],
    }


def write_report(tmp_path, name: str, report: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


class TestTrendGate:
    BASE = {
        ("ours", "GRID"): 1.0,
        ("ours", "HPL"): 2.0,
        ("bz", "GRID"): 4.0,
    }

    def test_clean_diff_ok(self):
        result = diff_reports(
            make_report(self.BASE), make_report(self.BASE)
        )
        assert result["ok"] is True
        assert result["cells_matched"] == 3
        assert result["regressions"] == []
        assert result["overall"]["ratio"] == 1.0

    def test_seeded_regression_caught(self):
        slower = {**self.BASE, ("ours", "GRID"): 2.0}
        result = diff_reports(
            make_report(self.BASE), make_report(slower)
        )
        assert result["ok"] is False
        levels = {reg["level"] for reg in result["regressions"]}
        assert "cell" in levels
        cell = next(
            r for r in result["regressions"] if r["level"] == "cell"
        )
        assert (cell["engine"], cell["graph"]) == ("ours", "GRID")
        assert cell["ratio"] == 2.0

    def test_threshold_edge(self):
        at_edge = {key: wall * DEFAULT_MAX_REGRESS
                   for key, wall in self.BASE.items()}
        result = diff_reports(
            make_report(self.BASE), make_report(at_edge)
        )
        assert result["ok"] is True  # ratio == max_regress passes
        past = {key: wall * (DEFAULT_MAX_REGRESS + 0.01)
                for key, wall in self.BASE.items()}
        result = diff_reports(make_report(self.BASE), make_report(past))
        assert result["ok"] is False

    def test_noise_floor_skips_tiny_cells(self):
        old = {("ours", "GRID"): 0.004}
        new = {("ours", "GRID"): 0.008}  # 2x, but both sub-floor
        result = diff_reports(make_report(old), make_report(new))
        assert result["ok"] is True
        assert result["cells"][0]["compared"] is False
        # ... unless the new side blows past 10x the floor.
        blown = {("ours", "GRID"): 0.6}
        result = diff_reports(make_report(old), make_report(blown))
        assert result["ok"] is False

    def test_kernel_mode_relaxed_matching(self):
        old = make_report(self.BASE, kernels="native")
        new = make_report(self.BASE, kernels="reference")
        result = diff_reports(old, new)
        assert result["cells_matched"] == 3

    def test_no_overlap_raises(self):
        old = make_report({("ours", "GRID"): 1.0})
        new = make_report({("ours", "HPL"): 1.0})
        with pytest.raises(TrendError, match="no cells match"):
            diff_reports(old, new)

    def test_render_trend_mentions_regression(self):
        slower = {**self.BASE, ("ours", "GRID"): 3.0}
        result = diff_reports(
            make_report(self.BASE), make_report(slower)
        )
        text = render_trend(result)
        assert "REGRESSION [ours/GRID/tiny]" in text
        clean = diff_reports(make_report(self.BASE), make_report(self.BASE))
        assert "trend: OK" in render_trend(clean)


class TestTrendCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        old = write_report(tmp_path, "a.json", make_report(TestTrendGate.BASE))
        new = write_report(tmp_path, "b.json", make_report(TestTrendGate.BASE))
        assert obs_main(["trend", old, new]) == 0
        assert "trend: OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        old = write_report(tmp_path, "a.json", make_report(TestTrendGate.BASE))
        slower = {**TestTrendGate.BASE, ("ours", "GRID"): 2.0}
        new = write_report(tmp_path, "b.json", make_report(slower))
        assert obs_main(["trend", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_max_regress_flag(self, tmp_path, capsys):
        old = write_report(tmp_path, "a.json", make_report(TestTrendGate.BASE))
        slower = {key: wall * 1.5 for key, wall in TestTrendGate.BASE.items()}
        new = write_report(tmp_path, "b.json", make_report(slower))
        assert obs_main(["trend", old, new, "--max-regress", "2.0"]) == 0
        capsys.readouterr()
        assert obs_main(["trend", old, new, "--max-regress", "1.4"]) == 1

    def test_json_output(self, tmp_path, capsys):
        old = write_report(tmp_path, "a.json", make_report(TestTrendGate.BASE))
        new = write_report(tmp_path, "b.json", make_report(TestTrendGate.BASE))
        assert obs_main(["trend", old, new, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is True
        assert result["cells_matched"] == 3

    def test_unreadable_report_exit_two(self, tmp_path, capsys):
        old = write_report(tmp_path, "a.json", make_report(TestTrendGate.BASE))
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert obs_main(["trend", old, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert obs_main(["trend", old, str(tmp_path / "nope.json")]) == 2

    def test_old_schema_rejected(self, tmp_path, capsys):
        report = make_report(TestTrendGate.BASE)
        report["schema_version"] = 1
        old = write_report(tmp_path, "a.json", report)
        new = write_report(tmp_path, "b.json", make_report(TestTrendGate.BASE))
        assert obs_main(["trend", old, new]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_committed_baseline_is_readable(self, tmp_path):
        from repro.obs.trend import load_report

        baseline = str(
            Path(__file__).resolve().parents[1]
            / "BENCH_wallclock_tiny.json"
        )
        report = load_report(baseline)
        assert report["cells"]
        path = write_report(tmp_path, "same.json", report)
        assert obs_main(["trend", baseline, path]) == 0


# ----------------------------------------------------------------------
# Serve CLI metrics flags
# ----------------------------------------------------------------------
class TestServeCliMetrics:
    def test_metrics_flags(self, tmp_path, capsys):
        snapshot = tmp_path / "obs.json"
        prom = tmp_path / "metrics.prom"
        status = serve_main(
            [
                "--tiny",
                "--graph", "GRID",
                "--metrics",
                "--metrics-output", str(snapshot),
                "--prom", str(prom),
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert status == 0
        err = capsys.readouterr().err
        assert "== metrics:" in err
        assert "per-epoch counters" in err
        loaded = json.loads(snapshot.read_text())
        assert loaded["obs_schema_version"] == OBS_SCHEMA_VERSION
        assert "serve.queries" in loaded["families"]["sim"]["counters"]
        assert len(loaded["marks"]) == 12  # one per committed epoch
        text = prom.read_text()
        assert "# TYPE repro_sim_serve_queries_total counter" in text

    def test_metrics_snapshot_deterministic(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            status = serve_main(
                [
                    "--tiny", "--graph", "GRID", "--seed", "5",
                    "--metrics-output", str(path),
                    "--output", str(tmp_path / ("r-" + name)),
                ]
            )
            assert status == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
