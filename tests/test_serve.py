"""The serving layer: stream generators, epoch reads, report schema, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.verify import reference_coreness
from repro.generators.streams import (
    DEFAULT_INTERVAL_NS,
    PROFILES,
    EdgePool,
    Query,
    UpdateBatch,
    generate_stream,
)
from repro.graphs.csr import CSRGraph
from repro.serve import (
    PERCENTILES,
    SERVE_SCHEMA_VERSION,
    CoreService,
    run_service,
)
from repro.serve.__main__ import main as serve_main


# ----------------------------------------------------------------------
# Stream generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", PROFILES)
def test_stream_is_deterministic(small_er, profile):
    first = generate_stream(small_er, profile, seed=3)
    second = generate_stream(small_er, profile, seed=3)
    assert first == second
    different = generate_stream(small_er, profile, seed=4)
    assert first != different


@pytest.mark.parametrize("profile", PROFILES)
def test_stream_events_well_formed(small_er, profile):
    events = generate_stream(
        small_er, profile, batches=16, batch_size=8, seed=0
    )
    times = [event.time for event in events]
    assert times == sorted(times)
    batches = [e for e in events if isinstance(e, UpdateBatch)]
    queries = [e for e in events if isinstance(e, Query)]
    assert len(batches) == 16
    assert queries, "queries_per_batch default must produce queries"
    for batch in batches:
        for u, v in batch.insertions + batch.deletions:
            assert 0 <= u < small_er.n and 0 <= v < small_er.n
            assert u != v
    for query in queries:
        assert 0 <= query.vertex < small_er.n


def test_stream_replays_consistently(small_er):
    """Deletions always target present edges, insertions absent ones."""
    events = generate_stream(
        small_er, "churn", batches=24, batch_size=12, seed=5
    )
    current = set()
    src = np.repeat(np.arange(small_er.n), np.diff(small_er.indptr))
    for s, d in zip(src.tolist(), small_er.indices.tolist()):
        if s < d:
            current.add((s, d))
    for event in events:
        if not isinstance(event, UpdateBatch):
            continue
        for u, v in event.deletions:
            key = (min(u, v), max(u, v))
            assert key in current, "stream deleted an absent edge"
            current.discard(key)
        for u, v in event.insertions:
            key = (min(u, v), max(u, v))
            assert key not in current, "stream inserted a present edge"
            current.add(key)


def test_stream_rejects_bad_input(small_er):
    with pytest.raises(ValueError, match="profile"):
        generate_stream(small_er, "warp-speed")
    with pytest.raises(ValueError):
        generate_stream(CSRGraph.from_edges(1, []), "steady")


def test_edge_pool_swap_remove():
    pool = EdgePool(
        CSRGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    )
    assert len(pool) == 3 and (2, 3) in pool
    removed = pool.remove_at(0)
    assert removed not in pool and len(pool) == 2
    pool.add((1, 2))
    assert (1, 2) in pool and len(pool) == 3


# ----------------------------------------------------------------------
# CoreService semantics
# ----------------------------------------------------------------------
def test_read_your_epoch_consistency(triangle):
    """Queries between commits see exactly the committed coreness."""
    service = CoreService(triangle)
    before = reference_coreness(triangle)

    # A query before any batch reads epoch 0.
    value, epoch = service.submit_query(Query(time=1.0, vertex=0))
    assert (value, epoch) == (int(before[0]), 0)

    commit = service.submit_batch(
        UpdateBatch(time=10.0, insertions=(), deletions=(((0, 1)),))
    )
    assert commit > 10.0

    # Arrivals before the commit still read epoch 0; at/after, epoch 1.
    stale_value, stale_epoch = service.submit_query(
        Query(time=(10.0 + commit) / 2, vertex=0)
    )
    assert (stale_value, stale_epoch) == (int(before[0]), 0)
    fresh_value, fresh_epoch = service.submit_query(
        Query(time=commit, vertex=0)
    )
    assert fresh_epoch == 1
    assert fresh_value == int(service.engine.coreness[0]) == 1


def test_writer_queues_batches(triangle):
    """A batch arriving mid-peel waits for the writer to free up."""
    service = CoreService(triangle, threads=1)
    first_commit = service.submit_batch(
        UpdateBatch(time=0.0, insertions=(), deletions=((0, 1),))
    )
    second_commit = service.submit_batch(
        UpdateBatch(time=0.0, insertions=((0, 1),), deletions=())
    )
    assert second_commit > first_commit
    # Latency of the second batch includes the queueing delay.
    assert service.stats.update_latency_ns[1] >= (
        second_commit - first_commit
    )


def test_epoch_pruning_keeps_visible_epoch(small_er):
    service = CoreService(small_er)
    events = generate_stream(
        small_er, "steady", batches=12, batch_size=6, seed=1
    )
    service.replay(events)
    # After a replay, old epochs have been pruned as queries advanced.
    assert len(service._epochs) <= service.engine.epoch + 1
    late = service.committed_at(float("inf"))
    assert late.epoch == service.engine.epoch
    assert np.array_equal(late.coreness, service.engine.coreness)


def test_replay_rejects_unknown_events(triangle):
    with pytest.raises(TypeError, match="unknown stream event"):
        CoreService(triangle).replay([object()])


# ----------------------------------------------------------------------
# Report schema and determinism
# ----------------------------------------------------------------------
def serve_report(graph, profile="steady", seed=0):
    events = generate_stream(
        graph, profile, batches=10, batch_size=8, seed=seed
    )
    return run_service(
        graph, events, context={"profile": profile, "seed": seed}
    )


@pytest.mark.parametrize("profile", PROFILES)
def test_same_seed_identical_report(small_er, profile):
    first = json.dumps(serve_report(small_er, profile), sort_keys=True)
    second = json.dumps(serve_report(small_er, profile), sort_keys=True)
    assert first == second


def test_report_schema(small_er):
    report = serve_report(small_er)
    assert report["schema"] == SERVE_SCHEMA_VERSION == 2
    assert report["stream"] == {"profile": "steady", "seed": 0}
    for section in (
        "events", "throughput", "latency", "histograms", "epochs"
    ):
        assert section in report, section
    # v2: registry-sourced histogram views next to the exact percentiles.
    hists = report["histograms"]
    assert hists["obs_schema_version"] == 2
    assert hists["staleness_ns"]["count"] == report["events"]["queries"]
    assert hists["batch_size"]["count"] == report["events"]["batches"]
    assert (
        hists["commit_latency_ns"]["count"] == report["events"]["batches"]
    )
    assert len(hists["staleness_ns"]["counts"]) == (
        len(hists["staleness_ns"]["boundaries"]) + 1
    )
    assert report["events"]["batches"] == 10
    assert report["epochs"]["committed"] == 10
    assert report["throughput"]["sim_duration_ns"] > 0
    assert report["throughput"]["updates_per_sec"] > 0
    for distribution in ("update_ns", "query_ns", "staleness_ns"):
        summary = report["latency"][distribution]
        for p in PERCENTILES:
            assert f"p{p}" in summary
        assert summary["max"] >= summary[f"p{PERCENTILES[-1]}"]
    assert set(report["coreness"]) == {"kmax", "sum", "sha256"}
    assert len(report["answers_sha256"]) == 16
    json.dumps(report)  # must be JSON-serializable as-is


def test_final_state_matches_recompute(small_er):
    events = generate_stream(
        small_er, "bursty", batches=12, batch_size=10, seed=2
    )
    service = CoreService(small_er)
    service.replay(events)
    final = service.engine.snapshot()
    assert np.array_equal(
        service.engine.coreness, reference_coreness(final)
    )


def test_interval_scales_duration(small_er):
    fast = generate_stream(
        small_er, "steady", batches=4, interval_ns=1e3, seed=0
    )
    slow = generate_stream(
        small_er, "steady", batches=4, interval_ns=DEFAULT_INTERVAL_NS, seed=0
    )
    assert slow[-1].time > fast[-1].time


# ----------------------------------------------------------------------
# CLI smoke: python -m repro.serve --tiny
# ----------------------------------------------------------------------
def test_cli_tiny_smoke(tmp_path, capsys):
    output = tmp_path / "serve.json"
    status = serve_main(
        ["--tiny", "--seed", "3", "--output", str(output)]
    )
    assert status == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads(output.read_text())
    assert report["schema"] == SERVE_SCHEMA_VERSION
    assert report["events"]["batches"] == 12
    assert report["stream"]["seed"] == 3

    # Stdout mode prints the same JSON document.
    status = serve_main(["--tiny", "--seed", "3"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_non_positive_threads(tmp_path, capsys, threads):
    output = tmp_path / "serve.json"
    with pytest.raises(SystemExit) as exit_info:
        serve_main(["--tiny", "--graph", "GRID", "--threads", threads,
                    "--output", str(output)])
    assert exit_info.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not output.exists()


def test_cli_trace_export(tmp_path, capsys):
    trace = tmp_path / "serve.trace.json"
    status = serve_main(["--tiny", "--trace", str(trace)])
    assert status == 0
    capsys.readouterr()
    payload = json.loads(trace.read_text())
    names = {event.get("name") for event in payload["traceEvents"]}
    assert "batch_commit" in names
