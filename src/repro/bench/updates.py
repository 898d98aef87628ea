"""The ``updates`` benchmark tier: batch-engine update throughput.

The serving claim of the ROADMAP is quantitative: recompute-from-scratch
cannot keep up with update traffic that the batched engine absorbs.
This tier measures it.  For each flagship graph it replays one
deterministic update stream through
:class:`repro.core.batch_dynamic.BatchDynamicKCore`, one ``apply_batch``
call per batch (flat kernels, one invocation per peel round), and
reports wall-clock updates/sec, the simulated-clock throughput, and
whether the final coreness equals a full recompute of the final graph.
Engine construction (the initial decomposition) stays outside the timed
region; the stream is generated up front.  Results go to
``BENCH_updates.json`` via ``python -m repro.bench --updates``.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.bench.wallclock import measure
from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.verify import reference_coreness
from repro.generators import suite
from repro.generators.streams import UpdateBatch, generate_stream
from repro.regress.matrix import coreness_fingerprint
from repro.runtime.cost_model import DEFAULT_COST_MODEL

#: Version of the BENCH_updates.json schema (2: the per-edge column and
#: its speedup are gone; ``exact`` replaced ``agreement``).
UPDATES_SCHEMA_VERSION = 2

#: Flagship graphs of the updates tier: the two social-network scale
#: stand-ins plus the pathological chain-reaction grid.
UPDATE_BENCH_GRAPHS = ("LJ-S", "OK-S", "GRID")


def bench_graph(
    name: str,
    size: str = "full",
    profile: str = "steady",
    batches: int = 12,
    batch_size: int = 96,
    seed: int = 0,
    threads: int | None = None,
    trace_dir: str | None = None,
) -> dict[str, object]:
    """Measure one graph's update replay; returns its report entry.

    With ``trace_dir``, the batch replay runs under a registry with a
    tracer facet and the Perfetto JSON (batch/subcore/peel spans on the
    simulated clock) is written to
    ``<trace_dir>/updates-<name>.trace.json``.
    Tracing is observational, so the report is identical either way.
    """
    graph = suite.load(name, size=size)
    events = generate_stream(
        graph,
        profile,
        batches=batches,
        batch_size=batch_size,
        queries_per_batch=0,
        seed=seed,
    )
    stream = [
        event for event in events if isinstance(event, UpdateBatch)
    ]
    threads = (
        int(threads) if threads is not None else DEFAULT_COST_MODEL.n_cores
    )

    if trace_dir is None:
        engine = BatchDynamicKCore(graph)
        with measure() as batch_wall:
            for batch in stream:
                engine.apply_batch(
                    insertions=batch.insertions,
                    deletions=batch.deletions,
                )
    else:
        from repro.obs import MetricsRegistry
        from repro.trace import Tracer, write_trace

        registry = MetricsRegistry(f"updates/{name}", tracer=Tracer())
        engine = BatchDynamicKCore(graph, registry=registry)
        with measure() as batch_wall:
            for batch in stream:
                engine.apply_batch(
                    insertions=batch.insertions,
                    deletions=batch.deletions,
                )
        registry.host_span(
            f"updates/{name}",
            batch_wall.wall_s,
            max_rss_kb=batch_wall.max_rss_kb,
        )
        os.makedirs(trace_dir, exist_ok=True)
        write_trace(
            registry, os.path.join(trace_dir, f"updates-{name}.trace.json")
        )
    applied = engine.updates
    sim_ns = engine.runtime.time_on(threads)
    exact = bool(
        np.array_equal(
            engine.coreness, reference_coreness(engine.snapshot())
        )
    )
    batch_ups = (
        applied / batch_wall.wall_s if batch_wall.wall_s > 0 else 0.0
    )
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "updates_applied": int(applied),
        "batches": len(stream),
        "batch": {
            "wall_s": batch_wall.wall_s,
            "updates_per_sec": batch_ups,
            "sim_ns": sim_ns,
            "sim_updates_per_sec": (
                applied * 1e9 / sim_ns if sim_ns > 0 else 0.0
            ),
            "ledger": engine.metrics.to_stable_dict(DEFAULT_COST_MODEL),
        },
        "exact": exact,
        "coreness": coreness_fingerprint(engine.coreness),
    }


def run_updates_bench(
    graphs: tuple[str, ...] | list[str] | None = None,
    size: str = "full",
    profile: str = "steady",
    batches: int = 12,
    batch_size: int = 96,
    seed: int = 0,
    progress: bool = False,
    trace_dir: str | None = None,
) -> dict[str, object]:
    """The full updates-tier report (see module docstring)."""
    names = list(graphs) if graphs else list(UPDATE_BENCH_GRAPHS)
    entries: dict[str, object] = {}
    for name in names:
        if progress:
            print(f"updates: {name} ({size})...", file=sys.stderr)
        entries[name] = bench_graph(
            name,
            size=size,
            profile=profile,
            batches=batches,
            batch_size=batch_size,
            seed=seed,
            trace_dir=trace_dir,
        )
    return {
        "schema": UPDATES_SCHEMA_VERSION,
        "size": size,
        "stream": {
            "profile": profile,
            "batches": batches,
            "batch_size": batch_size,
            "seed": seed,
        },
        "graphs": entries,
    }


__all__ = [
    "UPDATES_SCHEMA_VERSION",
    "UPDATE_BENCH_GRAPHS",
    "bench_graph",
    "run_updates_bench",
]
