"""CLI for the coreness service: replay a generated stream, print metrics.

Examples::

    python -m repro.serve --tiny
    python -m repro.serve --graph OK-S --profile bursty --batches 48
    python -m repro.serve --tiny --profile churn --trace serve.trace.json
    python -m repro.serve --tiny --metrics --metrics-output serve.obs.json

The report is schema-versioned JSON (see ``SERVE_SCHEMA_VERSION``) on
stdout, or at ``--output``.  Same arguments → bit-identical report: the
stream generator, the engine, and the service clock are all
deterministic.  ``--metrics`` prints the registry dashboard and the
per-epoch table to stderr; ``--metrics-output`` / ``--prom`` write the
byte-deterministic JSON snapshot / Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.generators import streams, suite
from repro.obs import (
    MetricsRegistry,
    observing,
    render_dashboard,
    render_epoch_table,
    write_prometheus,
    write_snapshot,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.serve import run_service
from repro.trace import Tracer, write_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="replay an update+query stream against the "
        "batch-dynamic coreness service",
    )
    parser.add_argument(
        "--graph",
        default="LJ-S",
        help="suite graph to serve (default: LJ-S; see repro.bench --list)",
    )
    parser.add_argument(
        "--size",
        choices=suite.SIZES,
        default=None,
        help="suite tier (default: full, or tiny with --tiny)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke preset: tiny tier, 12 small batches",
    )
    parser.add_argument(
        "--profile",
        choices=streams.PROFILES,
        default="steady",
        help="stream shape (default: steady)",
    )
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--queries-per-batch", type=int, default=None)
    parser.add_argument(
        "--interval",
        type=float,
        default=streams.DEFAULT_INTERVAL_NS,
        help="nominal inter-batch gap in simulated ns "
        f"(default: {streams.DEFAULT_INTERVAL_NS:.0f})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threads",
        type=int,
        default=DEFAULT_COST_MODEL.n_cores,
        help="simulated thread count the writer peels on "
        f"(default: {DEFAULT_COST_MODEL.n_cores})",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report JSON here instead of stdout",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Perfetto trace of the replay to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics dashboard and per-epoch table to stderr",
    )
    parser.add_argument(
        "--metrics-output",
        default=None,
        metavar="FILE",
        help="write the registry's JSON snapshot to FILE",
    )
    parser.add_argument(
        "--prom",
        default=None,
        metavar="FILE",
        help="write the registry in Prometheus text exposition to FILE",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    size = args.size or ("tiny" if args.tiny else "full")
    defaults = (12, 8, 6) if args.tiny else (32, 16, 8)
    batches = args.batches if args.batches is not None else defaults[0]
    batch_size = (
        args.batch_size if args.batch_size is not None else defaults[1]
    )
    queries = (
        args.queries_per_batch
        if args.queries_per_batch is not None
        else defaults[2]
    )

    graph = suite.load(args.graph, size=size)
    events = streams.generate_stream(
        graph,
        args.profile,
        batches=batches,
        batch_size=batch_size,
        queries_per_batch=queries,
        interval_ns=args.interval,
        seed=args.seed,
    )
    context = {
        "graph": args.graph,
        "size": size,
        "profile": args.profile,
        "batches": batches,
        "batch_size": batch_size,
        "queries_per_batch": queries,
        "interval_ns": args.interval,
        "seed": args.seed,
    }
    registry = MetricsRegistry(
        label=f"serve/{args.graph}/{args.profile}",
        tracer=Tracer() if args.trace else None,
    )
    with observing(registry):
        report = run_service(
            graph, events, threads=args.threads, context=context,
            registry=registry,
        )
    if args.trace:
        write_trace(registry, args.trace)

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        print(render_dashboard(registry), file=sys.stderr)
        print(render_epoch_table(registry), file=sys.stderr)
    if args.metrics_output:
        write_snapshot(registry, args.metrics_output)
        print(f"wrote metrics snapshot to {args.metrics_output}",
              file=sys.stderr)
    if args.prom:
        write_prometheus(registry, args.prom)
        print(f"wrote prometheus metrics to {args.prom}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
