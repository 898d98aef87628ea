"""``python -m repro.bench`` — run the matrix, write BENCH_wallclock.json.

Typical invocations::

    python -m repro.bench                     # full matrix, pool fan-out
    python -m repro.bench --tiny              # smoke-sized matrix
    python -m repro.bench --large             # ~10x scaled matrix
    python -m repro.bench --tiny --assert-all-hits   # warm-cache check
    python -m repro.bench --compare-kernels   # cold kernel A/B evidence
    python -m repro.bench --updates           # batch-engine update replay
    python -m repro.bench --shard --large     # multi-process scaling curve

The report is written to ``--output`` (default ``BENCH_wallclock.json``;
``BENCH_updates.json`` with ``--updates``, ``BENCH_shard.json`` with
``--shard``) and a one-line summary is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.cache import DiskCache
from repro.bench.runner import compare_kernels_all, default_matrix, execute
from repro.bench.wallclock import available_cpus
from repro.perf import NATIVE, REFERENCE

DEFAULT_OUTPUT = "BENCH_wallclock.json"
DEFAULT_UPDATES_OUTPUT = "BENCH_updates.json"
DEFAULT_SHARD_OUTPUT = "BENCH_shard.json"


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _jobs(value: str) -> int:
    """``--jobs`` parser: a positive integer, or ``auto`` for the CPUs
    actually available to this process (cgroup/affinity aware)."""
    if value == "auto":
        return available_cpus()
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be positive or 'auto', got {value!r}"
        )
    return jobs


def _worker_counts(value: str) -> tuple[int, ...]:
    counts = tuple(int(item) for item in _csv(value))
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"--shard-workers needs positive counts, got {value!r}"
        )
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Cached, wall-clock-instrumented benchmark matrix.",
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument(
        "--tiny",
        action="store_true",
        help="run the tiny renditions of every suite graph",
    )
    size.add_argument(
        "--large",
        action="store_true",
        help="run the large (~10x full) renditions of every suite graph",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        help="process-pool width for cache misses: a count or 'auto' "
        "(default: auto — the CPUs available to this process)",
    )
    parser.add_argument(
        "--engines",
        type=_csv,
        default=None,
        help="comma-separated engine subset (default: all)",
    )
    parser.add_argument(
        "--graphs",
        type=_csv,
        default=None,
        help="comma-separated suite-graph subset (default: all)",
    )
    parser.add_argument(
        "--kernels",
        choices=(NATIVE, REFERENCE),
        default=None,
        help="kernel mode for the matrix (default: REPRO_KERNELS)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached payloads and re-run every cell",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: REPRO_BENCH_CACHE_DIR or "
        ".bench_cache)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default: {DEFAULT_OUTPUT}); '-' for stdout only",
    )
    parser.add_argument(
        "--assert-all-hits",
        action="store_true",
        help="exit non-zero unless every cell was a cache hit",
    )
    parser.add_argument(
        "--assert-wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit non-zero if the measured (cold) wall time exceeds "
        "SECONDS — the CI scaling-regression tripwire",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="traces",
        default=None,
        metavar="DIR",
        help="write a Perfetto trace per cell into DIR (default: traces/); "
        "implies --refresh, since traces only come from fresh runs",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-cell progress lines on stderr",
    )
    parser.add_argument(
        "--compare-kernels",
        action="store_true",
        help="also run the cold kernel-mode A/B on every kernelized "
        "engine (ours plus the baselines)",
    )
    parser.add_argument(
        "--updates",
        action="store_true",
        help="run the updates tier instead: batch-dynamic engine "
        "update replay on the flagship graphs "
        f"(writes {DEFAULT_UPDATES_OUTPUT})",
    )
    parser.add_argument(
        "--shard",
        action="store_true",
        help="run the shard tier instead: multi-process scaling curve "
        "vs the best exact single-process engine on the flagship "
        f"graphs (writes {DEFAULT_SHARD_OUTPUT})",
    )
    parser.add_argument(
        "--shard-workers",
        type=_worker_counts,
        default=None,
        metavar="COUNTS",
        help="comma-separated worker counts for the --shard curve "
        "(default: 1,2,4,7)",
    )
    return parser


def _run_updates(args: argparse.Namespace) -> int:
    from repro.bench.updates import run_updates_bench

    size = "tiny" if args.tiny else ("large" if args.large else "full")
    report = run_updates_bench(
        graphs=args.graphs,
        size=size,
        progress=not args.no_progress,
        trace_dir=args.trace,
    )
    status = 0
    for name, entry in report["graphs"].items():
        batch = entry["batch"]
        exact = "exact" if entry["exact"] else "NOT EXACT"
        print(
            f"  {name:8s} batch {batch['updates_per_sec']:12.0f} up/s"
            f"  [{exact}]"
        )
        if not entry["exact"]:
            status = 1
    output = (
        DEFAULT_UPDATES_OUTPUT
        if args.output == DEFAULT_OUTPUT
        else args.output
    )
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
    return status


def _run_shard(args: argparse.Namespace) -> int:
    from repro.bench.shard import run_shard_bench

    size = "tiny" if args.tiny else ("large" if args.large else "full")
    report = run_shard_bench(
        graphs=args.graphs,
        size=size,
        workers=args.shard_workers,
        progress=not args.no_progress,
    )
    status = 0
    for name, entry in report["graphs"].items():
        best = entry["best_exact"]
        print(
            f"  {name:8s} best exact {best['engine']}: "
            f"{best['wall_s']:.3f}s"
        )
        for count, run in entry["shard"].items():
            agree = "ok" if run["agreement"] else "DISAGREE"
            print(
                f"    shard x{count}: {run['wall_s']:.3f}s  "
                f"{run['speedup_vs_best_exact']:5.2f}x  "
                f"({run['rounds']} rounds)  [{agree}]"
            )
            if not run["agreement"]:
                status = 1
    output = (
        DEFAULT_SHARD_OUTPUT
        if args.output == DEFAULT_OUTPUT
        else args.output
    )
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs is None:
        args.jobs = available_cpus()
    if args.updates:
        return _run_updates(args)
    if args.shard:
        return _run_shard(args)
    cache = DiskCache(args.cache_dir)
    size = "tiny" if args.tiny else ("large" if args.large else "full")
    cells = default_matrix(
        engines=args.engines,
        graphs=args.graphs,
        size=size,
        kernels=args.kernels,
    )
    report = execute(
        cells,
        jobs=args.jobs,
        cache=cache,
        refresh=args.refresh,
        trace_dir=args.trace,
        progress=not args.no_progress,
    )
    if args.compare_kernels:
        report["kernel_comparison"] = compare_kernels_all(
            graphs=args.graphs, size=size
        )

    summary = report["summary"]
    print(
        f"bench: {summary['cells']} cells, {summary['hits']} hits, "
        f"{summary['misses']} misses, "
        f"{summary['measured_wall_s']:.2f}s measured, "
        f"{summary['cached_wall_s']:.2f}s cached"
    )
    for engine, wall in summary["by_engine_wall_s"].items():
        print(f"  {engine:12s} {wall:8.2f}s")
    if args.trace:
        print(f"wrote per-cell traces to {args.trace}/")
    if "kernel_comparison" in report:
        for engine, comp in report["kernel_comparison"][
            "per_engine"
        ].items():
            walls = " vs ".join(
                f"{mode} {wall:.2f}s"
                for mode, wall in comp["wall_s"].items()
            )
            print(
                f"kernels[{engine}]: {walls} -> {comp['speedup']:.2f}x"
            )

    if args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.assert_all_hits and summary["misses"]:
        missed = ", ".join(
            f"{name} ({events.get('miss', 0)} misses)"
            for name, events in sorted(summary.get("caches", {}).items())
            if events.get("miss", 0)
        ) or "bench_cell"
        print(
            f"error: expected all hits, got {summary['misses']} misses; "
            f"caches that missed: {missed}",
            file=sys.stderr,
        )
        return 1
    if (
        args.assert_wall_budget is not None
        and summary["measured_wall_s"] > args.assert_wall_budget
    ):
        print(
            f"error: measured wall {summary['measured_wall_s']:.2f}s "
            f"exceeds budget {args.assert_wall_budget:.2f}s",
            file=sys.stderr,
        )
        return 1
    return 0
