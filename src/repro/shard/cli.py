"""``python -m repro.shard`` — one sharded decomposition, one report.

Typical invocations::

    python -m repro.shard GRID --tiny --workers 2
    python -m repro.shard LJ-S --size large --workers 4 --output lj.json
    python -m repro.shard HCNS --tiny --workers 0     # inline oracle path

The report is deliberately **worker-count invariant**: it pins the
graph, the coreness fingerprint, the round count and the full simulated
ledger — everything the exactness contract covers — and nothing that
legitimately varies with the pool size (walls, shipped bytes, the
partition).  CI's ``shard-smoke`` job runs this twice with different
worker counts and ``cmp``'s the files byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from repro.bench.wallclock import measure
from repro.generators import suite
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.shard.engine import default_workers, shard_coreness

#: Schema version of the report emitted by this CLI.
SHARD_REPORT_VERSION = 1


def coreness_fingerprint(coreness: np.ndarray) -> str:
    """SHA-256 over the little-endian int64 coreness array."""
    data = np.ascontiguousarray(coreness, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description=(
            "Run one sharded decomposition and write the worker-count "
            "invariant report (coreness fingerprint + simulated ledger)."
        ),
    )
    parser.add_argument(
        "graph",
        help="suite graph name (see repro.generators.suite.SUITE)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shorthand for --size tiny",
    )
    parser.add_argument(
        "--size",
        default=None,
        choices=suite.SIZES,
        help="suite tier to run (default: the suite's default tier)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes; 0 runs the identical schedule inline "
        "(default: the CPUs available to this process)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="report path ('-' or omitted: stdout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    size = "tiny" if args.tiny else args.size
    graph = suite.load(args.graph, size=size)
    workers = args.workers if args.workers is not None else default_workers()
    try:
        with measure() as wall:
            result = shard_coreness(
                graph, DEFAULT_COST_MODEL, workers=workers
            )
    except ValueError as exc:
        parser.error(str(exc))
    report = {
        "shard_report_version": SHARD_REPORT_VERSION,
        "graph": {
            "name": args.graph,
            "size": size or "default",
            "n": int(graph.n),
            "m": int(graph.m),
        },
        "coreness_sha256": coreness_fingerprint(result.coreness),
        "kmax": int(result.coreness.max(initial=0)),
        "rounds": int(result.metrics.rounds),
        "metrics": result.metrics.to_stable_dict(DEFAULT_COST_MODEL),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"shard: {args.graph} n={graph.n} m={graph.m} "
        f"workers={workers} rounds={report['rounds']} "
        f"kmax={report['kmax']} wall={wall.wall_s:.3f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
