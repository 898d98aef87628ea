"""``python -m repro.trace`` — trace one engine on one suite graph.

Typical invocations::

    python -m repro.trace ours LJ-S                # full-size graph
    python -m repro.trace ours GRID --tiny         # smoke-sized
    python -m repro.trace julienne HCNS --tiny --flame out.folded
    python -m repro.trace ours LJ-S --threads 4 --output -

Writes a Chrome/Perfetto trace-event JSON (open it in
https://ui.perfetto.dev) and prints the plain-text timeline to stdout.
The run itself is also timed on the host clock (via the sanctioned
``repro.bench.wallclock`` reader) and recorded as a host span.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.wallclock import measure
from repro.generators import suite
from repro.obs import MetricsRegistry, observing
from repro.regress.matrix import ENGINES
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.trace import (
    DEFAULT_TRACE_THREADS,
    Tracer,
    render_flamegraph,
    render_perfetto,
    render_text,
    write_trace,
)


def default_output(engine: str, graph: str, tiny: bool) -> str:
    """The default trace-file name for one (engine, graph) cell."""
    size = ".tiny" if tiny else ""
    return f"{engine}-{graph}{size}.trace.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=(
            "Trace one engine on one suite graph: simulated-clock spans "
            "and per-round telemetry, exported as Perfetto JSON."
        ),
    )
    parser.add_argument(
        "engine",
        help=f"engine to trace; one of: {', '.join(ENGINES)}",
    )
    parser.add_argument(
        "graph",
        help="suite graph name (see repro.generators.suite.SUITE)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="run the tiny rendition of the suite graph",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=DEFAULT_TRACE_THREADS,
        help="simulated thread count of the trace clock (default: "
        f"{DEFAULT_TRACE_THREADS})",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="Perfetto JSON path (default: <engine>-<graph>.trace.json; "
        "'-' prints the JSON to stdout instead of the text timeline)",
    )
    parser.add_argument(
        "--flame",
        default=None,
        metavar="PATH",
        help="also write a collapsed-stack flamegraph to PATH",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    if args.engine not in ENGINES:
        known = ", ".join(ENGINES)
        print(
            f"error: unknown engine {args.engine!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    try:
        graph = suite.load(args.graph, tiny=args.tiny)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    label = f"{args.engine}/{args.graph}" + (".tiny" if args.tiny else "")
    registry = MetricsRegistry(label, tracer=Tracer(threads=args.threads))
    with observing(registry):
        with measure() as wall:
            result = ENGINES[args.engine](graph, DEFAULT_COST_MODEL)
    registry.host_span(label, wall.wall_s, max_rss_kb=wall.max_rss_kb)

    if args.output == "-":
        print(render_perfetto(registry))
    else:
        output = args.output or default_output(
            args.engine, args.graph, args.tiny
        )
        write_trace(registry, output)
        print(render_text(registry))
        print(f"kmax={int(result.kmax)}  wall={wall.wall_s:.3f}s")
        print(f"wrote {output} (load it in https://ui.perfetto.dev)")
    if args.flame:
        with open(args.flame, "w", encoding="utf-8") as handle:
            handle.write(render_flamegraph(registry))
            handle.write("\n")
        print(f"wrote {args.flame} (collapsed stacks)")
    return 0
