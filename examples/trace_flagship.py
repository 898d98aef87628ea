"""Trace the flagship solver: spans on the simulated clock, Perfetto export.

Attaches a metrics registry with a :class:`repro.trace.Tracer` facet to
one decomposition, prints the per-round text timeline, and writes two
artifacts:

* ``flagship.trace.json`` — Chrome/Perfetto trace-event JSON; load it in
  https://ui.perfetto.dev to see round/subround span tracks, per-step
  spans, and the frontier/contention counter tracks;
* ``flagship.folded`` — collapsed stacks for ``flamegraph.pl`` or
  speedscope, showing where the simulated time goes by tag.

Run:  python examples/trace_flagship.py
"""

from pathlib import Path

from repro import ParallelKCore, generators
from repro.obs import MetricsRegistry
from repro.trace import Tracer, render_flamegraph, render_text, write_trace


def main(output_dir: str = "traces") -> None:
    # The tiny rendition keeps this instant; drop tiny=True for the
    # full-size suite graph.
    graph = generators.load("LJ-S", tiny=True)

    registry = MetricsRegistry("All/LJ-S.tiny", tracer=Tracer())
    result = ParallelKCore().decompose(graph, registry=registry)

    # The quick look: one line per peeling round, no UI needed.
    print(render_text(registry))

    # The telemetry is also available as plain dicts — find the round
    # that did the most simulated work.
    busiest = max(registry.tracer.telemetry(), key=lambda r: r["work"])
    print(
        f"busiest round: k={busiest['k']} "
        f"({busiest['subrounds']} subrounds, "
        f"peak frontier {busiest['peak_frontier']}, "
        f"{busiest['absorbed']} VGC absorptions)"
    )
    print(f"kmax={result.kmax}")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(registry, str(out / "flagship.trace.json"))
    (out / "flagship.folded").write_text(render_flamegraph(registry) + "\n")
    print(f"wrote {out / 'flagship.trace.json'} (open in ui.perfetto.dev)")
    print(f"wrote {out / 'flagship.folded'} (collapsed stacks)")


if __name__ == "__main__":
    main()
