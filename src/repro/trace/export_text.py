"""Plain-text timeline exporter: the trace as a per-round table.

The quick look that needs no UI: one header, one line per peeling
round with its clock extent and telemetry, one footer.  Durations are
simulated microseconds (the clock counts ops == ns).
"""

from __future__ import annotations

from repro.trace.tracer import TRACE_SCHEMA_VERSION, timeline


def _round_line(rnd: dict) -> str:
    t0_us = rnd["t0"] / 1e3
    t1_us = rnd["t1"] / 1e3
    label = f"k={rnd['k']}" if rnd["k"] is not None else f"#{rnd['index']}"
    line = (
        f"  round {label:>8s} [{t0_us:12.1f}us -> {t1_us:12.1f}us] "
        f"subrounds={rnd['subrounds']:<3d} "
        f"frontier<={rnd['peak_frontier']:<6d} "
        f"steps={rnd['steps']:<4d} "
        f"atomics={rnd['atomics']:<7d} "
        f"contention<={rnd['max_contention']}"
    )
    extras = []
    if rnd["absorbed"]:
        extras.append(f"absorbed={rnd['absorbed']}")
    if rnd["sample_draws"]:
        extras.append(
            f"hits={rnd['sample_hits']}/{rnd['sample_draws']}"
        )
    if rnd["saturated"]:
        extras.append(f"saturated={rnd['saturated']}")
    if rnd["resamples"]:
        extras.append(f"resamples={rnd['resamples']}")
    if rnd["validate_failures"]:
        extras.append(f"validate_failures={rnd['validate_failures']}")
    if extras:
        line += " " + " ".join(extras)
    return line


def render_text(registry) -> str:
    """Human-readable timeline of the registry's whole trace."""
    tracer = timeline(registry)
    telemetry = tracer.telemetry()
    lines = [
        f"trace: {registry.label} (simulated @{tracer.threads} threads, "
        f"schema v{TRACE_SCHEMA_VERSION})",
        f"  clock: {tracer.clock / 1e3:,.1f}us simulated, "
        f"{len(tracer.steps)} steps, {len(telemetry)} rounds, "
        f"{sum(r['subrounds'] for r in telemetry)} subrounds, "
        f"{tracer.attempts} attempt(s)",
    ]
    setup_steps = [s for s in tracer.steps if s.round_index == 0]
    if setup_steps:
        t1_us = max(s.t1 for s in setup_steps) / 1e3
        lines.append(
            f"  setup            [{0.0:12.1f}us -> {t1_us:12.1f}us] "
            f"steps={len(setup_steps)}"
        )
    lines.extend(_round_line(rnd) for rnd in telemetry)
    for host in tracer.host_spans:
        lines.append(
            f"  host: {host.name} wall={host.wall_s:.3f}s"
        )
    return "\n".join(lines)
