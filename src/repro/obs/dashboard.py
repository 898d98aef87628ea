"""Plain-text metrics dashboard (``python -m repro.serve --metrics``).

Two views of one registry:

* :func:`render_dashboard` — the headline totals: every counter and
  gauge grouped by family (``sim``, then ``host``), histograms as
  count / mean / estimated tail quantiles (estimates come from the
  fixed buckets; the serve report's percentile fields stay exact, from
  the raw samples).
* :func:`render_epoch_table` — the per-epoch table built from the
  registry's marks (one per committed epoch in a serve replay): each
  row shows the simulated commit time and the delta of every counter
  that moved since the previous mark.
"""

from __future__ import annotations

from repro.obs.registry import (
    FAMILIES,
    OBS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
)


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_dashboard(registry: MetricsRegistry) -> str:
    """Headline totals of every metric, grouped by family."""
    lines = [
        f"== metrics: {registry.label} "
        f"(obs schema {OBS_SCHEMA_VERSION}, "
        f"{registry.attached} runtime(s) observed) ==",
    ]
    for family in FAMILIES:
        sections = registry.family_snapshot(family)
        if not any(sections.values()):
            continue
        lines.append(f"[{family}]")
        for name, payload in sections["counters"].items():
            lines.append(f"  {name:<40s} {_fmt(payload['value']):>14s}")
        for name, payload in sections["gauges"].items():
            lines.append(
                f"  {name:<40s} {_fmt(payload['value']):>14s} (gauge)"
            )
        for name, payload in sections["histograms"].items():
            hist = registry.get(name)
            assert isinstance(hist, Histogram)
            mean = hist.sum / hist.count if hist.count else 0.0
            lines.append(
                f"  {name:<40s} n={hist.count} mean={_fmt(mean)}"
                f" ~p50={_fmt(hist.quantile(0.50))}"
                f" ~p99={_fmt(hist.quantile(0.99))}"
            )
    return "\n".join(lines)


def render_epoch_table(registry: MetricsRegistry) -> str:
    """Per-mark counter deltas (one row per serve epoch commit)."""
    if not registry.marks:
        return "(no epoch marks recorded)"
    lines = ["-- per-epoch counters (deltas vs previous commit) --"]
    previous: dict[str, float] = {}
    for mark in registry.marks:
        moved = []
        for name in sorted(mark.values):
            delta = mark.values[name] - previous.get(name, 0.0)
            if delta:
                moved.append(f"{name}+{_fmt(delta)}")
        label = mark.label or f"t={mark.ts:.0f}"
        lines.append(
            f"  {label:<12s} @ {mark.ts:>16.0f}ns  " + " ".join(moved)
        )
        previous = mark.values
    return "\n".join(lines)
