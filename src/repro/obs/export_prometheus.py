"""Prometheus text-exposition exporter.

Renders a registry in the Prometheus text format (version 0.0.4): one
``# HELP`` / ``# TYPE`` header pair per metric, counters suffixed
``_total``, histograms expanded into cumulative ``_bucket{le=...}``
series plus ``_sum`` / ``_count``.  Metric names are prefixed with the
family (``repro_sim_`` / ``repro_host_``) so the two families can never
be aggregated together by a scraper.  Unlike the JSON snapshot, the
exposition carries the ``host`` family too.

The output is deterministic (sorted metric names, fixed float
formatting) — the exposition of two same-seed runs is byte-identical.
"""

from __future__ import annotations

import re

from repro.obs.registry import FAMILIES, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, family: str) -> str:
    """The Prometheus-safe exposition name of a registry metric."""
    return f"repro_{family}_" + _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text-exposition format."""
    lines: list[str] = []
    for family in FAMILIES:
        sections = registry.family_snapshot(family)
        for name, payload in sections["counters"].items():
            prom = metric_name(name, family) + "_total"
            lines.append(f"# HELP {prom} repro counter {name} ({family})")
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_fmt(payload['value'])}")
        for name, payload in sections["gauges"].items():
            prom = metric_name(name, family)
            lines.append(f"# HELP {prom} repro gauge {name} ({family})")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_fmt(payload['value'])}")
        for name, payload in sections["histograms"].items():
            prom = metric_name(name, family)
            lines.append(
                f"# HELP {prom} repro histogram {name} ({family})"
            )
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for edge, count in zip(
                payload["boundaries"], payload["counts"]
            ):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_fmt(edge)}"}} {cumulative}'
                )
            cumulative += payload["counts"][-1] if payload["counts"] else 0
            lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{prom}_sum {_fmt(payload['sum'])}")
            lines.append(f"{prom}_count {payload['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry: MetricsRegistry, path: str) -> str:
    """Write the exposition text to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry))
    return path
