"""Render drift reports for humans and machines.

The text drift report groups drifts by case and prints every moved metric
as ``old -> new`` with a signed percent delta, which is the artifact a
reviewer reads before deciding whether to bless.  The JSON form feeds CI
annotations and dashboards.
"""

from __future__ import annotations

import json

from repro.regress.compare import DriftReport, MetricDrift


def _fmt_value(value: object) -> str:
    if value is None:
        return "<absent>"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _fmt_delta(drift: MetricDrift) -> str:
    pct = drift.pct
    if pct is None:
        return ""
    return f"  ({pct:+.2f}%)"


def render_drift_text(report: DriftReport) -> str:
    """Human-readable drift report (empty-drift runs get one PASS line)."""
    lines: list[str] = []
    for engine in report.unblessed:
        lines.append(
            f"UNBLESSED {engine}: no golden file; run "
            f"`python -m repro.regress bless` to pin it"
        )
    for engine in report.stale:
        lines.append(
            f"STALE {engine}: golden file exists but the engine is no "
            f"longer in the matrix; delete the file or restore the engine"
        )
    current = None
    for drift in report.drifts:
        if drift.case_id != current:
            current = drift.case_id
            lines.append(f"DRIFT {drift.case_id}")
        lines.append(
            f"    {drift.metric}: {_fmt_value(drift.old)} -> "
            f"{_fmt_value(drift.new)}{_fmt_delta(drift)}"
        )
    if report.clean:
        lines.append(
            f"OK: {report.cases_checked} cases match the blessed goldens"
        )
    else:
        lines.append(
            f"{len(report.drifts)} drifted metrics across "
            f"{len(report.drifted_cases())} cases "
            f"({report.cases_checked} checked, "
            f"{len(report.unblessed)} unblessed, "
            f"{len(report.stale)} stale)"
        )
    return "\n".join(lines)


def render_drift_json(report: DriftReport) -> str:
    """Machine-readable drift report."""
    payload = {
        "clean": report.clean,
        "cases_checked": report.cases_checked,
        "unblessed": report.unblessed,
        "stale": report.stale,
        "drifts": [
            {
                "case": drift.case_id,
                "metric": drift.metric,
                "old": drift.old,
                "new": drift.new,
                "pct": drift.pct,
            }
            for drift in report.drifts
        ],
    }
    return json.dumps(payload, indent=2)


DRIFT_REPORTERS = {
    "text": render_drift_text,
    "json": render_drift_json,
}
