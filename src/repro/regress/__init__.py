"""Golden-metrics regression gate and cross-engine differential oracle.

Two pillars guard the numbers this reproduction exists to produce:

* the **golden-metrics gate** runs a pinned (engine x graph x cost-model)
  matrix under the deterministic simulated runtime and compares every
  :class:`~repro.runtime.metrics.RunMetrics` counter — work, span,
  burdened span, rounds, subrounds, contention, simulated times —
  *exactly* against versioned golden JSON files (``goldens/``), with a
  ``run / bless / diff`` CLI and a per-metric drift report;
* the **differential harness** (:mod:`repro.regress.harness`) sweeps
  three subjects with one pipeline — every engine against sequential
  Batagelj–Zaversnik (the approximate engine against its (1 + eps)
  guarantee), the batch-dynamic engine against a full recompute after
  every update batch, and pooled shard runs against the inline run —
  in every kernel mode, shrinking any finding to a replayable
  reproducer via delta debugging.

See docs/REGRESSION.md for the workflow and blessing etiquette.
"""

from repro.regress.compare import DriftReport, MetricDrift, diff_run
from repro.regress.goldens import (
    GoldenVersionError,
    goldens_dir,
    list_blessed,
    read_golden,
    write_golden,
)
from repro.regress.matrix import (
    APPROX_EPS,
    CASES,
    COST_MODELS,
    ENGINES,
    GRAPH_BUILDERS,
    RegressCase,
    load_graph,
    run_case,
    run_matrix,
    select_cases,
)
from repro.regress.harness import (
    EXACT_ENGINES,
    SUBJECTS,
    Case,
    Divergence,
    Finding,
    OracleReport,
    check_approximate,
    ddmin,
    load_reproducer,
    replay,
    run_oracle,
    sweep,
    write_reproducer,
)
from repro.regress.reporters import render_drift_json, render_drift_text

__all__ = [
    "APPROX_EPS",
    "CASES",
    "COST_MODELS",
    "Case",
    "Divergence",
    "DriftReport",
    "ENGINES",
    "EXACT_ENGINES",
    "Finding",
    "GoldenVersionError",
    "GRAPH_BUILDERS",
    "MetricDrift",
    "OracleReport",
    "RegressCase",
    "SUBJECTS",
    "check_approximate",
    "ddmin",
    "diff_run",
    "goldens_dir",
    "list_blessed",
    "load_graph",
    "load_reproducer",
    "read_golden",
    "render_drift_json",
    "render_drift_text",
    "replay",
    "run_case",
    "run_matrix",
    "run_oracle",
    "select_cases",
    "sweep",
    "write_golden",
    "write_reproducer",
]
