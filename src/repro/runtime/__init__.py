"""Simulated parallel runtime: cost model, metrics, atomics, scheduling.

Python's GIL prevents genuine shared-memory parallelism, so this package
reproduces the *analytical machine* the paper itself reasons about: the
binary fork-join work-span model with Cilkview's burdened span and a
contention charge for concurrent atomics (paper Sec. 2).  Every algorithm in
:mod:`repro.core` charges its operations to a :class:`SimRuntime`, and the
recorded ledger yields simulated running times on any thread count.
"""

from repro.runtime.atomics import (
    DecrementOutcome,
    batch_decrement,
    batch_increment_clamped,
    contention_of,
    segment_contention,
)
from repro.runtime.cost_model import (
    DEFAULT_COST_MODEL,
    CostModel,
    CostModelOverrides,
    nanos_to_millis,
    nanos_to_seconds,
)
from repro.runtime.list_schedule import (
    graham_bound,
    list_schedule_makespan,
    scheduled_time_on,
)
from repro.runtime.metrics import RunMetrics, StepBlock, StepRecord
from repro.runtime.profiler import (
    ParallelismReport,
    TagCost,
    profile,
    render_report,
)
from repro.runtime.scheduler import (
    SCALABILITY_THREADS,
    SpeedupPoint,
    burdened_span_speedup,
    self_relative_speedup,
    speedup_curve,
)
from repro.runtime.simulator import SimRuntime

__all__ = [
    "CostModel",
    "CostModelOverrides",
    "DEFAULT_COST_MODEL",
    "DecrementOutcome",
    "RunMetrics",
    "SCALABILITY_THREADS",
    "SimRuntime",
    "SpeedupPoint",
    "StepBlock",
    "StepRecord",
    "batch_decrement",
    "batch_increment_clamped",
    "burdened_span_speedup",
    "contention_of",
    "segment_contention",
    "graham_bound",
    "list_schedule_makespan",
    "scheduled_time_on",
    "nanos_to_millis",
    "nanos_to_seconds",
    "ParallelismReport",
    "TagCost",
    "profile",
    "render_report",
    "self_relative_speedup",
    "speedup_curve",
]
