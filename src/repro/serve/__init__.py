"""The serving layer: a long-lived coreness service on the simulated clock.

``repro.serve`` is the milestone the ROADMAP calls
*recompute-can-never-serve-it*: a service that keeps an exact k-core
decomposition live under a stream of edge updates while answering
coreness reads, built on the batch-dynamic engine
(:class:`repro.core.batch_dynamic.BatchDynamicKCore`).

The model follows Liu–Shun–Zablotchi's batched-updates /
asynchronous-reads split:

* **one writer** — update batches are applied one at a time; a batch
  arriving while a previous batch is still peeling queues behind it
  (its latency includes the queueing delay);
* **epoch commits** — a batch commits atomically when its repair rounds
  finish; readers only ever observe committed epochs, never a
  mid-batch state;
* **asynchronous reads** — queries are wait-free: a query arriving at
  simulated time ``t`` is answered immediately from the last epoch
  committed at or before ``t``.  Read latency is therefore a constant
  O(1) lookup by design; the cost of asynchrony shows up as
  *staleness* — the age of the epoch a query was served from — which
  the report tracks in percentiles alongside latency.

All timing lives on the simulated clock (``SimRuntime.time_on``); the
wall clock never enters (lint R003/R006).  Two replays of the same
stream on the same graph produce bit-identical reports.

Every service carries a :class:`repro.obs.MetricsRegistry` (the one
active when it was constructed, or a private one): the writer loop
feeds commit-latency / batch-size / queue-wait / staleness histograms
and marks the registry at each epoch commit, and the report's
``histograms`` section is sourced from it.  Exact percentiles still
come from the raw samples via :func:`repro.obs.percentile_summary`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch_dynamic import BatchDynamicKCore
from repro.generators.streams import Query, UpdateBatch
from repro.graphs.csr import CSRGraph
from repro.obs.registry import (
    OBS_SCHEMA_VERSION,
    PERCENTILES,
    SIZE_BOUNDARIES,
    MetricsRegistry,
    active_registry,
    percentile_summary,
)
from repro.regress.matrix import coreness_fingerprint
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL

#: Version of the serve-report schema.  Bump whenever a field is added,
#: removed, or changes meaning, so consumers fail loudly on mismatch.
#: v2: latency summaries moved to the shared obs helper (values are
#: bit-identical to v1) and the registry-sourced ``histograms`` section
#: was added.
SERVE_SCHEMA_VERSION = 2


@dataclass
class _Epoch:
    """One committed state of the decomposition."""

    commit_time: float
    epoch: int
    coreness: np.ndarray


@dataclass
class ServeStats:
    """Raw per-event samples accumulated during a replay."""

    update_latency_ns: list[float] = field(default_factory=list)
    query_latency_ns: list[float] = field(default_factory=list)
    staleness_ns: list[float] = field(default_factory=list)
    batches: int = 0
    updates_applied: int = 0
    updates_noop: int = 0
    queries: int = 0


class CoreService:
    """A single-writer, asynchronous-reader coreness service.

    Feed it timestamped events (in arrival order) through
    :meth:`submit_batch` / :meth:`submit_query`, or a whole stream
    through :meth:`replay`.  The service advances a simulated clock:
    batch processing occupies the writer for the simulated duration of
    its repair rounds on ``threads`` cores, queries are served
    immediately from the last committed epoch.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: CostModel | None = None,
        threads: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.model = model if model is not None else DEFAULT_COST_MODEL
        self.threads = (
            int(threads) if threads is not None else self.model.n_cores
        )
        if registry is None:
            registry = active_registry()
        #: The observing registry: the caller's (or the process-wide
        #: active one), else a private registry so the report's
        #: histogram section is always populated.
        self.registry = (
            registry if registry is not None else MetricsRegistry("serve")
        )
        self.engine = BatchDynamicKCore(
            graph, model=self.model, registry=self.registry
        )
        #: Simulated time at which the writer becomes free.
        self.clock = 0.0
        #: Committed epochs still visible to in-flight readers.  Epoch 0
        #: (the initial decomposition) commits at time 0.
        self._epochs: list[_Epoch] = [
            _Epoch(0.0, 0, self.engine.coreness.copy())
        ]
        self.stats = ServeStats()
        self._answers = hashlib.sha256()

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def submit_batch(self, event: UpdateBatch) -> float:
        """Apply one update batch; returns its commit time.

        The batch starts when both it has arrived and the writer is
        free; its latency is arrival-to-commit, including queueing.
        """
        start = max(self.clock, event.time)
        queue_wait = start - event.time
        before = self.engine.runtime.time_on(self.threads)
        result = self.engine.apply_batch(
            insertions=event.insertions, deletions=event.deletions
        )
        duration = self.engine.runtime.time_on(self.threads) - before
        commit = start + duration
        self.clock = commit
        self._epochs.append(
            _Epoch(commit, result.epoch, self.engine.coreness.copy())
        )
        applied = result.applied_insertions + result.applied_deletions
        self.stats.batches += 1
        self.stats.updates_applied += applied
        self.stats.updates_noop += (
            result.noop_insertions + result.noop_deletions
        )
        self.stats.update_latency_ns.append(commit - event.time)
        registry = self.registry
        if registry is not None:
            registry.observe("serve.commit_latency_ns", commit - event.time)
            registry.observe("serve.queue_wait_ns", queue_wait)
            registry.observe(
                "serve.batch_size", float(applied),
                boundaries=SIZE_BOUNDARIES,
            )
            if queue_wait > 0:
                registry.inc("serve.queued_batches")
            registry.mark(commit, label=f"epoch {result.epoch}")
        return commit

    def committed_at(self, time: float) -> _Epoch:
        """The newest epoch committed at or before simulated ``time``."""
        # Events arrive in time order, so older epochs can be dropped as
        # soon as a newer one is visible at the query time.
        while len(self._epochs) >= 2 and self._epochs[1].commit_time <= time:
            self._epochs.pop(0)
        return self._epochs[0]

    def submit_query(self, event: Query) -> tuple[int, int]:
        """Serve one coreness read; returns ``(value, epoch)``.

        Reads are wait-free: the response reflects the last epoch
        committed at or before the arrival time, at a constant O(1)
        lookup cost.  Staleness (arrival time minus that epoch's commit
        time) is recorded separately.
        """
        epoch = self.committed_at(event.time)
        value = int(epoch.coreness[event.vertex])
        self.stats.queries += 1
        self.stats.query_latency_ns.append(self.model.scan_op)
        self.stats.staleness_ns.append(event.time - epoch.commit_time)
        registry = self.registry
        if registry is not None:
            registry.inc("serve.queries")
            registry.observe(
                "serve.staleness_ns", event.time - epoch.commit_time
            )
        self._answers.update(
            f"{event.vertex}:{epoch.epoch}:{value};".encode()
        )
        return value, epoch.epoch

    def replay(self, events) -> None:
        """Process a whole stream (events must be in arrival order)."""
        for event in events:
            if isinstance(event, UpdateBatch):
                self.submit_batch(event)
            elif isinstance(event, Query):
                self.submit_query(event)
            else:
                raise TypeError(
                    f"unknown stream event type: {type(event).__name__}"
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(
        self, context: dict[str, object] | None = None
    ) -> dict[str, object]:
        """The schema-versioned metrics report of everything replayed.

        ``context`` entries (graph name, profile, seed, ...) are stored
        under the ``"stream"`` key verbatim.
        """
        stats = self.stats
        duration = self.clock
        per_second = 1e9 / duration if duration > 0 else 0.0
        graph = self.engine.snapshot()
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "stream": dict(context or {}),
            "threads": self.threads,
            "graph": {"n": graph.n, "m": graph.m},
            "events": {
                "batches": stats.batches,
                "updates_applied": stats.updates_applied,
                "updates_noop": stats.updates_noop,
                "queries": stats.queries,
            },
            "throughput": {
                "sim_duration_ns": duration,
                "updates_per_sec": stats.updates_applied * per_second,
                "queries_per_sec": stats.queries * per_second,
            },
            "latency": {
                "update_ns": percentile_summary(stats.update_latency_ns),
                "query_ns": percentile_summary(stats.query_latency_ns),
                "staleness_ns": percentile_summary(stats.staleness_ns),
            },
            "histograms": {
                "obs_schema_version": OBS_SCHEMA_VERSION,
                "commit_latency_ns": self.registry.histogram_dict(
                    "serve.commit_latency_ns"
                ),
                "queue_wait_ns": self.registry.histogram_dict(
                    "serve.queue_wait_ns"
                ),
                "batch_size": self.registry.histogram_dict(
                    "serve.batch_size"
                ),
                "staleness_ns": self.registry.histogram_dict(
                    "serve.staleness_ns"
                ),
            },
            "epochs": {"committed": self.engine.epoch},
            "coreness": coreness_fingerprint(self.engine.coreness),
            "answers_sha256": self._answers.hexdigest()[:16],
            "ledger": self.engine.metrics.to_stable_dict(),
        }


def run_service(
    graph: CSRGraph,
    events,
    model: CostModel | None = None,
    threads: int | None = None,
    context: dict[str, object] | None = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, object]:
    """Replay ``events`` against a fresh service; return its report."""
    service = CoreService(
        graph, model=model, threads=threads, registry=registry
    )
    service.replay(events)
    return service.report(context)


__all__ = [
    "PERCENTILES",
    "SERVE_SCHEMA_VERSION",
    "CoreService",
    "ServeStats",
    "run_service",
]
