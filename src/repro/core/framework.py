"""Work-efficient parallel k-core framework (paper Alg. 1 / Alg. 4).

The framework is peel-strategy- and bucket-strategy-agnostic:

* it obtains the pair ``(k, initial frontier)`` for each round from a
  :class:`~repro.structures.buckets_base.BucketStructure` (the plain active
  set, Julienne's fixed buckets, or the hierarchical bucketing structure);
* with sampling enabled, it validates every sample-mode vertex at the start
  of each round and resamples failures (Alg. 4 lines 5-6);
* it then runs subrounds — assign coreness, peel, collect the next
  frontier — until the frontier drains, delegating the actual peeling to an
  :class:`~repro.core.peel_online.OnlinePeel` or
  :class:`~repro.core.peel_offline.OfflinePeel`.

Theorem 3.1: provided the peel is linear in the frontier's neighborhood and
the frontier/active-set maintenance linear in the active set, the total
work is ``O(n + m)``.  The recorded metrics let tests check the measured
constants against that bound.

Sampling makes the algorithm Las Vegas: a detected sampling error raises
internally and :func:`decompose` restarts with quadrupled ``mu`` (paper
Sec. 4.1.4); after ``MAX_RESTARTS`` failures it falls back to exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.peel_offline import OfflinePeel
from repro.core.peel_online import OnlinePeel
from repro.core.result import CorenessResult
from repro.core.sampling import SamplingConfig, SamplingState
from repro.core.state import PeelState
from repro.core.vgc import DEFAULT_QUEUE_SIZE, VGCConfig
from repro.errors import SamplingRestartError
from repro.graphs.csr import CSRGraph
from repro.obs.registry import active_registry
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.primitives.bitops import sorted_member_mask, sorted_unique
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.metrics import RunMetrics
from repro.runtime.simulator import SimRuntime
from repro.structures.buckets_base import BucketStructure
from repro.structures.fixed_buckets import FixedBuckets
from repro.structures.hbs import AdaptiveHBS, HierarchicalBuckets
from repro.structures.single_bucket import SingleBucket

#: Sampling restarts before falling back to exact (sampling-free) mode.
MAX_RESTARTS = 2

#: Known bucket strategies for :func:`make_buckets`.
BUCKET_CHOICES = ("1", "16", "hbs", "adaptive")


def make_buckets(choice: str | BucketStructure) -> BucketStructure:
    """Instantiate a bucket strategy from its name (or pass one through)."""
    if isinstance(choice, BucketStructure):
        return choice
    if choice == "1":
        return SingleBucket()
    if choice == "16":
        return FixedBuckets(16)
    if choice == "hbs":
        return HierarchicalBuckets()
    if choice == "adaptive":
        return AdaptiveHBS()
    raise ValueError(
        f"unknown bucket strategy {choice!r}; expected one of "
        f"{BUCKET_CHOICES} or a BucketStructure instance"
    )


@dataclass(frozen=True)
class FrameworkConfig:
    """Full configuration of one decomposition run.

    The paper's eight ablation variants (Table 3) are the cross product of
    ``sampling`` x ``vgc`` x (``buckets`` in {"1", "adaptive"}); the final
    algorithm is all three enabled.
    """

    peel: str = "online"  # "online" or "offline"
    buckets: str = "1"
    sampling: bool = False
    vgc: bool = False
    vgc_queue_size: int = DEFAULT_QUEUE_SIZE
    sampling_config: SamplingConfig = field(default_factory=SamplingConfig)
    name: str = ""

    def label(self) -> str:
        """Human-readable variant name for tables."""
        if self.name:
            return self.name
        parts = [self.peel]
        if self.vgc:
            parts.append("vgc")
        if self.sampling:
            parts.append("sample")
        parts.append(self.buckets if self.buckets != "1" else "plain")
        return "+".join(parts)


def decompose(
    graph: CSRGraph,
    config: FrameworkConfig | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    registry=None,
) -> CorenessResult:
    """Run the framework on ``graph`` and return the coreness of every vertex.

    Restarts transparently on (whp-rare) sampling errors.

    ``registry`` optionally attaches a :class:`repro.obs.MetricsRegistry`
    (with a tracer facet, the timeline too) to the run; observation is
    side-effect-free (the ledger is bit-identical with and without it,
    lint rule R006) and spans every restart attempt.  The kernel mode is
    resolved once here, for every attempt, and counted into it.
    """
    config = config if config is not None else FrameworkConfig()
    if config.peel not in ("online", "offline"):
        raise ValueError(f"unknown peel strategy {config.peel!r}")
    if config.sampling and config.peel == "offline":
        raise ValueError("sampling applies to the online peel only")
    if registry is None:
        registry = active_registry()
    mode = kernel_mode(registry)

    carried = None  # metrics from failed attempts
    mu_boost = 1
    attempt_config = config
    while True:
        try:
            result = _run_once(
                graph, attempt_config, model, mu_boost, mode, registry
            )
        except SamplingRestartError:
            # Las-Vegas recovery (Sec. 4.1.4): retry with a stronger mu,
            # then give up on sampling entirely.
            mu_boost *= 4
            if carried is None:
                carried = RunMetrics()
            carried.restarts += 1
            if registry is not None:
                registry.inc("framework.sampling_restarts")
                registry.instant(
                    "sampling_restart",
                    restarts=carried.restarts,
                    mu_boost=mu_boost,
                )
            if carried.restarts > MAX_RESTARTS:
                attempt_config = replace(attempt_config, sampling=False)
            continue
        if carried is not None:
            carried.merge(result.metrics)
            result.metrics = carried
        return result


def _run_once(
    graph: CSRGraph,
    config: FrameworkConfig,
    model: CostModel,
    mu_boost: int,
    mode: str,
    registry=None,
) -> CorenessResult:
    """One attempt of the decomposition (may raise SamplingRestartError)."""
    runtime = SimRuntime(model, registry=registry)
    scratch = KernelScratch(graph, mode)
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)

    # Initialize dtilde <- d (Alg. 1 line 1) and the bucket structure.
    if n:
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="init_degrees"
        )
    buckets = make_buckets(config.buckets)
    buckets.build(graph, dtilde, peeled, runtime, scratch)

    sampling: SamplingState | None = None
    if config.sampling:
        sampling = SamplingState(
            graph, dtilde, peeled, runtime, scratch,
            config=config.sampling_config, mu_boost=mu_boost,
        )
        sampling.attach_coreness(coreness)
        sampling.initialize()

    if config.peel == "online":
        vgc = VGCConfig(config.vgc_queue_size) if config.vgc else None
        peel = OnlinePeel(vgc=vgc)
    else:
        peel = OfflinePeel()

    state = PeelState(
        graph=graph,
        dtilde=dtilde,
        peeled=peeled,
        coreness=coreness,
        runtime=runtime,
        buckets=buckets,
        scratch=scratch,
        sampling=sampling,
    )

    while True:
        step = buckets.next_round()
        if step is None:
            break
        k, frontier = step
        runtime.begin_round(k)

        if sampling is not None:
            # The extracted frontier is sorted and duplicate-free until a
            # resampled batch is folded in (lows can collide with it).
            canonical = True
            # Alg. 4 lines 5-6: validate every sample-mode vertex; failed
            # validations are resampled, possibly joining this round.
            failures = sampling.validate_failures(k)
            if failures.size:
                before = dtilde[failures]
                # ``failures`` is a masked subset of the sorted
                # sample-mode set (``sampling.sampled()``) — already
                # canonical.
                low = sampling.resample_bulk(failures, k, assume_unique=True)
                survivors_mask = ~sorted_member_mask(failures, low)
                survivors = failures[survivors_mask]
                if survivors.size:
                    buckets.on_decrements(survivors, before[survivors_mask])
                if low.size:
                    frontier = np.concatenate([frontier, low])
                    canonical = False

            # Last-line safety: a vertex must never be peeled while still
            # in sample mode (its induced degree is a stale over-estimate).
            # Normally validation has already resampled it; this forced
            # recount is what keeps the algorithm Las Vegas even if every
            # probabilistic check was wrong.
            still_sampled = frontier[sampling.mode[frontier]]
            if still_sampled.size:
                before = dtilde[still_sampled]
                low = sampling.resample_bulk(still_sampled, k)
                # One sorted-membership pass selects the survivors and
                # pairs them with their pre-resample keys (``low`` is a
                # sorted subset of ``still_sampled``).
                in_low = sorted_member_mask(still_sampled, low)
                not_low = still_sampled[~in_low]
                if not_low.size:
                    buckets.on_decrements(not_low, before[~in_low])

            # A resample may have pushed an extracted vertex's exact degree
            # away from k; return such vertices to the structure.
            keep = (dtilde[frontier] <= k) & (~peeled[frontier])
            rejected = frontier[~keep]
            if rejected.size:
                buckets.on_decrements(rejected)
            frontier = frontier[keep]
            if not canonical:
                frontier = sorted_unique(frontier)

        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            coreness[frontier] = k
            peeled[frontier] = True
            if sampling is not None:
                sampling.exit_sample_mode(frontier)
            runtime.parallel_for(
                model.scan_op,
                count=int(frontier.size),
                barriers=0,
                tag="assign_coreness",
            )
            frontier = peel.subround(state, frontier, k)

        buckets.round_finished(k)

    return CorenessResult(
        coreness=coreness,
        metrics=runtime.metrics,
        algorithm=config.label(),
        model=model,
    )
