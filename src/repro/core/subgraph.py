"""Maximum k-core subgraph extraction (paper Appendix B).

Given a target ``k``, find the maximal subgraph in which every vertex has
degree at least ``k`` — a single-threshold variant of the decomposition
used by dense-subgraph-discovery pipelines.  The peeling condition changes
("remove while induced degree < k"); there is exactly one round and the
paper's techniques carry over: VGC hides subround scheduling and sampling
kills contention on the high-degree vertices that dominate the social /
web graphs this task usually runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.structures.null_buckets import NullBuckets
from repro.core.peel_online import OnlinePeel
from repro.core.sampling import SamplingConfig, SamplingState
from repro.core.state import PeelState
from repro.core.vgc import DEFAULT_QUEUE_SIZE, VGCConfig
from repro.graphs.csr import CSRGraph
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.metrics import RunMetrics
from repro.runtime.simulator import SimRuntime


@dataclass
class SubgraphResult:
    """Result of a max k-core subgraph extraction.

    Attributes:
        members: Boolean mask over vertices — True for k-core members.
        k: The requested degree threshold.
        metrics: Simulated-execution ledger.
        algorithm: Label of the strategy used.
    """

    members: np.ndarray
    k: int
    metrics: RunMetrics
    algorithm: str = ""

    @property
    def size(self) -> int:
        """Number of vertices in the extracted core."""
        return int(self.members.sum())

    def vertex_ids(self) -> np.ndarray:
        """Vertex ids of the core members."""
        return np.nonzero(self.members)[0].astype(np.int64)

    def extract(self, graph: CSRGraph) -> CSRGraph:
        """Materialize the induced subgraph."""
        return graph.induced_subgraph(self.vertex_ids())


def max_kcore_subgraph(
    graph: CSRGraph,
    k: int,
    sampling: bool = True,
    vgc: bool = True,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    sampling_config: SamplingConfig | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    algorithm: str = "",
) -> SubgraphResult:
    """Compute the maximal subgraph with minimum degree ``k``.

    This is our framework adapted as described in Appendix B: a single
    peeling round at threshold ``t = k - 1`` with the online peel, and the
    sampling / VGC techniques toggled by the flags.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    runtime = SimRuntime(model)
    scratch = KernelScratch(graph, kernel_mode(runtime.registry))
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)  # scratch required by the peel
    if n:
        runtime.parallel_for(
            model.scan_op, count=n, barriers=1, tag="init_degrees"
        )

    threshold = k - 1  # peel while dtilde <= threshold
    buckets = NullBuckets()
    buckets.build(graph, dtilde, peeled, runtime)

    sampling_state: SamplingState | None = None
    if sampling and n:
        sampling_state = SamplingState(
            graph, dtilde, peeled, runtime, scratch, config=sampling_config
        )
        sampling_state.attach_coreness(coreness)
        if threshold >= 0:
            runtime.parallel_for(
                model.scan_op, count=n, barriers=1, tag="init_samplers"
            )
            sampling_state.set_sampler_bulk(
                np.arange(n, dtype=np.int64), threshold
            )

    peel = OnlinePeel(vgc=VGCConfig(queue_size) if vgc else None)
    state = PeelState(
        graph=graph,
        dtilde=dtilde,
        peeled=peeled,
        coreness=coreness,
        runtime=runtime,
        buckets=buckets,
        scratch=scratch,
        sampling=sampling_state,
    )

    runtime.begin_round()
    runtime.parallel_for(
        model.scan_op, count=max(n, 1), barriers=1, tag="initial_frontier"
    )
    frontier = np.nonzero(dtilde <= threshold)[0].astype(np.int64)
    while True:
        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            peeled[frontier] = True
            coreness[frontier] = threshold if threshold >= 0 else 0
            if sampling_state is not None:
                sampling_state.exit_sample_mode(frontier)
            runtime.parallel_for(
                model.scan_op,
                count=int(frontier.size),
                barriers=0,
                tag="mark_removed",
            )
            frontier = peel.subround(state, frontier, threshold)
        if sampling_state is None:
            break
        # Final validation sweep: vertices still in sample mode hold stale
        # (over-)estimates; recount them exactly.  Any that fall below the
        # threshold resume the peel; once a full sweep finds none, every
        # survivor provably has induced degree >= k.
        in_sample_mode = sampling_state.sampled()
        if in_sample_mode.size == 0:
            break
        low = sampling_state.resample_bulk(in_sample_mode, threshold)
        frontier = low[~peeled[low]]
        if frontier.size == 0:
            break

    if not algorithm:
        bits = ["ours"]
        if sampling:
            bits.append("sample")
        if vgc:
            bits.append("vgc")
        algorithm = "+".join(bits)
    return SubgraphResult(
        members=~peeled, k=k, metrics=runtime.metrics, algorithm=algorithm
    )
