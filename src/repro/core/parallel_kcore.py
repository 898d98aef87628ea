"""The flagship algorithm: online peel + sampling + VGC + adaptive HBS.

:class:`ParallelKCore` is the public face of the paper's contribution.  Its
constructor flags map one-to-one onto the three techniques the evaluation
ablates (Table 3 / Fig. 13):

* ``sampling`` — contention reduction on high-degree vertices (Sec. 4.1);
* ``vgc`` — local search amortizing subround scheduling (Sec. 4.2);
* ``buckets`` — "1" (plain), "16" (Julienne-style), "hbs", or "adaptive"
  (the final design of Sec. 5.3).

>>> from repro import ParallelKCore, generators
>>> graph = generators.grid_2d(64, 64)
>>> result = ParallelKCore().decompose(graph)
>>> int(result.kmax)
2
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.framework import FrameworkConfig, decompose
from repro.core.result import CorenessResult
from repro.core.sampling import SamplingConfig
from repro.core.subgraph import SubgraphResult, max_kcore_subgraph
from repro.core.vgc import DEFAULT_QUEUE_SIZE
from repro.graphs.csr import CSRGraph
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


@dataclass(frozen=True)
class ParallelKCore:
    """Configured k-core solver.  Immutable; safe to reuse across graphs.

    Attributes:
        sampling: Enable the sampling scheme (Sec. 4.1).
        vgc: Enable vertical granularity control (Sec. 4.2).
        buckets: Bucket strategy: "1", "16", "hbs" or "adaptive".
        queue_size: VGC local-queue budget.
        sampling_config: Sampling parameters (r, threshold, mu, seed).
        model: Simulated-machine cost model.
    """

    sampling: bool = True
    vgc: bool = True
    buckets: str = "adaptive"
    queue_size: int = DEFAULT_QUEUE_SIZE
    sampling_config: SamplingConfig = field(default_factory=SamplingConfig)
    model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    def config(self) -> FrameworkConfig:
        """The framework configuration equivalent to this solver."""
        return FrameworkConfig(
            peel="online",
            buckets=self.buckets,
            sampling=self.sampling,
            vgc=self.vgc,
            vgc_queue_size=self.queue_size,
            sampling_config=self.sampling_config,
            name=self.label(),
        )

    def label(self) -> str:
        """Variant name in the style of the paper's Table 3 columns."""
        techniques = []
        if self.vgc:
            techniques.append("VGC")
        if self.sampling:
            techniques.append("Sample")
        if self.buckets in ("hbs", "adaptive"):
            techniques.append("HBS")
        if len(techniques) == 3:
            return "All"
        if not techniques:
            return "Plain"
        return "+".join(techniques)

    # ------------------------------------------------------------------
    def decompose(self, graph: CSRGraph, registry=None) -> CorenessResult:
        """Coreness of every vertex of ``graph``.

        ``registry`` optionally attaches a
        :class:`repro.obs.MetricsRegistry` (counters, and the timeline
        when it carries a tracer); observation is side-effect-free (see
        docs/OBSERVABILITY.md).
        """
        return decompose(
            graph, self.config(), model=self.model, registry=registry
        )

    def coreness(self, graph: CSRGraph) -> np.ndarray:
        """Convenience: just the coreness array."""
        return self.decompose(graph).coreness

    def core_subgraph(self, graph: CSRGraph, k: int) -> SubgraphResult:
        """Maximal subgraph of minimum degree ``k`` (Appendix B)."""
        return max_kcore_subgraph(
            graph,
            k,
            sampling=self.sampling,
            vgc=self.vgc,
            queue_size=self.queue_size,
            sampling_config=self.sampling_config if self.sampling else None,
            model=self.model,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def plain() -> "ParallelKCore":
        """The ablation baseline: no sampling, no VGC, single bucket."""
        return ParallelKCore(sampling=False, vgc=False, buckets="1")

    @staticmethod
    def variants(model: CostModel = DEFAULT_COST_MODEL) -> dict[str, "ParallelKCore"]:
        """The eight technique combinations of Table 3 / Fig. 13.

        Keys follow the paper's column names: Plain, VGC, Sample, HBS,
        VGC+Sample, VGC+HBS, Sample+HBS, All.
        """
        combos = {}
        for vgc in (False, True):
            for sampling in (False, True):
                for hbs in (False, True):
                    solver = ParallelKCore(
                        sampling=sampling,
                        vgc=vgc,
                        buckets="adaptive" if hbs else "1",
                        model=model,
                    )
                    combos[solver.label()] = solver
        return combos


def kcore(graph: CSRGraph) -> np.ndarray:
    """One-call API: coreness of every vertex with the default solver."""
    return ParallelKCore().coreness(graph)
