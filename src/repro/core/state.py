"""Shared mutable state threaded through the peeling process."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sampling import SamplingState
from repro.graphs.csr import CSRGraph
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime
from repro.structures.buckets_base import BucketStructure


@dataclass
class PeelState:
    """Everything a peel subround needs, bundled once per run.

    Attributes:
        graph: The input graph.
        dtilde: Induced degrees (mutated as vertices are peeled).
        peeled: True once a vertex has been peeled.
        coreness: Output array; written when a vertex is peeled.
        runtime: Simulated runtime collecting cost accounting.
        buckets: The active-set / bucketing strategy.
        scratch: The run's kernel mode, resolved once where the run
            starts, and buffer arena; the subrounds dispatch on its mode.
        sampling: Sampler state, or None when sampling is disabled.
    """

    graph: CSRGraph
    dtilde: np.ndarray
    peeled: np.ndarray
    coreness: np.ndarray
    runtime: SimRuntime
    buckets: BucketStructure
    scratch: KernelScratch
    sampling: SamplingState | None = None
