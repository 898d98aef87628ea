"""Common interface of the bucketing structures (paper Sec. 5.1).

A bucketing structure organizes the *active* vertices of the peeling process
by their induced degree and hands the framework, round after round, the pair
``(k, initial frontier of round k)``.  The three functions of the paper's
interface map onto this API as:

* ``BuildBuckets(R, A)``   → :meth:`BucketStructure.build`
* ``GetNextBucket() -> F`` → :meth:`BucketStructure.next_round`
* ``DecreaseKey(a)``       → :meth:`BucketStructure.on_decrements` (batched,
  called once per subround with every vertex whose induced degree changed
  but did **not** cross the peeling threshold — crossing vertices join the
  running frontier directly and never return to the structure).

Implementations share the induced-degree array ``dtilde`` and the ``peeled``
flag array with the framework, which lets them filter stale copies lazily
exactly as the paper's hash-bag-based design does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime


class BucketStructure(ABC):
    """Strategy object that produces per-round initial frontiers."""

    #: Short name used in benchmark tables ("1-bucket", "16-bucket", "hbs").
    name: str = "abstract"

    def __init__(self) -> None:
        self.dtilde: np.ndarray | None = None
        self.peeled: np.ndarray | None = None
        self.runtime: SimRuntime | None = None
        self.scratch: KernelScratch | None = None

    def build(
        self,
        graph: CSRGraph,
        dtilde: np.ndarray,
        peeled: np.ndarray,
        runtime: SimRuntime,
        scratch: KernelScratch | None = None,
    ) -> None:
        """Initialize from the full vertex set (BuildBuckets).

        Args:
            graph: The input graph (used for degree-based placement).
            dtilde: Shared induced-degree array; mutated by the peel.
            peeled: Shared boolean array; True once a vertex is peeled.
            runtime: Simulated runtime to charge structure costs to.
            scratch: The run's kernel scratch; a structure with a native
                twin runs it when the run's mode is ``native`` (without
                one, the reference flavour runs).
        """
        self.dtilde = dtilde
        self.peeled = peeled
        self.runtime = runtime
        self.scratch = scratch
        self._build(graph)

    @abstractmethod
    def _build(self, graph: CSRGraph) -> None:
        """Structure-specific initialization."""

    @abstractmethod
    def next_round(self) -> tuple[int, np.ndarray] | None:
        """Smallest remaining key and its frontier, or None when drained.

        The returned vertices are exactly the unpeeled vertices whose current
        induced degree equals the returned ``k``; the caller peels them.
        """

    @abstractmethod
    def on_decrements(
        self, vertices: np.ndarray, old_keys: np.ndarray | None = None
    ) -> None:
        """Re-bucket vertices whose induced degree decreased (DecreaseKey).

        ``vertices`` lists each changed vertex once; its new key is read from
        the shared ``dtilde`` array.  ``old_keys``, when provided, holds the
        keys before the change and lets implementations skip vertices whose
        bucket did not change.  Vertices that crossed the threshold of the
        current round are never passed here.
        """

    def round_finished(self, k: int) -> None:
        """Optional hook: the framework finished peeling round ``k``."""

    def _valid_mask(self, vertices: np.ndarray, key: int) -> np.ndarray:
        """Unpeeled vertices whose current induced degree equals ``key``."""
        assert self.dtilde is not None and self.peeled is not None
        return (~self.peeled[vertices]) & (self.dtilde[vertices] == key)
