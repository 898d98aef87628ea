"""Sampling scheme for contention reduction (paper Sec. 4.1, Algs. 4 & 5).

High-degree vertices suffer heavy contention in the online peel: every
peeled neighbor issues an ``atomic_dec`` on the same induced-degree counter.
The sampling scheme puts such a vertex ``v`` into *sample mode*: instead of
decrementing ``dtilde[v]``, each would-be decrement flips a coin with
``v``'s *sample rate* and, on success, atomically increments a small sample
counter.  With rate ``mu / ((1 - r) * dtilde[v])`` the counter is expected
to reach ``mu`` exactly when the true induced degree has dropped to the
fraction ``r`` of its value at sampler setup, at which point ``v`` is
*resampled*: its true induced degree is recounted from scratch and a fresh
sampler (or none) installed.  Contention on the counter is only
``O(mu / (1 - r)) = O(log n)`` instead of ``O(d(v))``.

Correctness is probabilistic: a *validation* pass at the start of every
round checks, for each vertex still in sample mode, that its estimated
degree remains safely above the current ``k`` (Alg. 5's VALIDATE); failures
are resampled immediately.  Theorem 4.2 bounds the error probability by
``n^{-c}`` for ``mu = 4(c+2) ln n``.  Because the algorithm must be Las
Vegas rather than Monte Carlo (Sec. 4.1.4), every resample additionally
performs the retrospective check described there; a detected error raises
:class:`~repro.errors.SamplingRestartError`, which the driver catches to
restart with doubled ``mu`` (never observed in practice, exactly as the
paper reports — the test suite forces it via injection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingRestartError
from repro.graphs.csr import CSRGraph
from repro.perf.kernels import KernelScratch, recount_alive
from repro.primitives.bitops import sorted_unique
from repro.runtime.atomics import batch_increment_clamped
from repro.runtime.simulator import SimRuntime

#: Resample when the induced degree is expected to have dropped to this
#: fraction of its value at sampler setup (paper uses r = 10%).
DEFAULT_RATE_R = 0.10

#: Minimum degree for entering sample mode.  Must exceed ``mu / (1 - r)`` so
#: sample rates stay at most 1; :func:`default_mu` keeps this consistent.
DEFAULT_THRESHOLD = 128

#: The ``c`` of ``mu = 4(c+2) ln n`` (Thm. 4.2); c = 1 gives whp correctness.
DEFAULT_C = 1.0


def default_mu(n: int, c: float = DEFAULT_C) -> int:
    """The paper's sample-count target ``mu = 4(c+2) ln n``."""
    return max(8, math.ceil(4.0 * (c + 2.0) * math.log(max(n, 2))))


@dataclass
class SamplingConfig:
    """Tunable parameters of the sampling scheme."""

    r: float = DEFAULT_RATE_R
    threshold: int = DEFAULT_THRESHOLD
    c: float = DEFAULT_C
    mu: int | None = None  # derived from n when None
    seed: int = 0x5EED

    def resolve_mu(self, n: int) -> int:
        """The effective ``mu`` for a graph with ``n`` vertices."""
        if self.mu is not None:
            return self.mu
        return default_mu(n, self.c)


class SamplingState:
    """Per-run sampler state: one (mode, rate, cnt) record per vertex.

    The struct-of-arrays layout replaces the paper's per-vertex ``sampler``
    struct; all bulk operations are vectorized.  The recounts run in the
    kernel mode of the run's ``scratch``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        dtilde: np.ndarray,
        peeled: np.ndarray,
        runtime: SimRuntime,
        scratch: KernelScratch,
        config: SamplingConfig | None = None,
        mu_boost: int = 1,
    ) -> None:
        self.graph = graph
        self.dtilde = dtilde
        self.peeled = peeled
        self.runtime = runtime
        self.scratch = scratch
        self.config = config if config is not None else SamplingConfig()
        self.mu = self.config.resolve_mu(graph.n) * mu_boost
        self.r = self.config.r
        # Keep rates <= 1: sample mode only makes sense when one coin flip
        # per decrement suffices.
        self.threshold = max(
            self.config.threshold, math.ceil(self.mu / (1.0 - self.r)) + 1
        )
        self.rng = np.random.default_rng(self.config.seed + mu_boost)

        n = graph.n
        self.mode = np.zeros(n, dtype=bool)
        self.rate = np.zeros(n, dtype=np.float64)
        self.cnt = np.zeros(n, dtype=np.int64)
        # Ascending vertices set_sampler_bulk switched on: a superset of
        # the sample-mode set (vertices leave it lazily, in sampled()),
        # so nothing scans all n mode bits per round.
        self._switched_on = np.zeros(0, dtype=np.int64)
        #: Read access to the coreness array for the Las-Vegas check.
        self._coreness_view: np.ndarray | None = None
        self._skip_validation = False  # failure-injection hook for tests

    # ------------------------------------------------------------------
    # SetSampler (Alg. 5 lines 12-17)
    # ------------------------------------------------------------------
    def set_sampler_bulk(self, vertices: np.ndarray, k: int) -> None:
        """Install or clear samplers for ``vertices`` given round ``k``.

        A vertex enters sample mode iff its induced degree is large enough
        that even after dropping to the fraction ``r`` it stays above both
        ``k`` and the degree threshold.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        degrees = self.dtilde[vertices]
        eligible = (degrees * self.r > k) & (degrees > self.threshold)
        self.mode[vertices] = eligible
        chosen = vertices[eligible]
        if chosen.size:
            self.rate[chosen] = self.mu / (
                (1.0 - self.r) * self.dtilde[chosen]
            )
            self.cnt[chosen] = 0
            self.runtime.metrics.sampled_vertices += int(chosen.size)
            self._switch_on(chosen)

    def _switch_on(self, chosen: np.ndarray) -> None:
        """Add ``chosen`` to the switched-on set (a no-op for members).

        A resample re-installs samplers only on vertices that were in
        sample mode, and members leave the set only in :meth:`sampled`,
        so after the initial install this is a membership check.
        """
        on = self._switched_on
        if on.size:
            pos = np.minimum(np.searchsorted(on, chosen), on.size - 1)
            chosen = chosen[on[pos] != chosen]
            if chosen.size == 0:
                return
        self._switched_on = np.union1d(on, chosen)

    def sampled(self) -> np.ndarray:
        """The vertices in sample mode, ascending: ``np.nonzero(mode)[0]``.

        Compacts the switched-on set to its members still in sample
        mode, in time linear in the set, not in ``n``.
        """
        on = self._switched_on
        on = on[self.mode[on]]
        self._switched_on = on
        return on

    def active(self) -> bool:
        """Whether any vertex may be in sample mode (exact when False)."""
        return self._switched_on.size > 0 and bool(self.mode.any())

    def initialize(self) -> None:
        """SetSampler(v, 0) for every vertex (Alg. 4 line 2)."""
        n = self.graph.n
        if n == 0:
            return
        self.runtime.parallel_for(
            self.runtime.model.scan_op, count=n, barriers=1,
            tag="init_samplers",
        )
        self.set_sampler_bulk(np.arange(n, dtype=np.int64), 0)

    # ------------------------------------------------------------------
    # VALIDATE (Alg. 5 line 22) — vectorized over all sampled vertices
    # ------------------------------------------------------------------
    def validate_failures(self, k: int) -> np.ndarray:
        """Sampled vertices whose VALIDATE check fails at round ``k``.

        VALIDATE passes iff the degree headroom ``dtilde[v] * r > k`` holds
        *and* the collected samples stay below a quarter of the expectation
        under the hypothesis "the true degree already dropped to k"
        (Lem. 4.1 guarantees at least that many samples whp if it had).
        """
        sampled = self.sampled()
        if sampled.size == 0:
            return sampled
        self.runtime.parallel_for(
            self.runtime.model.scan_op,
            count=int(sampled.size),
            barriers=1,
            tag="validate",
        )
        if self._skip_validation:
            return np.zeros(0, dtype=np.int64)
        degrees = self.dtilde[sampled]
        headroom_ok = degrees * self.r > k
        sample_ok = self.cnt[sampled] < (
            self.rate[sampled] * (degrees - k) / 4.0
        )
        failures = sampled[~(headroom_ok & sample_ok)]
        if self.runtime.registry is not None:
            self.runtime.registry.instant(
                "validate",
                sampled=int(sampled.size),
                failures=int(failures.size),
            )
        return failures

    # ------------------------------------------------------------------
    # RESAMPLE (Alg. 5 lines 18-21)
    # ------------------------------------------------------------------
    def resample_bulk(
        self, vertices: np.ndarray, k: int, assume_unique: bool = False
    ) -> np.ndarray:
        """Recount induced degrees and reinstall samplers.

        Returns the vertices whose exact induced degree turned out to be at
        most ``k``; the caller adds them to the running frontier (they are
        peeled in the current round with coreness ``k``).

        ``assume_unique`` skips the canonicalization sort when the caller
        already holds ``vertices`` sorted and duplicate-free (the result
        is a sorted subset either way).

        Raises:
            SamplingRestartError: the Las-Vegas retrospective check detected
                that a vertex's degree had dropped below ``k`` *before* the
                current round — its true coreness is smaller than ``k`` and
                the run must restart with stronger parameters (Sec. 4.1.4).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if not assume_unique:
            vertices = sorted_unique(vertices)
        if vertices.size == 0:
            return vertices
        vertices = vertices[self.mode[vertices]]
        if vertices.size == 0:
            return vertices
        self.mode[vertices] = False
        self.runtime.metrics.resamples += int(vertices.size)

        # Exact recount: number of unpeeled neighbors (Alg. 5 line 19).
        exact = recount_alive(self.scratch, self.peeled, vertices)
        lengths = (
            self.graph.indptr[vertices + 1] - self.graph.indptr[vertices]
        )
        # The per-vertex recount is itself a parallel reduce over N(v)
        # (logarithmic span), so the step span is not the largest degree.
        recount_work = float(lengths.sum()) * self.runtime.model.edge_op
        max_len = float(lengths.max()) if lengths.size else 1.0
        self.runtime.metrics.record_parallel(
            work=max(recount_work, 1.0),
            span=max(np.log2(max(max_len, 2.0)) * 4.0, 1.0),
            barriers=1,
            tag="resample_recount",
        )

        low = exact <= k
        if np.any(exact < k):
            # A strictly-lower recount is only an error if the degree was
            # already below k in an earlier round; vertices peeled in the
            # current round (coreness == k) still count toward "was >= k
            # at the start of round k" (Sec. 4.1.4).
            suspects = vertices[exact < k]
            if self._had_error_before_round(suspects, k):
                raise SamplingRestartError(
                    f"sampled vertex missed its peeling round before k={k}"
                )
        self.dtilde[vertices] = exact
        self.set_sampler_bulk(vertices[~low], k)
        if self.runtime.registry is not None:
            self.runtime.registry.instant(
                "resample",
                count=int(vertices.size),
                low=int(np.count_nonzero(low)),
            )
        return vertices[low]

    def _had_error_before_round(
        self, vertices: np.ndarray, k: int
    ) -> bool:
        """Retrospective check of Sec. 4.1.4.

        For each suspect, count the neighbors that are either still alive
        or were peeled in the current round ``k`` (their removal happened
        inside this round, which is legitimate).  If that count is below
        ``k``, the degree had already dropped before round ``k`` started —
        a genuine sampling error.
        """
        assert self._coreness_view is not None, (
            "framework must call attach_coreness before peeling"
        )
        counts = recount_alive(
            self.scratch, self.peeled, vertices, self._coreness_view, k
        )
        return bool(np.any(counts < k))

    def attach_coreness(self, coreness: np.ndarray) -> None:
        """Give the Las-Vegas check read access to the coreness array."""
        self._coreness_view = coreness

    # ------------------------------------------------------------------
    # Peel-time interface
    # ------------------------------------------------------------------
    def split_targets(
        self, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partition decrement targets into (direct, sampled) streams."""
        if targets.size == 0:
            return targets, targets
        sampled_mask = self.mode[targets]
        return targets[~sampled_mask], targets[sampled_mask]

    def draw_hits(self, sampled_targets: np.ndarray) -> np.ndarray:
        """Coin-flip each sampled decrement; return the successful targets.

        Work: one RNG draw per target (``sample_flip_op``); only successes
        turn into atomic increments, which is where the contention reduction
        comes from.
        """
        if sampled_targets.size == 0:
            return sampled_targets
        self.runtime.parallel_for(
            self.runtime.model.sample_flip_op,
            count=int(sampled_targets.size),
            barriers=0,
            tag="sample_flips",
        )
        flips = self.rng.random(sampled_targets.size)
        hits = sampled_targets[flips < self.rate[sampled_targets]]
        if self.runtime.registry is not None:
            self.runtime.registry.instant(
                "sample_draw",
                drawn=int(sampled_targets.size),
                hits=int(hits.size),
            )
        return hits

    def apply_hits(self, hits: np.ndarray) -> np.ndarray:
        """Atomically increment sample counters; return vertices reaching mu.

        The contention the runtime records here is per-counter hit counts —
        ``O(mu / (1-r))`` in expectation, the paper's Sec. 4.1.5 bound.
        """
        if hits.size == 0:
            return hits
        counts, reached = batch_increment_clamped(self.cnt, hits, self.mu)
        self.runtime.parallel_update(
            0.0, counts, count=int(hits.size), barriers=0,
            tag="sample_increments",
        )
        if reached.size:
            if self.runtime.registry is not None:
                self.runtime.registry.instant(
                    "sample_saturated", count=int(reached.size)
                )
        return reached

    def exit_sample_mode(self, vertices: np.ndarray) -> None:
        """Force vertices out of sample mode (when they get peeled)."""
        if vertices.size:
            self.mode[vertices] = False
