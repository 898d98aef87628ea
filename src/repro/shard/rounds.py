"""Kernel-mode dispatch for the shard engine's Jacobi H-index rounds.

One round recomputes each active vertex's estimate as ``min(est[v],
H({est[u] : u in N(v)}))`` from a snapshot of the estimates — the
Montresor locality update (see :mod:`repro.core.locality`).  The
snapshot read is what makes the round *partition-independent*: the same
global active set produces the same new estimates whether one process
computes it or seven workers each compute a contiguous slice, which is
the invariant the ``shard`` oracle subject enforces bit-for-bit.

Two implementations, selected by the ``REPRO_KERNELS`` switch and
bit-exact with each other:

* ``native`` — the compiled ``hindex_round`` / ``mark_dirty`` kernels
  (:mod:`repro.perf.native`), a clipped-histogram H-index whose reset
  and suffix scans are bounded by ``O(deg(v))`` because estimates start
  at the degree bound and only decrease;
* ``reference`` — the straight-line Python loop over
  :func:`repro.core.locality.h_index`, kept as the equivalence oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.locality import h_index
from repro.perf import NATIVE, kernel_mode

_EMPTY = np.zeros(0, dtype=np.int64)


class RoundKernels:
    """Per-process round state: resolved kernel mode plus scratch buffers.

    Both the coordinator's inline path and every pool worker hold one of
    these over their (possibly mmap-backed) CSR arrays.  ``hist_size``
    must cover the largest initial estimate (``max degree + 2``); the
    dirty mask covers all ``n`` vertices because the compiled
    ``mark_dirty`` marks out-of-range neighbors too (harmlessly — the
    caller scans only its own range).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        hist_size: int,
        mode: str | None = None,
    ):
        self.indptr = indptr
        self.indices = indices
        self.mode = kernel_mode() if mode is None else mode
        self.dirty = np.zeros(int(indptr.size) - 1, dtype=np.uint8)
        self._hist = (
            np.zeros(max(int(hist_size), 1), dtype=np.int64)
            if self.mode == NATIVE
            else None
        )

    def hindex_round(
        self, est: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """New estimates of ``active``, from a snapshot of ``est``."""
        if active.size == 0:
            return _EMPTY
        if self.mode == NATIVE:
            from repro.perf.native import run_hindex_round

            out = np.empty(active.size, dtype=np.int64)
            return run_hindex_round(
                self.indptr, self.indices, est, active, out, self._hist
            )
        return self._round_reference(est, active)

    def _round_reference(
        self, est: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        out = np.empty(active.size, dtype=np.int64)
        for i, v in enumerate(active):
            v = int(v)
            nbrs = np.asarray(
                self.indices[self.indptr[v] : self.indptr[v + 1]]
            )
            out[i] = min(int(est[v]), h_index(est[nbrs]))
        return out

    def next_active(
        self, changed: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """In-range neighbors of ``changed``, ascending (push-on-change)."""
        self.dirty[:] = 0
        if changed.size:
            if self.mode == NATIVE:
                from repro.perf.native import run_mark_dirty

                run_mark_dirty(
                    self.indptr, self.indices, changed, self.dirty
                )
            else:
                for v in changed:
                    v = int(v)
                    row = self.indices[self.indptr[v] : self.indptr[v + 1]]
                    self.dirty[np.asarray(row)] = 1
        return lo + np.nonzero(self.dirty[lo:hi])[0].astype(np.int64)
