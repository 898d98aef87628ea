"""Batch semantics for atomic operations under the simulated runtime.

The online peeling algorithms of the paper (ParK, PKC, and our framework)
issue ``atomic_dec`` on induced degrees and ``atomic_inc`` on sampler
counters.  Executed under frontier-synchronous semantics, a batch of atomics
on an integer array is equivalent to applying all decrements at once and
asking which locations crossed a threshold — with the guarantee (inherited
from atomicity) that exactly one logical thread observes the crossing.

These helpers implement that batch semantics with numpy and also return the
per-location *contention counts* the runtime needs for span accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DecrementOutcome:
    """Result of a batch of atomic decrements on the induced-degree array.

    Attributes:
        counts: Per-vertex number of decrements applied in this batch
            (equals the contention experienced by that vertex's counter).
        crossed: Vertices whose value crossed the threshold ``k`` from above
            (old value > k, new value <= k); by atomicity exactly one thread
            observes each crossing, so these join the next frontier once.
        touched: The distinct locations decremented in this batch (sorted;
            aligned with ``counts``, ``old`` and ``new``).
        old: Values of ``touched`` before the batch.
        new: Values of ``touched`` after the batch.
    """

    counts: np.ndarray
    crossed: np.ndarray
    touched: np.ndarray
    old: np.ndarray
    new: np.ndarray


def batch_decrement(
    values: np.ndarray,
    targets: np.ndarray,
    k: int,
    floor: int | None = None,
) -> DecrementOutcome:
    """Apply one atomic decrement per entry of ``targets`` to ``values``.

    ``targets`` may repeat a vertex; each occurrence is one decrement.
    ``values`` is modified in place.  Returns the contention counts, the
    vertices whose value dropped from above ``k`` to ``k`` or below, and
    the before/after views callers need for survivor bookkeeping.

    ``floor`` clamps the stored values from below (the truss peel's
    supports never go negative) without affecting crossing detection.
    """
    if targets.size == 0:
        empty_counts = np.zeros(0, dtype=np.int64)
        empty = np.zeros(0, dtype=targets.dtype)
        return DecrementOutcome(
            counts=empty_counts,
            crossed=empty,
            touched=empty,
            old=empty_counts,
            new=empty_counts,
        )
    touched, counts = np.unique(targets, return_counts=True)
    old = values[touched]
    new = old - counts
    if floor is not None:
        new = np.maximum(new, floor)
    values[touched] = new
    crossed = touched[(old > k) & (new <= k)]
    return DecrementOutcome(
        counts=counts, crossed=crossed, touched=touched, old=old, new=new
    )


def batch_increment_clamped(
    counters: np.ndarray, targets: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one atomic increment per entry of ``targets`` to ``counters``.

    Returns ``(counts, reached)`` where ``counts`` is the per-location
    contention and ``reached`` lists the locations whose counter reached or
    exceeded ``limit`` during this batch (having been below it before) —
    the sampler's "collected enough samples" event (Alg. 5 line 7), which by
    atomicity fires exactly once per location.
    """
    if targets.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=targets.dtype)
    touched, counts = np.unique(targets, return_counts=True)
    old = counters[touched]
    new = old + counts
    counters[touched] = new
    reached = touched[(old < limit) & (new >= limit)]
    return counts, reached


def segment_contention(
    counts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step atomics and largest contention of concatenated histograms.

    ``counts`` concatenates one contention histogram per step (the
    ``counts`` of a :func:`batch_decrement` each), ``lengths`` gives
    their sizes.  Returns ``(atomics, max_contention)`` per step: the
    sum and the max that ``SimRuntime.parallel_update`` takes of one
    histogram.  An empty histogram gives ``(0, 0)``; ``np.add.reduceat``
    alone would return the next segment's first count there, so only
    non-empty segments reduce.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if counts.size != int(lengths.sum()):
        raise ValueError(
            f"{counts.size} counts cannot split into segments of total "
            f"length {int(lengths.sum())}"
        )
    atomics = np.zeros(lengths.size, dtype=np.int64)
    peak = np.zeros(lengths.size, dtype=np.int64)
    full = np.flatnonzero(lengths)
    if full.size:
        starts = (np.cumsum(lengths) - lengths)[full]
        atomics[full] = np.add.reduceat(counts, starts)
        peak[full] = np.maximum.reduceat(counts, starts)
    return atomics, peak


def contention_of(targets: np.ndarray) -> np.ndarray:
    """Per-location concurrent-update counts of a batch of atomics."""
    if targets.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, counts = np.unique(targets, return_counts=True)
    return counts
