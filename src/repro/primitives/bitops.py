"""Integer bit manipulation primitives (vectorized, exact).

The bucketing structures map a key to its dyadic interval through the
bit length of an integer offset.  Computing that with ``np.log2`` on
float64 is exact only while the offset fits the 53-bit mantissa *and*
the rounding of the log lands on the right side of an integer — near
power-of-two boundaries at large magnitudes it silently misbuckets.
These helpers stay in integer arithmetic the whole way, so they are
exact for the full int64 range.
"""

from __future__ import annotations

import numpy as np

#: Shift schedule that peels a 64-bit value down to one bit.
_SHIFTS = (32, 16, 8, 4, 2, 1)


def bit_length64(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 arrays.

    ``bit_length64(x)[i] == int(x[i]).bit_length()`` exactly, for every
    ``0 <= x[i] < 2**63``.  Zero maps to zero, matching Python.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 0:
        raise ValueError("bit_length64 is defined for non-negative values")
    v = v.astype(np.uint64)
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in _SHIFTS:
        threshold = np.uint64(1) << np.uint64(shift)
        big = v >= threshold
        out[big] += shift
        v[big] >>= np.uint64(shift)
    return out + (v > 0)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened.

    Equal to ``np.unique(values)``, dtype included, but always on the
    sort path: one ``np.sort`` plus an adjacent-difference mask.  From
    NumPy 2.3 plain ``np.unique`` dedupes integers through a hash table
    first, which is several times slower than sorting from about a
    thousand elements up (docs/PERFORMANCE.md).
    """
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iu":
        raise TypeError(f"sorted_unique needs integers, got {arr.dtype}")
    if arr.size < 2:
        return arr.copy()
    ordered = np.sort(arr)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def sorted_member_mask(
    values: np.ndarray, sorted_targets: np.ndarray
) -> np.ndarray:
    """Boolean mask of which ``values`` appear in ``sorted_targets``.

    Equivalent to ``np.isin(values, sorted_targets)`` but requires (and
    exploits) ``sorted_targets`` being sorted: one ``searchsorted`` pass
    instead of a full sort of the concatenation.  The peel's resampling
    rejoin paths compute this once per resample and reuse the mask for
    both the survivor and the old-key selection.
    """
    values = np.asarray(values, dtype=np.int64)
    targets = np.asarray(sorted_targets, dtype=np.int64)
    if targets.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(targets, values)
    pos[pos == targets.size] = targets.size - 1
    return targets[pos] == values
