"""Fixed-width bucketing (Julienne's practical strategy, paper Sec. 5.1).

Maintains ``b`` open buckets covering the keys ``[base, base + b)`` plus an
*overflow* set holding everything else.  Every ``b`` rounds the overflow is
scanned once and the next window of buckets is materialized, so a vertex is
touched by rebuilds ``O(d(v) / b)`` times; a DecreaseKey inside the window
appends the vertex to its new bucket (lazy deletion, stale copies filtered
on extraction), costing up to ``b - 1`` moves per vertex.  Total:
``O(m / b + n b)``, minimized near ``b = sqrt(d_avg)``; Julienne fixes
``b = 16``, which this class defaults to.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.primitives.bitops import sorted_unique
from repro.structures.buckets_base import BucketStructure

#: Julienne's bucket count.
DEFAULT_NUM_BUCKETS = 16


class FixedBuckets(BucketStructure):
    """Julienne-style ``b``-bucket structure with an overflow set."""

    def __init__(self, num_buckets: int = DEFAULT_NUM_BUCKETS) -> None:
        super().__init__()
        if num_buckets < 1:
            raise ValueError(f"need at least one bucket, got {num_buckets}")
        self.b = num_buckets
        self.name = f"{num_buckets}-bucket"
        self._overflow: np.ndarray | None = None
        self._buckets: list[list[np.ndarray]] = []
        self._base = 0
        self._k = -1

    def _build(self, graph: CSRGraph) -> None:
        self._overflow = np.arange(graph.n, dtype=np.int64)
        self._buckets = [[] for _ in range(self.b)]
        self._base = 0
        self._rebuild()
        # _rebuild may have jumped the window past leading key gaps.
        self._k = self._base - 1

    def _rebuild(self) -> None:
        """Scan the overflow and materialize buckets [base, base + b)."""
        assert self._overflow is not None
        assert self.dtilde is not None and self.peeled is not None
        assert self.runtime is not None
        if self._overflow.size:
            self.runtime.parallel_for(
                self.runtime.model.scan_op,
                count=int(self._overflow.size),
                barriers=2,  # histogram-style split: flag pass + scatter
                tag="buildbuckets",
            )
        keys = self.dtilde[self._overflow]
        alive = ~self.peeled[self._overflow]
        if alive.any():
            min_key = int(keys[alive].min())
            if min_key >= self._base + self.b:
                # The whole window would be empty; jump the window to the
                # smallest remaining key (Julienne skips empty buckets).
                self._base = min_key
        stay = alive & (keys >= self._base + self.b)
        for offset in range(self.b):
            members = self._overflow[alive & (keys == self._base + offset)]
            self._buckets[offset] = [members] if members.size else []
        self._overflow = self._overflow[stay]

    def _bucket_members(self, offset: int) -> np.ndarray:
        parts = self._buckets[offset]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        merged = np.concatenate(parts)
        self._buckets[offset] = [merged]
        return merged

    def next_round(self) -> tuple[int, np.ndarray] | None:
        assert self._overflow is not None and self.runtime is not None
        while True:
            self._k += 1
            if self._k >= self._base + self.b:
                self._base += self.b
                self._rebuild()
                # _rebuild may have jumped the window past a key gap.
                self._k = self._base
            offset = self._k - self._base
            members = self._bucket_members(offset)
            self._buckets[offset] = []
            if members.size:
                self.runtime.parallel_for(
                    self.runtime.model.scan_op,
                    count=int(members.size),
                    barriers=1,
                    tag="getnextbucket",
                )
                valid = members[self._valid_mask(members, self._k)]
                if valid.size:
                    # Lazy deletion can in principle leave multiple live
                    # copies of a vertex; deduplicate so the peel never
                    # processes a vertex twice.
                    return self._k, sorted_unique(valid)
            elif self._exhausted():
                return None
            else:
                # Empty key inside the window: O(1) skip, but check for
                # termination so gap-heavy graphs do not spin through an
                # unbounded key range.
                continue
            if self._exhausted():
                return None

    def _exhausted(self) -> bool:
        assert self._overflow is not None
        if self._overflow.size:
            return False
        return not any(
            part.size for parts in self._buckets for part in parts
        )

    def on_decrements(
        self, vertices: np.ndarray, old_keys: np.ndarray | None = None
    ) -> None:
        """Move changed vertices into their new in-window bucket.

        Vertices whose new key is still at or beyond the window simply stay
        in the overflow (they have not been pulled out of it yet) or keep a
        stale copy that extraction filters out.
        """
        assert self.dtilde is not None and self.runtime is not None
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        keys = self.dtilde[vertices]
        in_window = (keys >= self._base) & (keys < self._base + self.b)
        movers = vertices[in_window]
        if movers.size == 0:
            return
        self.runtime.parallel_for(
            self.runtime.model.bucket_move_op,
            count=int(movers.size),
            barriers=1,
            tag="decreasekey",
        )
        move_keys = self.dtilde[movers]
        for offset in range(
            max(0, self._k + 1 - self._base), self.b
        ):
            selected = movers[move_keys == self._base + offset]
            if selected.size:
                self._buckets[offset].append(selected)
