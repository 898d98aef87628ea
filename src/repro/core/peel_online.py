"""Online peeling (paper Alg. 3), with optional sampling and VGC.

The online peel removes the frontier in parallel and decrements the induced
degrees of its neighbors *directly* with atomic operations: the thread whose
decrement takes ``dtilde[u]`` from ``k + 1`` to ``k`` is the unique one to
add ``u`` to the next frontier.  It needs a single barrier per subround but
suffers contention on high-degree vertices — which sampling removes — and
still one barrier per (possibly tiny) subround — which VGC amortizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import PeelState
from repro.core.vgc import VGCConfig
from repro.perf import REFERENCE
from repro.perf.kernels import (
    VGCTaskResult,
    scan_peel_round,
    vgc_peel_tasks_native,
)
from repro.primitives.bitops import sorted_member_mask, sorted_unique
from repro.runtime.atomics import batch_decrement
from repro.runtime.metrics import StepBlock


class OnlinePeel:
    """Online peel strategy; one instance per decomposition run."""

    name = "online"

    def __init__(self, vgc: VGCConfig | None = None) -> None:
        self.vgc = vgc

    def subround(
        self, state: PeelState, frontier: np.ndarray, k: int
    ) -> np.ndarray:
        """Peel one frontier; return the next one.

        The caller has already set ``coreness`` / ``peeled`` for the
        frontier (Alg. 1 line 7).
        """
        if self.vgc is not None:
            return self._subround_vgc(state, frontier, k)
        return self._subround_flat(state, frontier, k)

    # ------------------------------------------------------------------
    # Flat online subround (Alg. 3)
    # ------------------------------------------------------------------
    def _subround_flat(
        self, state: PeelState, frontier: np.ndarray, k: int
    ) -> np.ndarray:
        graph, runtime = state.graph, state.runtime
        model = runtime.model
        degrees = graph.indptr[frontier + 1] - graph.indptr[frontier]
        task_costs = (
            model.vertex_op + model.edge_op * degrees
        ).astype(np.float64)

        # Direct atomic decrements (batched, with contention tracking).
        # Without sampling every target is direct, so the gather, the
        # histogram and the apply fuse into one flat kernel pass
        # (:func:`repro.perf.kernels.scan_peel_round`).
        sampled = np.zeros(0, dtype=np.int64)
        if state.sampling is not None:
            targets = graph.gather_neighbors(frontier)
            direct, sampled = state.sampling.split_targets(targets)
            outcome = (
                batch_decrement(state.dtilde, direct, k)
                if direct.size
                else None
            )
        elif int(degrees.sum()):
            outcome = scan_peel_round(state.scratch, state.dtilde, frontier, k)
        else:
            outcome = None

        crossed = np.zeros(0, dtype=np.int64)
        changed = np.zeros(0, dtype=np.int64)
        old_keys = np.zeros(0, dtype=np.int64)
        if outcome is not None:
            crossed = outcome.crossed
            survivors = (outcome.new > k) & (~state.peeled[outcome.touched])
            changed = outcome.touched[survivors]
            old_keys = outcome.old[survivors]
            runtime.parallel_update(
                task_costs,
                outcome.counts,
                barriers=model.online_barriers,
                tag="online_peel",
            )
        else:
            runtime.parallel_for(
                task_costs, barriers=model.online_barriers, tag="online_peel"
            )

        # Sampled stream: coin flips, counter increments, resampling.
        resampled_low = np.zeros(0, dtype=np.int64)
        if state.sampling is not None and sampled.size:
            hits = state.sampling.draw_hits(sampled)
            saturated = state.sampling.apply_hits(hits)
            resampled_low = _resample_and_rebucket(state, saturated, k)

        # ``crossed`` comes out of the batch-decrement contract sorted
        # and duplicate-free, so the merge can skip canonicalization
        # when there is no resampled stream to fold in.
        next_frontier = _merge_frontier(
            state, crossed, resampled_low, crossed_sorted=True
        )
        if changed.size:
            state.buckets.on_decrements(changed, old_keys)
        return next_frontier

    # ------------------------------------------------------------------
    # VGC subround: local searches over bounded FIFO queues (Sec. 4.2)
    # ------------------------------------------------------------------
    def _subround_vgc(
        self, state: PeelState, frontier: np.ndarray, k: int
    ) -> np.ndarray:
        """Run the local searches, then the shared subround epilogue.

        The task loop comes in two bit-exact implementations — the
        compiled native kernel and the original reference loop —
        selected by ``state.scratch.mode``; everything after it (contention
        accounting, resampling, bucket updates, frontier merge) is shared,
        so the implementations can only differ inside the loop.
        """
        assert self.vgc is not None
        runtime = state.runtime
        model = runtime.model
        if state.scratch.mode == REFERENCE:
            result = self._vgc_task_loop_reference(state, frontier, k)
        else:
            result = vgc_peel_tasks_native(
                state,
                frontier,
                k,
                self.vgc.queue_size,
                self.vgc.edge_budget,
            )
        runtime.metrics.local_search_hits += result.local_search_hits
        if runtime.registry is not None:
            runtime.registry.instant(
                "vgc_tasks",
                tasks=int(frontier.size),
                absorbed=int(result.local_search_hits),
                sample_draws=int(result.sample_draws),
                sample_hits=int(result.sample_hits),
                saturated=int(result.saturated.size),
            )

        # Contention accounting: concurrent updates per location across
        # the whole subround (decrements and sampler hits alike), priced
        # as ``parallel_update`` prices them from the totals alone.
        costs = result.task_costs
        work = float(costs.sum()) + result.atomics * model.atomic_op
        span = (float(costs.max()) if costs.size else 0.0) + (
            result.contention * model.contended_atomic_op
        )
        runtime.charge_block(
            StepBlock(
                kind=["parallel_update"],
                work=[work],
                span=[span],
                barriers=[model.online_barriers],
                atomics=[result.atomics],
                contention=[result.contention],
                frontier=[-1],
            ),
            tags=["vgc_peel"],
        )

        resampled_low = np.zeros(0, dtype=np.int64)
        if state.sampling is not None and result.saturated.size:
            resampled_low = _resample_and_rebucket(
                state, result.saturated, k
            )

        # Bucket updates for surviving touched vertices.  Resampling
        # touches sample-mode vertices only, never a decremented one, so
        # the survivors the task loop found still hold.
        if result.survivors.size:
            state.buckets.on_decrements(
                result.survivors, result.survivor_keys
            )
        return _merge_frontier(state, result.next_frontier, resampled_low)

    def _vgc_task_loop_reference(
        self, state: PeelState, frontier: np.ndarray, k: int
    ) -> VGCTaskResult:
        """The original per-edge Python task loop (equivalence oracle)."""
        graph, runtime = state.graph, state.runtime
        model = runtime.model
        dtilde, peeled, coreness = state.dtilde, state.peeled, state.coreness
        sampling = state.sampling
        indptr, indices = graph.indptr, graph.indices
        assert self.vgc is not None
        budget = self.vgc.queue_size
        edge_budget = self.vgc.edge_budget

        next_frontier: list[int] = []
        saturated: list[int] = []
        decrement_targets: list[int] = []
        hit_targets: list[int] = []
        first_seen_key: dict[int, int] = {}
        task_costs = np.empty(frontier.size, dtype=np.float64)

        mode = sampling.mode if sampling is not None else None
        rng = sampling.rng if sampling is not None else None
        local_search_hits = 0
        sample_draws = 0
        for task_id, seed in enumerate(frontier):
            queue: list[int] = [int(seed)]
            head = 0
            cost = 0.0
            edges_seen = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                cost += model.vertex_op
                for u in indices[indptr[v] : indptr[v + 1]]:
                    u = int(u)
                    cost += model.edge_op
                    edges_seen += 1
                    if mode is not None and mode[u]:
                        cost += model.sample_flip_op
                        sample_draws += 1
                        assert rng is not None and sampling is not None
                        if rng.random() < sampling.rate[u]:
                            # Atomic cost is charged by parallel_update
                            # from the contention counts, not per task.
                            hit_targets.append(u)
                            sampling.cnt[u] += 1
                            if sampling.cnt[u] == sampling.mu:
                                saturated.append(u)
                        continue
                    old = dtilde[u]
                    dtilde[u] = old - 1
                    decrement_targets.append(u)
                    first_seen_key.setdefault(u, int(old))
                    if old == k + 1 and not peeled[u]:
                        if len(queue) < budget and edges_seen < edge_budget:
                            # Absorb u into this local search: peel it now.
                            queue.append(u)
                            coreness[u] = k
                            peeled[u] = True
                            if mode is not None:
                                mode[u] = False
                            local_search_hits += 1
                        else:
                            next_frontier.append(u)
            task_costs[task_id] = cost

        survivors = [
            u for u in first_seen_key if dtilde[u] > k and not peeled[u]
        ]
        targets = np.asarray(decrement_targets + hit_targets, dtype=np.int64)
        if targets.size:
            _, counts = np.unique(targets, return_counts=True)
            contention = int(counts.max())
        else:
            contention = 0
        return VGCTaskResult(
            task_costs=task_costs,
            next_frontier=np.asarray(next_frontier, dtype=np.int64),
            saturated=np.asarray(saturated, dtype=np.int64),
            atomics=int(targets.size),
            contention=contention,
            survivors=np.asarray(survivors, dtype=np.int64),
            survivor_keys=np.asarray(
                [first_seen_key[u] for u in survivors], dtype=np.int64
            ),
            local_search_hits=local_search_hits,
            sample_draws=sample_draws,
            sample_hits=len(hit_targets),
        )


def _resample_and_rebucket(
    state: PeelState, saturated: np.ndarray, k: int
) -> np.ndarray:
    """Resample saturated samplers; rebucket survivors; return the lows."""
    assert state.sampling is not None
    saturated = sorted_unique(saturated)
    before = state.dtilde[saturated]
    low = state.sampling.resample_bulk(saturated, k, assume_unique=True)
    # One sorted-membership pass serves both the survivor selection and
    # the old-key pairing (``low`` is a sorted subset of ``saturated``).
    in_low = sorted_member_mask(saturated, low)
    survivors = saturated[~in_low]
    if survivors.size:
        state.buckets.on_decrements(survivors, before[~in_low])
    return low


def _merge_frontier(
    state: PeelState,
    crossed: np.ndarray,
    resampled_low: np.ndarray,
    crossed_sorted: bool = False,
) -> np.ndarray:
    """Combine crossing and resampled vertices into the next frontier.

    Charges the hash-bag insertions that maintain the frontier and filters
    out anything already peeled (resampling can race a crossing).
    ``crossed_sorted`` declares that ``crossed`` is already sorted and
    duplicate-free (the batch-decrement contract), so the common
    no-resample case needs no canonicalization pass at all.
    """
    if resampled_low.size:
        merged = sorted_unique(np.concatenate([crossed, resampled_low]))
    elif crossed.size:
        # ``crossed`` is duplicate-free in every producer — exactly one
        # decrement takes a vertex from ``k + 1`` to ``k``, and that
        # single crossing is what appends it — so an unsorted stream
        # (the VGC task loops) only needs the canonical sort.
        merged = crossed if crossed_sorted else np.sort(crossed)
    else:
        return crossed
    merged = merged[~state.peeled[merged]]
    if merged.size:
        state.runtime.parallel_for(
            state.runtime.model.bag_insert_op,
            count=int(merged.size),
            barriers=0,
            tag="frontier_bag",
        )
    return merged
