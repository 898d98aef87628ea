"""Batch-dynamic k-core maintenance (the serving-side update engine).

Liu, Shun and Zablotchi ("Parallel k-Core Decomposition with Batched
Updates and Asynchronous Reads", PPoPP 2024; PAPERS.md) make the case
that per-edge dynamic maintenance cannot keep up with real update
traffic: the batched formulation is the one that scales.  This module
replaces one subcore traversal per edge with a **batched update
engine**:

* :meth:`BatchDynamicKCore.apply_batch` accepts a whole batch of edge
  insertions *and* deletions, splices the changed arcs into the sorted
  arc keys and the CSR arrays (located by binary search, no re-sort),
  and repairs coreness with frontier-synchronous rounds — one flat
  kernel invocation per round — instead of one Python BFS per edge;
* **deletions** cascade top-down: coreness values are upper bounds
  after edge removal, so dirty vertices whose support (neighbors with
  ``kappa >= kappa(v)``) falls short drop one level per round until the
  labeling is again a fixed point (exactly the new coreness);
* **insertions** peel bottom-up: the union of affected *subcores*
  (vertices at level ``r`` reachable from a batch endpoint through
  level-``r`` vertices) is re-peeled at threshold ``r`` with the
  sanctioned batch atomics (:func:`repro.runtime.atomics.batch_decrement`);
  survivors rise one level, risers seed the next round, and the
  fixpoint is the exact coreness of the updated graph.

Both cascades maintain the invariant that the label array stays on the
correct side of the true coreness (above for deletions, below for
insertions), so the committed result after a batch is the *exact*
decomposition of the final graph — independent of the order of updates
inside the batch.  The ``updates`` subject of the differential harness
(:mod:`repro.regress.harness`) enforces bit-equality against a full
recompute after every batch.

``REPRO_KERNELS`` selects the kernels, once per batch, and the batch
counts its ``kernel.mode.<mode>`` into the service registry's ``host``
family.  Under
``native`` each insertion round — every level's subcore BFS, ``cd``
init, peel and relabel — is one C call
(:func:`repro.perf.kernels.insertion_round_native`) whose steps enter
the ledger as one block
(:meth:`repro.runtime.simulator.SimRuntime.charge_block`), and the
deletion cascade gathers with the flat NumPy kernel
(:func:`neighbor_stream_vectorized`).  Under ``reference`` every level
runs the NumPy code below over the per-edge Python gather loop
(:func:`neighbor_stream_reference`): the oracle.  Both modes are
bit-exact — same coreness, same simulated-runtime ledger, and the same
registry snapshot and trace (neither carries the ``host`` family).

Work is charged to the simulated runtime through the sanctioned APIs
(``parallel_for`` / ``parallel_update`` with contention counts from the
batch atomics), so batch maintenance has a work/span/burdened-span
story on the same ledger as the static engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.verify import reference_coreness
from repro.errors import InvalidGraphError
from repro.graphs.csr import CSRGraph
from repro.obs.registry import SIZE_BOUNDARIES
from repro.perf import NATIVE, REFERENCE, kernel_mode
from repro.perf.kernels import RoundScratch, insertion_round_native
from repro.primitives.bitops import sorted_member_mask, sorted_unique
from repro.runtime.atomics import batch_decrement
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime

_EMPTY = np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Neighbor-stream kernels (the REPRO_KERNELS switch point)
# ----------------------------------------------------------------------
def neighbor_stream_vectorized(
    graph: CSRGraph, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor lists of ``frontier`` (flat NumPy kernel)."""
    return graph.gather_neighbors(frontier)


def neighbor_stream_reference(
    graph: CSRGraph, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor lists of ``frontier`` (per-edge Python loop).

    The equivalence oracle for :func:`neighbor_stream_vectorized`: same
    CSR traversal order, one Python iteration per edge.
    """
    indptr, indices = graph.indptr, graph.indices
    out: list[int] = []
    for v in frontier.tolist():
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            out.append(u)
    return np.asarray(out, dtype=np.int64)


def _checked_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted arc keys ``u * n + v`` of a CSR with simple symmetric rows.

    The repair kernels and the arc splice assume every row is sorted,
    without repeats or self-loops, and that every arc has its reverse;
    a CSR that breaks this raises :class:`InvalidGraphError` here
    instead of yielding wrong coreness later.  Strictly increasing keys
    mean sorted rows without repeats; a simple graph is then symmetric
    iff its reversed keys, sorted, are the keys themselves.
    """
    n = np.int64(max(graph.n, 1))
    indices = graph.indices
    if indices.size and (indices.min() < 0 or indices.max() >= graph.n):
        raise InvalidGraphError("an arc endpoint is out of range")
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    keys = src * n + indices
    if np.any(keys[1:] <= keys[:-1]):
        raise InvalidGraphError(
            "CSR rows must be sorted and free of repeated arcs"
        )
    if np.any(src == indices):
        raise InvalidGraphError("self-loops are not allowed")
    if not np.array_equal(np.sort(indices * n + src), keys):
        raise InvalidGraphError("CSR rows must be symmetric")
    return keys


@dataclass
class BatchResult:
    """Outcome of one committed update batch.

    ``raised`` and ``lowered`` are per phase: deletions apply first,
    so a vertex the deletions lower and the insertions raise back is in
    both, while ``changed`` is the net diff against the previous epoch.

    Attributes:
        epoch: Epoch number committed by this batch (first batch is 1).
        raised: Vertices the insertion phase raised (sorted, unique).
        lowered: Vertices the deletion phase lowered (sorted, unique).
        changed: Vertices whose coreness differs from the previous
            epoch's (sorted, unique).
        applied_insertions: Edges actually inserted (absent before).
        applied_deletions: Edges actually deleted (present before).
        noop_insertions: Requested insertions that already existed.
        noop_deletions: Requested deletions of absent edges.
        rounds: Frontier-synchronous repair rounds this batch ran.
    """

    epoch: int
    raised: np.ndarray = field(default_factory=lambda: _EMPTY)
    lowered: np.ndarray = field(default_factory=lambda: _EMPTY)
    changed: np.ndarray = field(default_factory=lambda: _EMPTY)
    applied_insertions: int = 0
    applied_deletions: int = 0
    noop_insertions: int = 0
    noop_deletions: int = 0
    rounds: int = 0


class BatchDynamicKCore:
    """Exact coreness under batched edge insertions and deletions.

    The graph lives as a sorted flat arc-key array (``u * n + v`` for
    both directions) beside its CSR view.  Each batch phase splices its
    arcs into fresh copies of both — positions found by binary search,
    row offsets shifted by a running count — so a committed CSR is never
    written again, and every repair round runs on plain CSR with the
    flat kernels.  The input CSR must have sorted, simple, symmetric
    rows; anything else raises :class:`InvalidGraphError`.  Reads
    (:attr:`coreness`, :meth:`core_number`, :meth:`snapshot`) always
    observe the last *committed* epoch; a batch commits atomically when
    :meth:`apply_batch` returns.

    Batch semantics (documented, tested in tests/test_batch_dynamic.py):

    * deletions are applied before insertions, so an edge both deleted
      and inserted in one batch ends up **present**;
    * duplicate updates inside a batch coalesce; inserting a present
      edge or deleting an absent one is a no-op (reported in the
      :class:`BatchResult` counters);
    * self-loops are rejected with :class:`ValueError`, out-of-range
      endpoints with :class:`IndexError`, non-integer endpoints with
      :class:`TypeError`;
    * the committed coreness depends only on the *set* of updates, never
      on their order inside the batch.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: CostModel | None = None,
        runtime: SimRuntime | None = None,
        registry=None,
    ) -> None:
        self.n = graph.n
        self.runtime = (
            runtime
            if runtime is not None
            else SimRuntime(
                model if model is not None else DEFAULT_COST_MODEL,
                registry=registry,
            )
        )
        #: Sorted arc keys (both directions of every undirected edge).
        self._keys = _checked_keys(graph)
        self._graph = graph
        self.coreness = reference_coreness(graph).copy()
        #: Committed epoch counter; one increment per apply_batch.
        self.epoch = 0
        #: Effective (non-no-op) single-edge updates applied so far.
        self.updates = 0
        #: Batches committed so far.
        self.batches = 0
        #: Candidate vertices examined by repair rounds (work telemetry).
        self.touched_vertices = 0
        self._scratch: RoundScratch | None = None

    # ------------------------------------------------------------------
    # Queries (always the last committed epoch)
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The current committed graph (immutable CSR; do not mutate)."""
        return self._graph

    def core_number(self, v: int) -> int:
        """Committed coreness of ``v``."""
        return int(self.coreness[v])

    def degree(self, v: int) -> int:
        """Current degree of ``v``."""
        return self._graph.degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) is present."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        key = np.asarray(
            [np.int64(u) * self.n + np.int64(v)], dtype=np.int64
        )
        return bool(sorted_member_mask(key, self._keys)[0])

    @property
    def metrics(self):
        """The simulated-runtime ledger of all update processing."""
        return self.runtime.metrics

    # ------------------------------------------------------------------
    # Single-edge convenience wrappers (batch of size one)
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> np.ndarray:
        """Insert one edge; returns the vertices whose coreness rose."""
        return self.apply_batch(insertions=[(u, v)]).raised

    def delete_edge(self, u: int, v: int) -> np.ndarray:
        """Delete one edge; returns the vertices whose coreness fell."""
        return self.apply_batch(deletions=[(u, v)]).lowered

    # ------------------------------------------------------------------
    # The batch entry point
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions=(),
        deletions=(),
    ) -> BatchResult:
        """Apply one batch of updates; commit and return the outcome.

        ``insertions`` and ``deletions`` are iterables of vertex pairs
        (or ``(k, 2)`` arrays).  Deletions are applied first; see the
        class docstring for the full batch semantics.
        """
        ins = self._normalize(insertions)
        dels = self._normalize(deletions)
        runtime = self.runtime
        runtime.begin_round()
        rounds_before = runtime.metrics.subrounds
        regime = kernel_mode(runtime.registry)
        # Looked up here, per batch: a caller may replace either stream.
        stream = (
            neighbor_stream_reference
            if regime == REFERENCE
            else neighbor_stream_vectorized
        )

        lowered = before = _EMPTY
        raised = _EMPTY
        applied_del = noop_del = applied_ins = noop_ins = 0

        if dels.size:
            present = sorted_member_mask(dels, self._keys)
            eff = dels[present]
            applied_del = int(eff.size)
            noop_del = int(dels.size - eff.size)
            if eff.size:
                self._remove_arcs(eff)
                dirty = self._endpoints(eff)
                lowered, before = self._deletion_cascade(dirty, stream)

        if ins.size:
            present = sorted_member_mask(ins, self._keys)
            eff = ins[~present]
            applied_ins = int(eff.size)
            noop_ins = int(ins.size - eff.size)
            if eff.size:
                self._add_arcs(eff)
                seeds = self._endpoints(eff)
                raised = self._insertion_fixpoint(
                    seeds, stream, regime == NATIVE
                )

        # A lowered vertex changed iff it did not end where it began; one
        # raised only by the insertions always did.
        changed = sorted_unique(np.concatenate([
            lowered[self.coreness[lowered] != before],
            raised[~sorted_member_mask(raised, lowered)],
        ]))

        self.epoch += 1
        self.batches += 1
        self.updates += applied_del + applied_ins
        result = BatchResult(
            epoch=self.epoch,
            raised=raised,
            lowered=lowered,
            changed=changed,
            applied_insertions=applied_ins,
            applied_deletions=applied_del,
            noop_insertions=noop_ins,
            noop_deletions=noop_del,
            rounds=int(runtime.metrics.subrounds - rounds_before),
        )
        registry = runtime.registry
        if registry is not None:
            registry.inc("dyn.batches")
            registry.set_gauge("dyn.epoch", float(self.epoch))
            if applied_ins:
                registry.inc("dyn.insertions.applied", applied_ins)
            if applied_del:
                registry.inc("dyn.deletions.applied", applied_del)
            if noop_ins or noop_del:
                registry.inc("dyn.updates.noop", noop_ins + noop_del)
            if raised.size:
                registry.inc("dyn.coreness.raised", int(raised.size))
            if lowered.size:
                registry.inc("dyn.coreness.lowered", int(lowered.size))
            registry.inc("dyn.repair_rounds", result.rounds)
            registry.observe(
                "dyn.batch_size",
                float(applied_ins + applied_del),
                boundaries=SIZE_BOUNDARIES,
            )
            registry.instant(
                "batch_commit",
                epoch=result.epoch,
                applied_insertions=applied_ins,
                applied_deletions=applied_del,
                raised=int(raised.size),
                lowered=int(lowered.size),
                rounds=result.rounds,
            )
        return result

    # ------------------------------------------------------------------
    # Structural maintenance (arc keys + CSR splice)
    # ------------------------------------------------------------------
    def _normalize(self, pairs) -> np.ndarray:
        """Canonical sorted unique arc keys (``min * n + max``) of a batch."""
        arr = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs)
        )
        if arr.size == 0:
            return _EMPTY
        # A float or bool endpoint would be truncated to some other
        # vertex by the cast below.
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(
                f"update endpoints must be integers, got {arr.dtype}"
            )
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"update batch must have shape (k, 2), got {arr.shape}"
            )
        if arr.min() < 0 or arr.max() >= self.n:
            bad = arr[(arr.min(axis=1) < 0) | (arr.max(axis=1) >= self.n)]
            raise IndexError(
                f"edge ({int(bad[0, 0])}, {int(bad[0, 1])}) out of range "
                f"for n={self.n}"
            )
        if np.any(arr[:, 0] == arr[:, 1]):
            loop = arr[arr[:, 0] == arr[:, 1]][0]
            raise ValueError(
                f"self-loop ({loop[0]}, {loop[1]}) rejected: the graph "
                f"model is simple"
            )
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        return sorted_unique(lo * np.int64(self.n) + hi)

    def _endpoints(self, canonical_keys: np.ndarray) -> np.ndarray:
        """Sorted unique endpoints of canonical arc keys."""
        lo = canonical_keys // self.n
        hi = canonical_keys % self.n
        return sorted_unique(np.concatenate([lo, hi]))

    def _both_directions(self, canonical_keys: np.ndarray) -> np.ndarray:
        """Sorted arc keys of both directions of canonical edges."""
        lo = canonical_keys // self.n
        hi = canonical_keys % self.n
        n = np.int64(self.n)
        return np.sort(np.concatenate([lo * n + hi, hi * n + lo]))

    def _remove_arcs(self, canonical_keys: np.ndarray) -> None:
        drop = self._both_directions(canonical_keys)
        pos = np.searchsorted(self._keys, drop)
        # The canonical arcs are present; their reverses are by symmetry,
        # which a corrupted key array would break: then the splice would
        # delete some other arc.
        if not np.array_equal(self._keys.take(pos, mode="clip"), drop):
            raise InvalidGraphError(
                "arc keys lost symmetry: a deleted edge has no reverse arc"
            )
        self._keys = np.delete(self._keys, pos)
        self._splice(np.delete(self._graph.indices, pos), drop, -1)

    def _add_arcs(self, canonical_keys: np.ndarray) -> None:
        add = self._both_directions(canonical_keys)
        pos = np.searchsorted(self._keys, add)
        self._keys = np.insert(self._keys, pos, add)
        self._splice(
            np.insert(self._graph.indices, pos, add % self.n), add, 1
        )

    def _splice(
        self, indices: np.ndarray, arcs: np.ndarray, sign: int
    ) -> None:
        """Commit spliced ``indices``; shift the row offsets by ``arcs``.

        ``arcs`` are the sorted removed (``sign`` -1) or inserted (+1)
        arc keys: every row offset moves by the number of them whose
        source precedes the row.  The ledger charges one streaming pass
        over the new arc array plus the update stream.
        """
        n = self.n
        shift = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=shift[1:])
        self._graph = CSRGraph(
            self._graph.indptr + sign * shift,
            indices,
            name="batch-dynamic",
            validate=False,
        )
        self.runtime.parallel_for(
            self.runtime.model.scan_op,
            count=int(self._keys.size + arcs.size),
            barriers=1,
            tag="dyn_rebuild",
        )

    # ------------------------------------------------------------------
    # Deletion cascade (labels are upper bounds; drop to the fixed point)
    # ------------------------------------------------------------------
    def _deletion_cascade(
        self, dirty: np.ndarray, stream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact repair after deletions.

        Returns the lowered vertices and their coreness before the
        cascade: a round lowers each vertex it lists by one, so that is
        the new value plus the number of rounds that listed it.

        Invariant: ``coreness >= true coreness`` pointwise.  Each round
        recounts, for every dirty vertex, the neighbors still supporting
        its level (``kappa(x) >= kappa(v)``); vertices short of support
        drop one level and re-dirty themselves and their neighborhoods.
        At the fixed point the labeling is feasible from below as well,
        hence exact.
        """
        runtime = self.runtime
        model = runtime.model
        graph = self._graph
        lowered: list[np.ndarray] = []
        while dirty.size:
            runtime.begin_subround(int(dirty.size))
            lens = graph.indptr[dirty + 1] - graph.indptr[dirty]
            targets = stream(graph, dirty)
            seg = np.repeat(
                np.arange(dirty.size, dtype=np.int64), lens
            )
            supported = self.coreness[targets] >= self.coreness[dirty][seg]
            support = np.bincount(
                seg[supported], minlength=dirty.size
            )
            runtime.parallel_for(
                (model.vertex_op + model.edge_op * lens).astype(
                    np.float64
                ),
                barriers=model.online_barriers,
                tag="dyn_drop",
            )
            viol_idx = np.flatnonzero(
                (support < self.coreness[dirty])
                & (self.coreness[dirty] > 0)
            )
            if viol_idx.size == 0:
                break
            viol = dirty[viol_idx]
            # Per-vertex label writes: ``viol`` is a subset of the
            # unique ``dirty`` array, so each location is written once.
            self.coreness[viol] -= 1  # lint: disable=R004
            runtime.parallel_for(
                model.scan_op,
                count=int(viol.size),
                barriers=0,
                tag="dyn_relabel",
            )
            lowered.append(viol)
            # Next dirty frontier: the droppers (may drop again) plus
            # their neighborhoods (their support may have shrunk),
            # reusing this round's gathered stream.
            vmask = np.zeros(dirty.size, dtype=bool)
            vmask[viol_idx] = True
            spread = targets[vmask[seg]]
            dirty = sorted_unique(np.concatenate([viol, spread]))
            runtime.parallel_for(
                model.bag_insert_op,
                count=int(dirty.size),
                barriers=0,
                tag="frontier_bag",
            )
        if not lowered:
            return _EMPTY, _EMPTY
        drops = np.concatenate(lowered)
        vertices = sorted_unique(drops)
        counts = np.bincount(
            np.searchsorted(vertices, drops), minlength=vertices.size
        )
        return vertices, self.coreness[vertices] + counts

    # ------------------------------------------------------------------
    # Insertion fixpoint (labels are lower bounds; peel subcores upward)
    # ------------------------------------------------------------------
    def _insertion_fixpoint(
        self, seeds: np.ndarray, stream, native: bool
    ) -> np.ndarray:
        """Exact repair after insertions; returns the raised vertices.

        Invariant: ``coreness <= true coreness`` pointwise, and the
        labeling stays *feasible* (every vertex has ``kappa(v)``
        neighbors at its level or above), so every one-level rise the
        peel grants is permanently correct.  A round runs the seeds'
        levels in ascending order, each from the seeds still at that
        level when it starts; the round's risers seed the next round;
        the fixed point is the exact coreness.  ``native`` runs each
        round in C, else each level over ``stream``.
        """
        raised: list[np.ndarray] = []
        while seeds.size:
            levels = sorted_unique(self.coreness[seeds])
            if native:
                seeds = self._native_round(seeds, levels)
            else:
                seeds = self._reference_round(seeds, levels, stream)
            if seeds.size == 0:
                break
            raised.append(seeds)
        if not raised:
            return _EMPTY
        return sorted_unique(np.concatenate(raised))

    def _native_round(
        self, seeds: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """One round in C, charged as one block; returns the risers.

        The kernel stops before a level its scratch might not hold; the
        levels that ran are charged and the next call resumes there.
        """
        if self._scratch is None:
            self._scratch = RoundScratch(self.n)
        runtime = self.runtime
        risers: list[np.ndarray] = []
        start = 0
        while start < levels.size:
            start, survivors, candidates, block, tags = (
                insertion_round_native(
                    self._graph, self.coreness, seeds, levels, start,
                    self._scratch, runtime.model,
                )
            )
            self.touched_vertices += candidates
            if block is not None:
                runtime.charge_block(block, tags=tags)
            risers.append(survivors)
        return sorted_unique(np.concatenate(risers))

    def _reference_round(
        self, seeds: np.ndarray, levels: np.ndarray, stream
    ) -> np.ndarray:
        """One round in NumPy, level by level; returns the risers."""
        risers: list[np.ndarray] = [_EMPTY]
        for r in levels.tolist():
            roots = seeds[self.coreness[seeds] == r]
            if roots.size:
                risers.append(self._reference_level(roots, int(r), stream))
        return sorted_unique(np.concatenate(risers))

    def _reference_level(
        self, roots: np.ndarray, r: int, stream
    ) -> np.ndarray:
        """One level in NumPy over ``stream``; returns the risers."""
        cand = self._subcore(roots, r, stream)
        if cand.size == 0:
            return _EMPTY
        self.touched_vertices += int(cand.size)
        return self._peel_level(cand, r, stream)

    def _subcore(
        self, roots: np.ndarray, r: int, stream
    ) -> np.ndarray:
        """Union of level-``r`` subcores containing ``roots`` (sorted).

        Frontier-synchronous BFS through coreness-``r`` vertices — the
        insertion candidate set of the traversal algorithm, discovered
        with one flat kernel invocation per BFS round.
        """
        runtime = self.runtime
        model = runtime.model
        graph = self._graph
        visited = np.zeros(self.n, dtype=bool)
        frontier = roots[self.coreness[roots] == r]
        if frontier.size == 0:
            return _EMPTY
        visited[frontier] = True
        members = [frontier]
        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            lens = graph.indptr[frontier + 1] - graph.indptr[frontier]
            targets = stream(graph, frontier)
            runtime.parallel_for(
                (model.vertex_op + model.edge_op * lens).astype(
                    np.float64
                ),
                barriers=model.online_barriers,
                tag="dyn_subcore",
            )
            fresh = (self.coreness[targets] == r) & ~visited[targets]
            nxt = sorted_unique(targets[fresh])
            if nxt.size == 0:
                break
            visited[nxt] = True
            runtime.parallel_for(
                model.bag_insert_op,
                count=int(nxt.size),
                barriers=0,
                tag="frontier_bag",
            )
            members.append(nxt)
            frontier = nxt
        return np.sort(np.concatenate(members))

    def _peel_level(
        self, cand: np.ndarray, r: int, stream
    ) -> np.ndarray:
        """Peel candidate set ``cand`` at threshold ``r``; raise survivors.

        ``cd(w)`` counts the neighbors that could support ``w`` in an
        ``(r + 1)``-core: neighbors above level ``r`` plus unpeeled
        candidates.  Every round removes the whole sub-threshold
        frontier at once through :func:`batch_decrement` (which also
        yields the contention counts the runtime charges); survivors
        are exactly the vertices whose coreness rises to ``r + 1``.
        """
        runtime = self.runtime
        model = runtime.model
        graph = self._graph
        in_set = np.zeros(self.n, dtype=bool)
        in_set[cand] = True
        lens = graph.indptr[cand + 1] - graph.indptr[cand]
        targets = stream(graph, cand)
        seg = np.repeat(np.arange(cand.size, dtype=np.int64), lens)
        counted = (self.coreness[targets] > r) | in_set[targets]
        cd = np.zeros(self.n, dtype=np.int64)
        # Disjoint per-vertex init: cand is sorted-unique (BFS visited
        # mask in _subcore), one bincount slot per candidate.
        cd[cand] = np.bincount(  # lint: disable=R004
            seg[counted], minlength=cand.size
        )
        runtime.parallel_for(
            (model.vertex_op + model.edge_op * lens).astype(np.float64),
            barriers=model.online_barriers,
            tag="dyn_cd_init",
        )

        peeled = np.zeros(self.n, dtype=bool)
        frontier = cand[cd[cand] <= r]
        while frontier.size:
            runtime.begin_subround(int(frontier.size))
            peeled[frontier] = True
            flens = graph.indptr[frontier + 1] - graph.indptr[frontier]
            ftargets = stream(graph, frontier)
            live = in_set[ftargets] & ~peeled[ftargets]
            outcome = batch_decrement(cd, ftargets[live], r)
            runtime.parallel_update(
                (model.vertex_op + model.edge_op * flens).astype(
                    np.float64
                ),
                outcome.counts,
                barriers=model.online_barriers,
                tag="dyn_peel",
            )
            frontier = outcome.crossed[~peeled[outcome.crossed]]

        survivors = cand[~peeled[cand]]
        if survivors.size:
            # Disjoint per-vertex label writes (subset of unique cand).
            self.coreness[survivors] = r + 1  # lint: disable=R004
            runtime.parallel_for(
                model.scan_op,
                count=int(survivors.size),
                barriers=0,
                tag="dyn_relabel",
            )
        return survivors
