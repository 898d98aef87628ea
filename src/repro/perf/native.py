"""Native VGC peel kernel: a tiny C routine compiled on first use.

The VGC task loop is inherently sequential at the absorption level (a
crossing vertex joins the *current* queue and consumes budget that later
crossings observe), which caps what pure NumPy batching can do for the
small-expansion regime that dominates real frontiers.  This module
compiles the reference task loop — minus the RNG — to a shared library
with whatever C compiler the host provides, and loads it with
``ctypes``.  No third-party packages, no build system: one ``cc -O2
-shared`` invocation, cached by source hash under ``_build/``.

Exactness: the C routine is a line-for-line transcription of
``OnlinePeel._vgc_task_loop_reference`` with two provably invisible
changes (see docs/PERFORMANCE.md):

* **Deferred RNG draws.**  Sampled-edge coin flips never influence the
  task loop itself (sample mode is fixed within a subround, sampled
  edges never decrement, and the flip cost is charged per encounter
  regardless of the outcome), so the kernel only records the encounter
  stream and Python draws ``rng.random(total)`` afterwards — the same
  values the reference drew one at a time, in the same order.
* **Batched counter updates.**  Sampler hit counters are incremented
  once per distinct vertex at subround end; nothing reads them inside
  the loop, and the saturation event ``cnt == mu`` is recovered exactly
  from the old/new counter values (unit increments cannot skip ``mu``).

When no compiler is available (or compilation fails for any reason) the
kernel reports unavailable and ``REPRO_KERNELS=auto`` falls back to the
reference loops with a ``RuntimeWarning`` — payloads and goldens are
identical either way; only the wall-clock differs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.obs.registry import active_registry

_SOURCE = r"""
#include <stdint.h>

/* The VGC task loop of the online peel (paper Alg. 3 + Sec. 4.2 local
 * searches), transcribed from the Python reference implementation.
 * Sampled edges are recorded, not drawn: the caller replays the RNG
 * stream afterwards (deferral is exact; see the module docstring). */
void vgc_peel_tasks(
    const int64_t *indptr,
    const int64_t *indices,
    int64_t *dtilde,
    uint8_t *peeled,
    int64_t *coreness,
    const uint8_t *mode,      /* NULL when sampling is inactive */
    const int64_t *frontier,
    int64_t n_tasks,
    int64_t k,
    int64_t budget,
    int64_t edge_budget,
    int64_t *queue,           /* scratch, capacity >= budget */
    int64_t *enc_out,         /* sampled-edge encounters, stream order */
    int64_t *nf_out,          /* crossings denied absorption */
    int64_t *scratch,         /* all-zero per-vertex decrement counters */
    int64_t *touched_out,     /* first-touch list, capacity >= n */
    int64_t *nv_out,          /* per task: queue items processed */
    int64_t *ne_out,          /* per task: edges seen */
    int64_t *ns_out,          /* per task: sampled edges seen */
    int64_t *counters)        /* [enc, nf, local_search_hits, touched] */
{
    int64_t ep = 0, fp = 0, ls = 0, tp = 0;
    int64_t k1 = k + 1;
    for (int64_t t = 0; t < n_tasks; t++) {
        int64_t head = 0, qlen = 1;
        int64_t nv = 0, ne = 0, ns = 0;
        queue[0] = frontier[t];
        while (head < qlen) {
            int64_t v = queue[head++];
            nv++;
            int64_t end = indptr[v + 1];
            for (int64_t i = indptr[v]; i < end; i++) {
                int64_t u = indices[i];
                ne++;
                if (mode && mode[u]) {
                    ns++;
                    enc_out[ep++] = u;
                    continue;
                }
                int64_t old = dtilde[u];
                dtilde[u] = old - 1;
                if (scratch[u]++ == 0)
                    touched_out[tp++] = u;
                if (old == k1 && !peeled[u]) {
                    if (qlen < budget && ne < edge_budget) {
                        queue[qlen++] = u;
                        coreness[u] = k;
                        peeled[u] = 1;
                        ls++;
                    } else {
                        nf_out[fp++] = u;
                    }
                }
            }
        }
        nv_out[t] = nv;
        ne_out[t] = ne;
        ns_out[t] = ns;
    }
    counters[0] = ep;
    counters[1] = fp;
    counters[2] = ls;
    counters[3] = tp;
}

/* The PKC round drain (Kabir & Madduri 2017), transcribed from the
 * Python reference loop in core/baselines/pkc.py: the frontier is
 * statically partitioned over p thread-local FIFO buffers and each
 * thread drains its buffer sequentially, claiming every vertex its own
 * decrements drop from k+1 to k.  Contention bookkeeping is batched:
 * instead of appending every decrement target to a stream, per-vertex
 * counts accumulate in the caller's all-zero scratch array with a
 * first-touch list (the count multiset is identical, and the caller
 * only consumes its max and sum). */
void pkc_chain_drain(
    const int64_t *indptr,
    const int64_t *indices,
    int64_t *dtilde,
    uint8_t *peeled,
    int64_t *coreness,
    const int64_t *frontier,
    int64_t n_front,
    int64_t k,
    int64_t p,
    int64_t *queue,           /* scratch, capacity >= n */
    int64_t *scratch,         /* all-zero per-vertex counters */
    int64_t *touched_out,     /* first-touch list, capacity >= n */
    int64_t *nv_out,          /* per thread: queue items processed */
    int64_t *ne_out,          /* per thread: edges seen */
    int64_t *counters)        /* [touched, claimed] */
{
    int64_t tp = 0, claimed = 0;
    int64_t k1 = k + 1;
    for (int64_t tid = 0; tid < p; tid++) {
        int64_t head = 0, qlen = 0;
        for (int64_t i = tid; i < n_front; i += p)
            queue[qlen++] = frontier[i];
        int64_t nv = 0, ne = 0;
        while (head < qlen) {
            int64_t v = queue[head++];
            nv++;
            int64_t end = indptr[v + 1];
            for (int64_t e = indptr[v]; e < end; e++) {
                int64_t u = indices[e];
                ne++;
                int64_t old = dtilde[u];
                dtilde[u] = old - 1;
                if (scratch[u]++ == 0)
                    touched_out[tp++] = u;
                if (old == k1 && !peeled[u]) {
                    /* The atomic claim: the chain stays on this thread. */
                    peeled[u] = 1;
                    coreness[u] = k;
                    claimed++;
                    queue[qlen++] = u;
                }
            }
        }
        nv_out[tid] = nv;
        ne_out[tid] = ne;
    }
    counters[0] = tp;
    counters[1] = claimed;
}

/* Fused gather + histogram + apply over a frontier's neighborhoods:
 * one pass counts occurrences per target (first-touch list into the
 * caller's all-zero scratch), a second applies the batched decrements.
 * Equivalent to batch_decrement(dtilde, gather_neighbors(frontier), k)
 * without materializing or sorting the target stream. */
void scan_peel(
    const int64_t *indptr,
    const int64_t *indices,
    int64_t *dtilde,
    const int64_t *frontier,
    int64_t n_front,
    int64_t *scratch,         /* all-zero per-vertex counters */
    int64_t *touched_out,     /* first-touch list, capacity >= n */
    int64_t *counters)        /* [touched] */
{
    int64_t tp = 0;
    for (int64_t i = 0; i < n_front; i++) {
        int64_t v = frontier[i];
        int64_t end = indptr[v + 1];
        for (int64_t e = indptr[v]; e < end; e++) {
            int64_t u = indices[e];
            if (scratch[u]++ == 0)
                touched_out[tp++] = u;
        }
    }
    for (int64_t i = 0; i < tp; i++) {
        int64_t u = touched_out[i];
        dtilde[u] -= scratch[u];
    }
    counters[0] = tp;
}

/* One Jacobi H-index round over the active set (paper Sec. 2 locality:
 * kappa(v) = H({kappa(u) : u in N(v)})), shared by the shard workers
 * and the inline coordinator.  Estimates start at the degree bound and
 * only decrease, so clipping neighbor values at the vertex's own
 * estimate e bounds both the suffix scan and the histogram reset by
 * O(deg(v)) -- the histogram stays all-zero between vertices.  Reads
 * est as a snapshot (out is disjoint), which is what makes the round
 * partition-independent. */
void hindex_round(
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *est,
    const int64_t *active,
    int64_t n_active,
    int64_t *out,             /* capacity >= n_active */
    int64_t *hist)            /* all-zero, capacity >= max(est) + 2 */
{
    for (int64_t i = 0; i < n_active; i++) {
        int64_t v = active[i];
        int64_t e = est[v];
        if (e <= 0) {
            out[i] = 0;
            continue;
        }
        int64_t end = indptr[v + 1];
        for (int64_t p = indptr[v]; p < end; p++) {
            int64_t c = est[indices[p]];
            if (c > e)
                c = e;
            hist[c]++;
        }
        int64_t total = 0, h = e;
        for (; h > 0; h--) {
            total += hist[h];
            if (total >= h)
                break;
        }
        out[i] = h;
        for (int64_t c = 0; c <= e; c++)
            hist[c] = 0;
    }
}

/* Mark every neighbor of a changed vertex dirty: the push half of the
 * push-on-change schedule.  Out-of-range marks are harmless (callers
 * scan only their own vertex range for the next active set). */
void mark_dirty(
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *changed,
    int64_t n_changed,
    uint8_t *dirty)           /* capacity >= n */
{
    for (int64_t i = 0; i < n_changed; i++) {
        int64_t v = changed[i];
        int64_t end = indptr[v + 1];
        for (int64_t p = indptr[v]; p < end; p++)
            dirty[indices[p]] = 1;
    }
}

/* Alg. 5's RESAMPLE recount (line 19): for each given vertex, the number
 * of its neighbors not yet peeled.  With a coreness array it is the
 * Sec. 4.1.4 Las-Vegas check instead: a peeled neighbor still counts
 * when its coreness is at least k (it was peeled in the current round).
 * One pass over each neighborhood, nothing materialized; repeated or
 * unsorted vertices are each counted on their own. */
void recount_alive(
    const int64_t *indptr,
    const int64_t *indices,
    const uint8_t *peeled,
    const int64_t *coreness,  /* NULL: count unpeeled neighbors only */
    const int64_t *vertices,
    int64_t n_vertices,
    int64_t k,
    int64_t *out)             /* capacity >= n_vertices */
{
    for (int64_t i = 0; i < n_vertices; i++) {
        int64_t v = vertices[i];
        int64_t end = indptr[v + 1];
        int64_t count = 0;
        if (coreness) {
            for (int64_t p = indptr[v]; p < end; p++) {
                int64_t u = indices[p];
                count += !peeled[u] || coreness[u] >= k;
            }
        } else {
            for (int64_t p = indptr[v]; p < end; p++)
                count += !peeled[indices[p]];
        }
        out[i] = count;
    }
}

/* The full-array frontier scan of the scan-based baselines: pack every
 * unpeeled vertex with dtilde <= k, ascending (np.nonzero order). */
void scan_frontier(
    const int64_t *dtilde,
    const uint8_t *peeled,
    int64_t n,
    int64_t k,
    int64_t *out,             /* capacity >= n */
    int64_t *counters)        /* [matches] */
{
    int64_t fp = 0;
    for (int64_t v = 0; v < n; v++) {
        if (!peeled[v] && dtilde[v] <= k)
            out[fp++] = v;
    }
    counters[0] = fp;
}
"""

#: Per-task counter outputs of the C kernel (``<name>_out`` parameters)
#: mapped to the :class:`repro.runtime.cost_model.CostModel` field each
#: is priced with in the dyadic closed form of
#: :func:`repro.perf.kernels.vgc_peel_tasks_native`.  The R007 lint rule
#: cross-checks this table against the embedded C source, the ctypes
#: signature, and the cost model — editing any side without the others
#: is exactly the drift it exists to catch.
COST_COUNTERS = {
    "nv": "vertex_op",
    "ne": "edge_op",
    "ns": "sample_flip_op",
}

#: Same cross-check for the PKC chain-drain kernel: its per-thread
#: counter outputs mapped to the cost-model fields each is priced with
#: in :func:`repro.perf.kernels.pkc_thread_works` (the reference drain
#: charges every edge with *both* ``edge_op`` and ``atomic_op``).
PKC_COST_COUNTERS = {
    "nv": "vertex_op",
    "ne": ["edge_op", "atomic_op"],
}


def kernel_source() -> str:
    """The embedded C source of the compiled kernel (for tooling)."""
    return _SOURCE


_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")

_lib: ctypes.CDLL | None = None
_available: bool | None = None


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _so_path() -> str:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(_BUILD_DIR, f"_vgc_kernel-{digest}.so")


def _build() -> str | None:
    """Compile the kernel (once per source version); return the .so path."""
    registry = active_registry()
    path = _so_path()
    if os.path.exists(path):
        if registry is not None:
            registry.inc("cache.native_so.hit")
        return path
    cc = _compiler()
    if cc is None:
        return None
    os.makedirs(_BUILD_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=_BUILD_DIR) as work:
            src = os.path.join(work, "_vgc_kernel.c")
            out = os.path.join(work, "_vgc_kernel.so")
            with open(src, "w", encoding="ascii") as handle:
                handle.write(_SOURCE)
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", out, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, path)  # atomic: concurrent builders agree
    except (OSError, subprocess.SubprocessError):
        if registry is not None:
            registry.inc("cache.native_so.build_failed")
        return None
    if registry is not None:
        registry.inc("cache.native_so.build")
    return path


def _load() -> ctypes.CDLL | None:
    global _lib, _available
    if _available is not None:
        return _lib
    path = _build()
    if path is None:
        _available = False
        return None
    try:
        lib = ctypes.CDLL(path)
        fn = lib.vgc_peel_tasks
        pkc = lib.pkc_chain_drain
        peel = lib.scan_peel
        scan = lib.scan_frontier
        hind = lib.hindex_round
        dirty = lib.mark_dirty
        recount = lib.recount_alive
    except (OSError, AttributeError):
        _available = False
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 4 + [
        ctypes.c_void_p
    ] * 9
    pkc.restype = None
    pkc.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 3 + [
        ctypes.c_void_p
    ] * 6
    peel.restype = None
    peel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 1 + [
        ctypes.c_void_p
    ] * 3
    scan.restype = None
    scan.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ] * 2
    hind.restype = None
    hind.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 1 + [
        ctypes.c_void_p
    ] * 2
    dirty.restype = None
    dirty.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 1 + [
        ctypes.c_void_p
    ] * 1
    recount.restype = None
    recount.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ] * 1
    _lib = lib
    _available = True
    return _lib


def available() -> bool:
    """Whether the native kernel is usable on this host (builds lazily)."""
    return _load() is not None


def _ptr(array: np.ndarray | None) -> ctypes.c_void_p | None:
    if array is None:
        return None
    return ctypes.c_void_p(array.ctypes.data)


_NO_ENC = np.zeros(0, dtype=np.int64)


def _check_array(
    name: str, array: np.ndarray, dtype, size: int | None = None
) -> None:
    """Raise unless ``array`` is contiguous 1-D ``dtype`` (of ``size``)."""
    if not (
        array.dtype == dtype
        and array.ndim == 1
        and array.flags.c_contiguous
        and (size is None or array.size == size)
    ):
        length = "" if size is None else f" of length {size}"
        raise ValueError(
            f"{name} must be a contiguous {np.dtype(dtype)} array{length}"
        )


def _check_ids(name: str, ids: np.ndarray, n: int) -> np.ndarray:
    """``ids`` as contiguous int64, after checking they lie in ``[0, n)``."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"{name} vertex out of range [0, {n})")
    return ids


def run_task_loop(
    graph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    mode: np.ndarray | None,
    frontier: np.ndarray,
    k: int,
    budget: int,
    edge_budget: int,
    scratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           int, np.ndarray]:
    """Run every local search of a subround in the compiled kernel.

    Mutates ``dtilde`` / ``peeled`` / ``coreness`` exactly like the
    reference loop and returns ``(enc, next_frontier, nv, ne, ns,
    local_search_hits, marks)`` where ``enc`` is the sampled-encounter
    stream in task-major order, ``nv`` / ``ne`` / ``ns`` are the
    per-task item / edge / sampled-edge counts, and ``marks`` is the
    first-touch list of distinct decrement targets whose multiplicities
    the kernel accumulated into the scratch count buffer (the caller
    reads and re-zeros them).  The flat buffers come from the run's
    :class:`repro.perf.kernels.KernelScratch` arena: the returned
    streams are views valid until the next kernel call on it.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    frontier = np.ascontiguousarray(frontier, dtype=np.int64)
    n_tasks = int(frontier.size)
    # Stream capacities: every queue item is expanded at most once and the
    # item sets of distinct tasks are disjoint, so the encounter stream is
    # bounded by the degree sum of all vertices — indices.size.  Denied
    # crossings are bounded by one crossing per vertex per subround.
    counters = np.zeros(4, dtype=np.int64)
    # Buffer *and* pointer reuse: the run-stable arrays go through the
    # scratch pointer cache, so the per-subround call pays two ctypes
    # conversions (frontier, counters) instead of sixteen.
    sp = scratch.ptr
    enc = scratch.enc_buf() if mode is not None else _NO_ENC
    nf = scratch.nf_buf()
    touched = scratch.touched_buf()
    nv_all, ne_all, ns_all = scratch.task_bufs()
    lib.vgc_peel_tasks(
        sp(graph.indptr),
        sp(graph.indices),
        sp(dtilde),
        sp(scratch.u8(peeled)),
        sp(coreness),
        sp(scratch.u8(mode)) if mode is not None else None,
        _ptr(frontier),
        n_tasks,
        int(k),
        int(budget),
        int(edge_budget),
        sp(scratch.queue_buf(budget)),
        sp(enc),
        sp(nf),
        sp(scratch.count_buf()),
        sp(touched),
        sp(nv_all),
        sp(ne_all),
        sp(ns_all),
        _ptr(counters),
    )
    ep, fp, ls, tp = (int(x) for x in counters)
    return (
        enc[:ep] if mode is not None else enc,
        nf[:fp].copy(),
        nv_all[:n_tasks],
        ne_all[:n_tasks],
        ns_all[:n_tasks],
        ls,
        touched[:tp],
    )


def run_pkc_round(
    graph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    frontier: np.ndarray,
    k: int,
    p: int,
    queue: np.ndarray,
    counts: np.ndarray,
    touched: np.ndarray,
    scratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run one PKC round's chain drains in the compiled kernel.

    Mutates ``dtilde`` / ``peeled`` / ``coreness`` exactly like the
    reference drain, accumulates per-target decrement counts into the
    caller's all-zero ``counts`` scratch (caller re-zeros its marks) and
    returns ``(nv, ne, marks, claimed)`` with per-thread item / edge
    counters and the first-touch list as a view into ``touched``.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    frontier = np.ascontiguousarray(frontier, dtype=np.int64)
    nv = np.empty(p, dtype=np.int64)
    ne = np.empty(p, dtype=np.int64)
    counters = np.zeros(2, dtype=np.int64)
    sp = scratch.ptr
    lib.pkc_chain_drain(
        sp(graph.indptr),
        sp(graph.indices),
        sp(dtilde),
        sp(scratch.u8(peeled)),
        sp(coreness),
        _ptr(frontier),
        int(frontier.size),
        int(k),
        int(p),
        sp(queue),
        sp(counts),
        sp(touched),
        _ptr(nv),
        _ptr(ne),
        _ptr(counters),
    )
    tp, claimed = (int(x) for x in counters)
    return nv, ne, touched[:tp], claimed


def run_scan_peel(
    graph,
    dtilde: np.ndarray,
    frontier: np.ndarray,
    counts: np.ndarray,
    touched: np.ndarray,
    scratch,
) -> np.ndarray:
    """Fused gather + count + decrement-apply in the compiled kernel.

    Accumulates per-target occurrence counts into the caller's all-zero
    ``counts`` scratch (caller re-zeros its marks), applies the batched
    decrements to ``dtilde`` and returns the first-touch list as a view
    into ``touched`` (unsorted).
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    frontier = np.ascontiguousarray(frontier, dtype=np.int64)
    counters = np.zeros(1, dtype=np.int64)
    sp = scratch.ptr
    lib.scan_peel(
        sp(graph.indptr),
        sp(graph.indices),
        sp(dtilde),
        _ptr(frontier),
        int(frontier.size),
        sp(counts),
        sp(touched),
        _ptr(counters),
    )
    return touched[: int(counters[0])]


def run_scan_frontier(
    dtilde: np.ndarray,
    peeled: np.ndarray,
    k: int,
    out: np.ndarray,
    scratch,
) -> np.ndarray:
    """Pack the unpeeled vertices with ``dtilde <= k`` (ascending)."""
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    counters = np.zeros(1, dtype=np.int64)
    sp = scratch.ptr
    lib.scan_frontier(
        sp(dtilde),
        sp(scratch.u8(peeled)),
        int(dtilde.size),
        int(k),
        sp(out),
        _ptr(counters),
    )
    return out[: int(counters[0])].copy()


def run_recount(
    graph,
    peeled: np.ndarray,
    vertices: np.ndarray,
    coreness: np.ndarray | None = None,
    k: int = 0,
) -> np.ndarray:
    """Per vertex of ``vertices``: its unpeeled neighbors, in C.

    With ``coreness`` given, peeled neighbors whose coreness is at least
    ``k`` count too (the Las-Vegas check).  Returns a fresh int64 array
    aligned with ``vertices``.  The C loop reads ``peeled`` as
    contiguous bytes and ``coreness`` as contiguous int64, both of
    length ``n``, at every neighbor of every vertex, so those layouts
    and the vertex range are checked here first.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    n = int(graph.n)
    _check_array("peeled", peeled, np.bool_, n)
    if coreness is not None:
        _check_array("coreness", coreness, np.int64, n)
    vertices = _check_ids("recount", vertices, n)
    out = np.empty(vertices.size, dtype=np.int64)
    lib.recount_alive(
        _ptr(graph.indptr),
        _ptr(graph.indices),
        _ptr(peeled.view(np.uint8)),
        _ptr(coreness),
        _ptr(vertices),
        int(vertices.size),
        int(k),
        _ptr(out),
    )
    return out


def run_hindex_round(
    indptr: np.ndarray,
    indices: np.ndarray,
    est: np.ndarray,
    active: np.ndarray,
    out: np.ndarray,
    hist: np.ndarray,
) -> np.ndarray:
    """One Jacobi H-index round over ``active`` in the compiled kernel.

    Reads ``est`` as a snapshot and writes the new estimate of
    ``active[i]`` to ``out[i]``; ``hist`` is an all-zero scratch that
    the kernel leaves all-zero.  The C loop indexes ``est`` by
    ``active`` and ``hist`` by estimates up to ``max(est[active])``, so
    the ids, the layouts (contiguous int64, mmap-backed views included)
    and the capacities are checked here first, in ``O(|active|)``.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    n = int(indptr.size) - 1
    active = _check_ids("active", active, n)
    _check_array("est", est, np.int64, n)
    _check_array("out", out, np.int64)
    _check_array("hist", hist, np.int64)
    if out.size < active.size:
        raise ValueError(f"out holds {out.size} < {active.size} estimates")
    if active.size and hist.size <= est[active].max():
        raise ValueError(
            f"hist of size {hist.size} cannot count estimate "
            f"{est[active].max()}"
        )
    lib.hindex_round(
        _ptr(indptr),
        _ptr(indices),
        _ptr(est),
        _ptr(active),
        int(active.size),
        _ptr(out),
        _ptr(hist),
    )
    return out[: active.size]


def run_mark_dirty(
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: np.ndarray,
    dirty: np.ndarray,
) -> None:
    """Mark every neighbor of ``changed`` in the uint8 ``dirty`` mask.

    The ids and the mask's layout are checked first, in
    ``O(|changed|)``: C reads the rows of ``changed`` and writes
    ``dirty`` at every neighbor.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError("native kernel unavailable")
    n = int(indptr.size) - 1
    changed = _check_ids("changed", changed, n)
    _check_array("dirty", dirty, np.uint8, n)
    lib.mark_dirty(
        _ptr(indptr),
        _ptr(indices),
        _ptr(changed),
        int(changed.size),
        _ptr(dirty),
    )
