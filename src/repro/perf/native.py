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

A cached library that does not load is rebuilt once.  When there is no
compiler, the compile fails or the library still does not load, the
kernel reports unavailable with that cause (:func:`failure`) and
``REPRO_KERNELS=auto`` falls back to the reference loops with a
``RuntimeWarning`` — payloads and goldens are identical either way;
only the wall-clock differs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.obs.registry import HOST, active_registry

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
    int64_t *touched_out,     /* survivors, first-touch order, >= n */
    int64_t *old_out,         /* survivors' keys before the subround */
    int64_t *nv_out,          /* per task: queue items processed */
    int64_t *ne_out,          /* per task: edges seen */
    int64_t *ns_out,          /* per task: sampled edges seen */
    int64_t *counters)        /* [enc, nf, local_search_hits, survivors,
                                  decrements, largest count] */
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
    /* Reduce the first-touch list without sorting it: the decrement
     * total and the largest count (the subround's contention), the
     * counters re-zeroed, and the touched vertices that stay in the
     * structure (unpeeled, key still above k) with the key each had
     * before its first decrement, kept in first-touch order in place. */
    int64_t dec = 0, top = 0, sv = 0;
    for (int64_t i = 0; i < tp; i++) {
        int64_t u = touched_out[i], c = scratch[u];
        scratch[u] = 0;
        dec += c;
        if (c > top)
            top = c;
        if (dtilde[u] > k && !peeled[u]) {
            touched_out[sv] = u;
            old_out[sv++] = dtilde[u] + c;
        }
    }
    counters[0] = ep;
    counters[1] = fp;
    counters[2] = ls;
    counters[3] = sv;
    counters[4] = dec;
    counters[5] = top;
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

/* One round of the batch-dynamic insertion repair, transcribed from
 * BatchDynamicKCore._reference_round: the levels from levels[start] up,
 * ascending, each from the roots still at its level r when it starts.
 * A level is _subcore and _peel_level -- the frontier-synchronous BFS
 * through coreness-r vertices, the cd init, the threshold peel at r with
 * batched unit decrements (paper Alg. 1/3) -- and its survivors rise to
 * r + 1 before the next level starts.  The BFS closes the candidate set
 * over level-r neighbors, so cd(v), the neighbors above r or in the
 * set, is the neighbors at r or above, counted in the BFS pass.  The
 * ledger prices frontier *sets* in closed form, so no frontier is
 * sorted.  Writes one row per ledger step, in ledger order; tag 0-4 is
 * dyn_subcore, frontier_bag, dyn_cd_init, dyn_peel, dyn_relabel, nv the
 * frontier size (the bag inserts or the survivors on tags 1 and 4), ne
 * the degree sum, dmax the largest degree, and seg the length of a peel
 * row's contention segment, which holds, per distinct decremented
 * vertex, its decrement count.  A level writes at most 3n rows, n risers
 * and one segment entry per arc, so it starts only while that much room
 * is left; counters[0] is the first level not run.  mark is all-zero on
 * entry and on return (1: candidate, 2: peeled, 3: candidate decremented
 * in the current subround). */
void insertion_round(
    const int64_t *indptr,
    const int64_t *indices,
    int64_t *coreness,
    const int64_t *roots,
    const int64_t *levels,
    int64_t n_roots,
    int64_t n_levels,
    int64_t start,
    int64_t n,
    int64_t row_cap,
    int64_t riser_cap,
    int64_t seg_cap,
    uint8_t *mark,            /* all-zero, capacity >= n */
    int64_t *cd,              /* scratch, capacity >= n */
    int64_t *cand,            /* one level's candidates, capacity >= n */
    int64_t *queue,           /* peel frontiers, capacity >= n */
    int64_t *touched,         /* one subround's targets, capacity >= n */
    int64_t *risers_out,      /* every level's survivors, riser_cap */
    int64_t *tag_out,         /* per row: ledger step, row_cap */
    int64_t *nv_out,          /* per row: frontier size or count */
    int64_t *ne_out,          /* per row: degree sum */
    int64_t *dmax_out,        /* per row: largest degree */
    int64_t *seg_out,         /* per row: contention segment length */
    int64_t *contention_out,  /* segments, seg_cap */
    int64_t *counters)        /* [next level, rows, cp, risers, cand] */
{
#define ROW(t, a, b, c, d) \
    (tag_out[rows] = (t), nv_out[rows] = (a), ne_out[rows] = (b), \
     dmax_out[rows] = (c), seg_out[rows++] = (d))
    int64_t rows = 0, cp = 0, nr = 0, seen = 0, arcs = indptr[n];
    int64_t li = start;
    for (; li < n_levels; li++) {
        if (rows + 3 * n > row_cap || nr + n > riser_cap
            || cp + arcs > seg_cap)
            break;
        int64_t r = levels[li], nc = 0, head = 0, ne_all = 0, dmax_all = 0;
        for (int64_t i = 0; i < n_roots; i++) {
            int64_t v = roots[i];
            if (coreness[v] == r && !mark[v]) {
                mark[v] = 1;
                cand[nc++] = v;
            }
        }
        if (!nc)
            continue;
        while (head < nc) {
            int64_t end = nc, ne = 0, dmax = 0;
            for (int64_t i = head; i < end; i++) {
                int64_t v = cand[i], lo = indptr[v], hi = indptr[v + 1];
                int64_t c = 0;
                ne += hi - lo;
                if (hi - lo > dmax)
                    dmax = hi - lo;
                for (int64_t p = lo; p < hi; p++) {
                    int64_t u = indices[p], k = coreness[u];
                    c += k >= r;
                    if (k == r && !mark[u]) {
                        mark[u] = 1;
                        cand[nc++] = u;
                    }
                }
                cd[v] = c;
            }
            ROW(0, end - head, ne, dmax, 0);
            if (nc > end)
                ROW(1, nc - end, 0, 0, 0);
            ne_all += ne;
            if (dmax > dmax_all)
                dmax_all = dmax;
            head = end;
        }
        ROW(2, nc, ne_all, dmax_all, 0);
        int64_t qh = 0, qt = 0;
        for (int64_t i = 0; i < nc; i++)
            if (cd[cand[i]] <= r)
                queue[qt++] = cand[i];
        while (qh < qt) {
            int64_t end = qt, ne = 0, dmax = 0, tp = 0;
            for (int64_t i = qh; i < end; i++)
                mark[queue[i]] = 2;
            for (int64_t i = qh; i < end; i++) {
                int64_t v = queue[i], lo = indptr[v], hi = indptr[v + 1];
                ne += hi - lo;
                if (hi - lo > dmax)
                    dmax = hi - lo;
                for (int64_t p = lo; p < hi; p++) {
                    int64_t u = indices[p];
                    if (mark[u] == 1) {
                        mark[u] = 3;
                        contention_out[cp + tp] = cd[u];
                        touched[tp++] = u;
                    }
                    if (mark[u] == 3 && cd[u]-- == r + 1)
                        queue[qt++] = u;
                }
            }
            for (int64_t i = 0; i < tp; i++) {
                contention_out[cp + i] -= cd[touched[i]];
                mark[touched[i]] = 1;
            }
            ROW(3, end - qh, ne, dmax, tp);
            cp += tp;
            qh = end;
        }
        int64_t ns = 0;
        for (int64_t i = 0; i < nc; i++) {
            int64_t v = cand[i];
            if (mark[v] == 1) {
                coreness[v] = r + 1;
                risers_out[nr + ns++] = v;
            }
            mark[v] = 0;
        }
        if (ns)
            ROW(4, ns, 0, 0, 0);
        nr += ns;
        seen += nc;
    }
#undef ROW
    counters[0] = li;
    counters[1] = rows;
    counters[2] = cp;
    counters[3] = nr;
    counters[4] = seen;
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

/* The hierarchical bucketing structure (paper Sec. 5.2), transcribed
 * from structures/hbs.py's HierarchicalBuckets over hash bags.  The
 * live layout is a stack of slots in descending key order: slot nb-1
 * is the front bucket, so a split pops it and pushes its refinement
 * without moving the tail.  A slot keeps its interval [lo, hi], its
 * copy list as a chain of HBS_BLOCK-copy blocks of the pooled `pool`
 * (links in `nxt`; the free blocks are threaded through `nxt` from
 * st[1]) and its copy count, which is also what the slot received
 * since its last extraction, since extraction empties it.  That count
 * t prices the extraction in closed form: a hash bag (chunks lam,
 * 2 lam, 4 lam, ..., each filled to room = lam * load factor) that
 * took t copies since its last extraction scans a prefix of
 * lam * (2^(c+1) - 1) slots, c the smallest with
 * room * (2^(c+1) - 1) >= t.  The ledger steps are written as rows in
 * ledger order: tag 0 bag_extract (n: the prefix), 1 bag_insert_many
 * (n: the copies), 2 hbs_decreasekey (n: the vertices moved).
 * st: [nb live slots, free-list head, free blocks].  A call that might
 * overrun a row, slot or block buffer returns HBS_ROOM with the sizes
 * it needs before it changes anything; the caller grows the buffers
 * and calls again, and the call resumes where it stopped.  HBS_OK:
 * done (next_round: the structure is drained); HBS_FOUND: next_round
 * returns a frontier; HBS_BELOW: a key lies below the front slot. */
#define HBS_BLOCK 256
#define HBS_OK 0
#define HBS_FOUND 1
#define HBS_ROOM 2
#define HBS_BELOW 3

/* The slot covering key: the first slot (largest lo) with lo <= key,
 * or -1 below the front (searchsorted over the live lower bounds). */
static int64_t hbs_find(const int64_t *slo, int64_t nb, int64_t key)
{
    if (nb == 0 || key < slo[nb - 1])
        return -1;
    int64_t a = 0, b = nb - 1;
    while (a < b) {
        int64_t mid = a + (b - a) / 2;
        if (slo[mid] <= key)
            b = mid;
        else
            a = mid + 1;
    }
    return a;
}

/* Whether slot s covers key (the next slot up starts above it). */
static inline int hbs_covers(const int64_t *slo, int64_t s, int64_t key)
{
    return slo[s] <= key && (s == 0 || slo[s - 1] > key);
}

static int64_t hbs_prefix(int64_t t, int64_t lam, int64_t room)
{
    int64_t s = 1;
    while (room * s < t)
        s = 2 * s + 1;
    return lam * s;
}

/* Append copy v to slot s (a block from the free list when its tail
 * block is full). */
static inline void hbs_push(
    int64_t *sfirst, int64_t *slast, int64_t *scount,
    int64_t *pool, int64_t *nxt, int64_t *st, int64_t s, int64_t v)
{
    int64_t c = scount[s], off = c % HBS_BLOCK;
    if (off == 0) {
        int64_t b = st[1];
        st[1] = nxt[b];
        st[2]--;
        nxt[b] = -1;
        if (c == 0)
            sfirst[s] = b;
        else
            nxt[slast[s]] = b;
        slast[s] = b;
    }
    pool[slast[s] * HBS_BLOCK + off] = v;
    scount[s] = c + 1;
}

/* Scatter: a copy of every vs[i] with ids[i] >= 0 into slot ids[i],
 * one bag_insert_many row per destination in ascending key order.
 * cnt holds the per-slot counts on entry and is left all-zero. */
static int64_t hbs_scatter(
    const int64_t *vs, const int64_t *ids, int64_t m, int64_t nb,
    int64_t *cnt, int64_t *sfirst, int64_t *slast, int64_t *scount,
    int64_t *pool, int64_t *nxt, int64_t *st,
    int64_t *row_tag, int64_t *row_n, int64_t rows)
{
    for (int64_t s = nb - 1; s >= 0; s--) {
        if (cnt[s]) {
            row_tag[rows] = 1;
            row_n[rows++] = cnt[s];
            cnt[s] = 0;
        }
    }
    for (int64_t i = 0; i < m; i++)
        if (ids[i] >= 0)
            hbs_push(sfirst, slast, scount, pool, nxt, st, ids[i], vs[i]);
    return rows;
}

/* Ascending sort of distinct vertex ids: LSD radix over bytes through
 * tmp (capacity >= f), insertion sort when short. */
static void hbs_sort(int64_t *a, int64_t f, int64_t *tmp)
{
    if (f < 64) {
        for (int64_t i = 1; i < f; i++) {
            int64_t v = a[i], j = i;
            for (; j > 0 && a[j - 1] > v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    int64_t top = 0;
    for (int64_t i = 0; i < f; i++)
        if (a[i] > top)
            top = a[i];
    int64_t *src = a, *dst = tmp;
    for (int shift = 0; shift < 63 && (top >> shift) > 0; shift += 8) {
        int64_t pos[257] = {0};
        for (int64_t i = 0; i < f; i++)
            pos[((src[i] >> shift) & 255) + 1]++;
        for (int d = 1; d < 257; d++)
            pos[d] += pos[d - 1];
        for (int64_t i = 0; i < f; i++)
            dst[pos[(src[i] >> shift) & 255]++] = src[i];
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        for (int64_t i = 0; i < f; i++)
            a[i] = src[i];
}

/* GetNextBucket: skip drained front slots, extract the front one, drop
 * peeled vertices and duplicate copies (first-touch marks, re-zeroed),
 * and either return the live members of a single-key slot whose key
 * equals lo, ascending, or split a range slot into interval_layout(lo,
 * hi) clipped to hi, rescatter its live members by their current keys
 * and go on. */
void hbs_next_round(
    const int64_t *dtilde,
    const uint8_t *peeled,
    int64_t *slo,             /* per slot: interval bounds */
    int64_t *shi,
    int64_t *sfirst,          /* per slot: first and last block */
    int64_t *slast,
    int64_t *scount,          /* per slot: copies held */
    int64_t *scnt,            /* all-zero per-slot counts */
    int64_t slot_cap,
    int64_t *pool,            /* HBS_BLOCK copies per block */
    int64_t *nxt,             /* per block: next block, -1 at the end */
    int64_t *st,              /* [nb, free head, free blocks] */
    int64_t lam,
    int64_t room,
    int64_t *marks,           /* all-zero per vertex, left all-zero */
    int64_t *live,            /* capacity >= n */
    int64_t *out,             /* capacity >= n */
    int64_t *row_tag,
    int64_t *row_n,
    int64_t row_cap,
    int64_t rows,             /* rows already written by this call */
    int64_t *counters)        /* [status, rows, k, frontier, need rows,
                                  need slots, need free blocks] */
{
    int64_t nb = st[0], status = HBS_OK, k = 0, f = 0;
    int64_t rlo[128], rhi[128];
    counters[4] = counters[5] = counters[6] = 0;
    for (;;) {
        while (nb > 0 && scount[nb - 1] == 0)
            nb--;
        if (nb == 0)
            break;
        int64_t s = nb - 1, lo = slo[s], hi = shi[s], t = scount[s];
        int64_t r = 0;
        if (lo != hi) {
            for (int64_t i = 0; i < 8 && lo + i <= hi; i++, r++)
                rlo[r] = rhi[r] = lo + i;
            for (int64_t a = lo + 8, w = 8; a <= hi; w *= 2) {
                rlo[r] = a;
                rhi[r++] = hi - a < w ? hi : a + w - 1;
                if (hi - a < w)
                    break;
                a += w;
            }
        }
        if (rows + 1 + r > row_cap || s + r > slot_cap || st[2] < r) {
            status = HBS_ROOM;
            counters[4] = rows + 1 + r;
            counters[5] = s + r;
            counters[6] = r;
            break;
        }
        row_tag[rows] = 0;
        row_n[rows++] = hbs_prefix(t, lam, room);
        int64_t nl = 0, left = t, b = sfirst[s];
        while (left > 0) {
            int64_t take = left < HBS_BLOCK ? left : HBS_BLOCK;
            const int64_t *blk = pool + b * HBS_BLOCK;
            for (int64_t i = 0; i < take; i++) {
                int64_t v = blk[i];
                if (!peeled[v] && !marks[v]) {
                    marks[v] = 1;
                    live[nl++] = v;
                }
            }
            left -= take;
            if (left > 0)
                b = nxt[b];
        }
        nxt[slast[s]] = st[1];
        st[1] = sfirst[s];
        st[2] += (t + HBS_BLOCK - 1) / HBS_BLOCK;
        scount[s] = 0;
        for (int64_t i = 0; i < nl; i++)
            marks[live[i]] = 0;
        if (nl == 0)
            continue;
        if (lo == hi) {
            for (int64_t i = 0; i < nl; i++)
                if (dtilde[live[i]] == lo)
                    out[f++] = live[i];
            if (f) {
                hbs_sort(out, f, live);
                status = HBS_FOUND;
                k = lo;
                break;
            }
            continue;
        }
        /* Split: slot s + j holds refined interval r - 1 - j. */
        for (int64_t j = 0; j < r; j++) {
            slo[s + j] = rlo[r - 1 - j];
            shi[s + j] = rhi[r - 1 - j];
            scount[s + j] = 0;
        }
        nb = s + r;
        for (int64_t i = 0; i < nl; i++) {
            int64_t id = hbs_find(slo, nb, dtilde[live[i]]);
            if (id < 0) {
                status = HBS_BELOW;
                break;
            }
            out[i] = id;
            scnt[id]++;
        }
        if (status == HBS_BELOW) {
            for (int64_t j = 0; j < nb; j++)
                scnt[j] = 0;
            break;
        }
        rows = hbs_scatter(live, out, nl, nb, scnt, sfirst, slast, scount,
                           pool, nxt, st, row_tag, row_n, rows);
    }
    st[0] = nb;
    counters[0] = status;
    counters[1] = rows;
    counters[2] = k;
    counters[3] = f;
}

/* DecreaseKey (batched) and the bulk load: a copy of each vertex into
 * the slot covering its current key, only where that slot differs from
 * the one covering its old key (every vertex when old_keys is NULL).
 * With charge_move, an hbs_decreasekey row for the moved vertices
 * comes first (none when nothing moved).  A key below the front slot
 * returns HBS_BELOW before anything changes. */
void hbs_decrease(
    const int64_t *dtilde,
    const int64_t *vertices,
    int64_t m,
    const int64_t *old_keys,  /* NULL: insert every vertex */
    int64_t charge_move,
    int64_t *slo,
    int64_t *sfirst,
    int64_t *slast,
    int64_t *scount,
    int64_t *scnt,            /* all-zero per-slot counts */
    int64_t *pool,
    int64_t *nxt,
    int64_t *st,
    int64_t *ids,             /* capacity >= m */
    int64_t *row_tag,
    int64_t *row_n,
    int64_t row_cap,
    int64_t *counters)        /* [status, rows, need rows,
                                  need free blocks] */
{
    int64_t nb = st[0], moved = 0, dests = 0, status = HBS_OK;
    counters[1] = counters[2] = counters[3] = 0;
    if (m == 0 || nb == 0) {
        counters[0] = status;
        return;
    }
    /* A batch's keys cluster: try the previous vertex's slot, and the
     * new key's slot for the old key, before searching. */
    int64_t id = nb - 1;
    for (int64_t i = 0; i < m; i++) {
        int64_t key = dtilde[vertices[i]];
        if (!hbs_covers(slo, id, key))
            id = hbs_find(slo, nb, key);
        if (id < 0) {
            status = HBS_BELOW;
            break;
        }
        if (old_keys) {
            int64_t old = old_keys[i];
            int64_t was = hbs_covers(slo, id, old) ? id
                                                   : hbs_find(slo, nb, old);
            if (was < 0) {
                status = HBS_BELOW;
                break;
            }
            if (was == id) {
                ids[i] = -1;
                continue;
            }
        }
        ids[i] = id;
        dests += scnt[id]++ == 0;
        moved++;
    }
    int64_t rows = charge_move + dests;
    int64_t blocks = moved / HBS_BLOCK + dests + 1;
    if (status == HBS_OK && (rows > row_cap || st[2] < blocks)) {
        status = HBS_ROOM;
        counters[2] = rows;
        counters[3] = blocks;
    }
    if (status != HBS_OK || moved == 0) {
        for (int64_t j = 0; j < nb; j++)
            scnt[j] = 0;
        counters[0] = status;
        return;
    }
    rows = 0;
    if (charge_move) {
        row_tag[rows] = 2;
        row_n[rows++] = moved;
    }
    counters[1] = hbs_scatter(vertices, ids, m, nb, scnt, sfirst, slast,
                              scount, pool, nxt, st, row_tag, row_n, rows);
    counters[0] = status;
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

#: Same cross-check for the insertion-round kernel: its per-row counter
#: outputs mapped to the cost-model fields each is priced with in
#: :func:`repro.perf.kernels.insertion_round_native` (one task per
#: frontier vertex, ``vertex_op + edge_op * degree``).
ROUND_COST_COUNTERS = {
    "nv": "vertex_op",
    "ne": "edge_op",
}


_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")

_lib: ctypes.CDLL | None = None
_available: bool | None = None
_failure: str | None = None  # why the last load failed


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _so_path() -> str:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(_BUILD_DIR, f"_vgc_kernel-{digest}.so")


def _build(rebuild: bool = False) -> str:
    """Compile the kernel (once per source version); return the .so path."""
    registry = active_registry()
    path = _so_path()
    if not rebuild and os.path.exists(path):
        if registry is not None:
            registry.inc("cache.native_so.hit", family=HOST)
        return path
    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler found ($CC, cc, gcc or clang)")
    try:
        os.makedirs(_BUILD_DIR, exist_ok=True)
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
    except (OSError, subprocess.SubprocessError) as exc:
        if registry is not None:
            registry.inc("cache.native_so.build_failed", family=HOST)
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        reason = next((ln for ln in stderr.splitlines() if "error" in ln), exc)
        raise OSError(f"{cc} could not build the kernels: {reason}") from None
    if registry is not None:
        registry.inc("cache.native_so.build", family=HOST)
    return path


def _load() -> ctypes.CDLL | None:
    global _lib, _available, _failure
    if _available is not None:
        return _lib
    try:
        path = _build()
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            # A cached library that does not load (truncated, or built
            # for another host) is rebuilt once.
            try:
                lib = ctypes.CDLL(_build(rebuild=True))
            except OSError as again:
                raise OSError(
                    f"{path} does not load ({exc}); rebuilding it failed: "
                    f"{again}"
                ) from None
        fn = lib.vgc_peel_tasks
        pkc = lib.pkc_chain_drain
        peel = lib.scan_peel
        scan = lib.scan_frontier
        hind = lib.hindex_round
        dirty = lib.mark_dirty
        recount = lib.recount_alive
        round_ = lib.insertion_round
        hbs_next = lib.hbs_next_round
        hbs_dec = lib.hbs_decrease
    except (OSError, AttributeError) as exc:
        _available, _failure = False, str(exc)
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 4 + [
        ctypes.c_void_p
    ] * 10
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
    round_.restype = None
    round_.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 7 + [
        ctypes.c_void_p
    ] * 13
    hbs_next.restype = None
    hbs_next.argtypes = (
        [ctypes.c_void_p] * 8 + [ctypes.c_int64] + [ctypes.c_void_p] * 3
        + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5
        + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    )
    hbs_dec.restype = None
    hbs_dec.argtypes = (
        [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p]
        + [ctypes.c_int64] + [ctypes.c_void_p] * 11 + [ctypes.c_int64]
        + [ctypes.c_void_p]
    )
    _lib = lib
    _available = True
    return _lib


def available() -> bool:
    """Whether the native kernel is usable on this host (builds lazily)."""
    return _load() is not None


def failure() -> str | None:
    """Why the native kernel did not load (None if it did or is untried)."""
    return _failure


def _loaded() -> ctypes.CDLL:
    """The kernel library, which a ``native`` run has already loaded."""
    if _load() is None:
        raise RuntimeError(f"native kernel unavailable: {_failure}")
    return _lib


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
    """``ids`` as contiguous int64, after checking they lie in ``[0, n)``.

    One reduction: read as unsigned, a negative id exceeds every ``n``.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.size and ids.view(np.uint64).max() >= n:
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
           int, np.ndarray, np.ndarray, int, int]:
    """Run every local search of a subround in the compiled kernel.

    Mutates ``dtilde`` / ``peeled`` / ``coreness`` exactly like the
    reference loop and returns ``(enc, next_frontier, nv, ne, ns,
    local_search_hits, survivors, survivor_keys, decrements, top)``
    where ``enc`` is the sampled-encounter stream in task-major order,
    ``nv`` / ``ne`` / ``ns`` are the per-task item / edge / sampled-edge
    counts, ``survivors`` are the decremented vertices that stay in the
    structure (unpeeled, key above ``k``) in first-touch order with
    their keys before the subround, ``decrements`` is the number of
    decrements and ``top`` the most any vertex received.  The kernel
    counts decrements in the scratch count buffer and leaves it
    all-zero.  The flat buffers come from the run's
    :class:`repro.perf.kernels.KernelScratch` arena: the returned
    streams are views valid until the next kernel call on it.  C reads
    the row of every ``frontier`` id, so the ids are checked first, in
    ``O(|frontier|)``.
    """
    lib = _loaded()
    frontier = _check_ids("frontier", frontier, int(graph.n))
    n_tasks = int(frontier.size)
    # Stream capacities: every queue item is expanded at most once and the
    # item sets of distinct tasks are disjoint, so the encounter stream is
    # bounded by the degree sum of all vertices — indices.size.  Denied
    # crossings are bounded by one crossing per vertex per subround.
    counters = np.zeros(6, dtype=np.int64)
    # Buffer *and* pointer reuse: the run-stable arrays go through the
    # scratch pointer cache, so the per-subround call pays two ctypes
    # conversions (frontier, counters) instead of seventeen.
    sp = scratch.ptr
    enc = scratch.enc_buf() if mode is not None else _NO_ENC
    nf = scratch.nf_buf()
    touched = scratch.touched_buf()
    old = scratch.old_buf()
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
        sp(old),
        sp(nv_all),
        sp(ne_all),
        sp(ns_all),
        _ptr(counters),
    )
    ep, fp, ls, sv, dec, top = counters.tolist()
    return (
        enc[:ep] if mode is not None else enc,
        nf[:fp].copy(),
        nv_all[:n_tasks],
        ne_all[:n_tasks],
        ns_all[:n_tasks],
        ls,
        touched[:sv],
        old[:sv],
        dec,
        top,
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
    counters and the first-touch list as a view into ``touched``.  The
    ``frontier`` ids are checked first, in ``O(|frontier|)``.
    """
    lib = _loaded()
    frontier = _check_ids("frontier", frontier, int(graph.n))
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
    into ``touched`` (unsorted).  The ``frontier`` ids are checked
    first, in ``O(|frontier|)``.
    """
    lib = _loaded()
    frontier = _check_ids("frontier", frontier, int(graph.n))
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
    """Pack the unpeeled vertices with ``dtilde <= k`` (ascending).

    C reads ``dtilde`` and ``peeled`` over ``dtilde``'s length and may
    write that many ids to ``out``, so the layouts and ``out``'s
    capacity are checked first, in ``O(1)``.
    """
    lib = _loaded()
    _check_array("dtilde", dtilde, np.int64)
    n = int(dtilde.size)
    _check_array("peeled", peeled, np.bool_, n)
    _check_array("out", out, np.int64)
    if out.size < n:
        raise ValueError(f"out holds {out.size} < {n} vertices")
    counters = np.zeros(1, dtype=np.int64)
    sp = scratch.ptr
    lib.scan_frontier(
        sp(dtilde),
        sp(scratch.u8(peeled)),
        n,
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
    lib = _loaded()
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
    lib = _loaded()
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
    lib = _loaded()
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


def run_insertion_round(
    graph,
    coreness: np.ndarray,
    roots: np.ndarray,
    levels: np.ndarray,
    start: int,
    scratch,
) -> tuple[int, np.ndarray, int, tuple[np.ndarray, ...], np.ndarray]:
    """The levels of one insertion round from ``levels[start]`` in C.

    Each level (subcore BFS, cd init, peel, relabel) starts from the
    ``roots`` still at its level, and raises its survivors in
    ``coreness`` before the next one.  ``scratch`` is the service's
    :class:`repro.perf.kernels.RoundScratch`, reserved for the graph's
    arc count.  Returns ``(next_start, risers, candidates, rows,
    contention)``: the first level not run (``levels.size`` once the
    round is done; the kernel stops before a level the scratch might
    not hold), the survivors of the levels that ran (unsorted, a vertex
    once per level it rose at), their total candidate count, the
    per-row columns ``(tag, nv, ne, dmax, seg)`` in ledger order and the
    concatenated contention segments of the peel rows.  The returned
    arrays are views into ``scratch``, valid until its next call.  C
    indexes ``coreness``, the marks and the per-vertex buffers by
    vertex and writes up to a level's worst case into the row, riser
    and contention buffers, so the ids, the levels, every layout and
    the capacities are checked first, in ``O(|roots| + |levels|)``.
    """
    lib = _loaded()
    n = int(graph.n)
    arcs = int(graph.indices.size)
    roots = _check_ids("roots", roots, n)
    _check_array("levels", levels, np.int64)
    if np.any(levels[1:] <= levels[:-1]):
        raise ValueError("levels must be strictly increasing")
    if not 0 <= start <= levels.size:
        raise IndexError(f"start {start} outside [0, {levels.size}]")
    _check_array("coreness", coreness, np.int64, n)
    _check_array("marks", scratch.marks, np.uint8, n)
    for name in ("cd", "cand", "queue", "touched"):
        _check_array(name, getattr(scratch, name), np.int64, n)
    _check_array("risers", scratch.risers, np.int64)
    rows = scratch.rows
    for column in rows:
        _check_array("rows", column, np.int64, rows[0].size)
    contention = scratch.contention
    _check_array("contention", contention, np.int64)
    for name, size, need in (
        ("rows", rows[0].size, 3 * n),
        ("risers", scratch.risers.size, n),
        ("contention", contention.size, arcs),
    ):
        if size < need:
            raise ValueError(
                f"{name} holds {size} < {need}, one level's worst case"
            )
    counters = np.zeros(5, dtype=np.int64)
    sp = scratch.ptr
    tag, nv, ne, dmax, seg = rows
    lib.insertion_round(
        _ptr(graph.indptr),
        _ptr(graph.indices),
        _ptr(coreness),
        _ptr(roots),
        _ptr(levels),
        int(roots.size),
        int(levels.size),
        int(start),
        n,
        int(tag.size),
        int(scratch.risers.size),
        int(contention.size),
        sp(scratch.marks),
        sp(scratch.cd),
        sp(scratch.cand),
        sp(scratch.queue),
        sp(scratch.touched),
        sp(scratch.risers),
        sp(tag),
        sp(nv),
        sp(ne),
        sp(dmax),
        sp(seg),
        _ptr(contention),
        _ptr(counters),
    )
    done, used, cp, nr, seen = (int(x) for x in counters)
    return (
        done,
        scratch.risers[:nr],
        seen,
        tuple(column[:used] for column in rows),
        contention[:cp],
    )


#: Status codes of the HBS kernels (``HBS_*`` in the embedded source).
HBS_OK, HBS_FOUND, HBS_ROOM, HBS_BELOW = 0, 1, 2, 3


def run_hbs_next_round(
    dtilde: np.ndarray,
    peeled: np.ndarray,
    marks: np.ndarray,
    buckets,
    lam: int,
    room: int,
    rows: int,
    scratch,
) -> tuple[int, int, int, int, tuple[int, int, int]]:
    """One GetNextBucket of the native HBS, in C.

    ``buckets`` is the run's :class:`repro.perf.kernels.BucketScratch`;
    ``lam`` and ``room`` are the hash-bag geometry the extraction rows
    are priced with; ``marks`` is the run's all-zero per-vertex counter
    array, left all-zero; ``rows`` ledger rows are already written (a
    resumed call appends to them).  Returns ``(status, rows, k,
    frontier, need)``: an ``HBS_*`` status, the rows written, the
    round's key and the frontier's length in ``buckets.out`` on
    ``HBS_FOUND``, and, on ``HBS_ROOM``, the row, slot and free-block
    counts the call needs before it can go on (it changed nothing
    since the last row it wrote).  C indexes ``dtilde``, ``peeled`` and
    ``marks`` by vertex and writes up to ``n`` vertices to the
    structure's ``live`` and ``out`` buffers, so those layouts and
    capacities are checked first, in ``O(1)``.
    """
    lib = _loaded()
    _check_array("dtilde", dtilde, np.int64)
    n = int(dtilde.size)
    _check_array("peeled", peeled, np.bool_, n)
    _check_array("marks", marks, np.int64, n)
    for name in ("live", "out"):
        if getattr(buckets, name).size < n:
            raise ValueError(f"{name} holds fewer than {n} vertices")
    slo, shi, sfirst, slast, scount, scnt = buckets.slots
    tag, count = buckets.rows
    counters = np.zeros(7, dtype=np.int64)
    sp = scratch.ptr
    bp = buckets.ptr
    lib.hbs_next_round(
        sp(dtilde),
        sp(scratch.u8(peeled)),
        bp(slo),
        bp(shi),
        bp(sfirst),
        bp(slast),
        bp(scount),
        bp(scnt),
        int(slo.size),
        bp(buckets.pool),
        bp(buckets.nxt),
        bp(buckets.state),
        int(lam),
        int(room),
        sp(marks),
        bp(buckets.live),
        bp(buckets.out),
        bp(tag),
        bp(count),
        int(tag.size),
        int(rows),
        _ptr(counters),
    )
    status, used, k, size, need_rows, need_slots, need_blocks = (
        counters.tolist()
    )
    return status, used, k, size, (need_rows, need_slots, need_blocks)


def run_hbs_decrease(
    dtilde: np.ndarray,
    vertices: np.ndarray,
    old_keys: np.ndarray | None,
    charge_move: bool,
    buckets,
) -> tuple[int, int, tuple[int, int, int]]:
    """A DecreaseKey batch (or the bulk load) of the native HBS, in C.

    Inserts a copy of each vertex into the slot covering its current
    ``dtilde`` key, where that slot differs from the one covering its
    ``old_keys`` entry (every vertex without ``old_keys``), and writes
    the ledger rows from the first one on.  Returns ``(status, rows,
    need)``: an ``HBS_*`` status, the rows written and, on
    ``HBS_ROOM``, the row count and free blocks it needs (0 slots; the
    call changed nothing).  C reads ``dtilde`` at every vertex and one
    old key per vertex, so the ids, the layouts and the lengths are
    checked first, in ``O(|vertices|)``.
    """
    lib = _loaded()
    _check_array("dtilde", dtilde, np.int64)
    vertices = _check_ids("vertices", vertices, int(dtilde.size))
    m = int(vertices.size)
    if old_keys is not None:
        old_keys = np.ascontiguousarray(old_keys, dtype=np.int64)
        if old_keys.shape != (m,):
            raise ValueError(f"old_keys must hold one key per vertex ({m})")
    ids = buckets.ids_buf(m)
    slo, _, sfirst, slast, scount, scnt = buckets.slots
    tag, count = buckets.rows
    counters = np.zeros(4, dtype=np.int64)
    bp = buckets.ptr
    lib.hbs_decrease(
        bp(dtilde),
        _ptr(vertices),
        m,
        _ptr(old_keys),
        int(charge_move),
        bp(slo),
        bp(sfirst),
        bp(slast),
        bp(scount),
        bp(scnt),
        bp(buckets.pool),
        bp(buckets.nxt),
        bp(buckets.state),
        bp(ids),
        bp(tag),
        bp(count),
        int(tag.size),
        _ptr(counters),
    )
    status, used, need_rows, need_blocks = counters.tolist()
    return status, used, (need_rows, 0, need_blocks)
