"""The persistent shard worker pool over a shared mmap graph.

Each worker is a long-lived process connected to the coordinator by one
duplex pipe.  Workers do **not** receive the graph — they receive its
path and open the uncompressed ``.npz`` with a *strict* memory-mapped
load (:func:`repro.graphs.io.load_npz` with ``strict=True``), so all
workers share the file's page cache instead of holding pickled copies,
and a corrupt or unaligned cache file fails loudly inside the worker
and surfaces as a :class:`ShardWorkerError` in the coordinator — never
a hang, never a silently-copying fallback.

Protocol (one request/reply pair per round, per worker):

* coordinator -> worker: ``("round", ext_ids, ext_vals)`` — the packed
  ``(vertex, new_estimate)`` pairs from the *previous* round that
  changed in **other** shards, pre-filtered to the boundary slice this
  shard actually reads (its read mask, computed once at startup);
* worker -> coordinator: ``("ok", ids, vals, active, wall_s)`` — the
  packed pairs that changed in this shard this round, the active set it
  just processed, and the measured per-round worker wall.

Replies are collected in fixed worker order (the canonical merge —
lint rule R009's subject): because shards own ascending contiguous
ranges, concatenating per-worker arrays in worker order yields globally
ascending vertex order, identical to the single-process schedule.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import traceback

import numpy as np

from repro.bench.wallclock import measure
from repro.graphs.io import load_npz
from repro.shard.partition import ShardPlan
from repro.shard.rounds import RoundKernels

_EMPTY = np.zeros(0, dtype=np.int64)

#: Seconds to wait for a worker to acknowledge ``stop`` before killing it.
_JOIN_TIMEOUT_S = 10.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed; raised in the coordinator, never hung."""


def graph_digest(path) -> str:
    """SHA-256 over the strictly-mapped CSR bytes (debug/test utility)."""
    graph = load_npz(path, mmap=True, strict=True)
    digest = hashlib.sha256()
    digest.update(np.asarray(graph.indptr).tobytes())
    digest.update(np.asarray(graph.indices).tobytes())
    return digest.hexdigest()


def _digest_main(conn, path) -> None:
    """Child entry point for the mmap-sharing tests."""
    try:
        conn.send(("ok", graph_digest(path)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _read_mask(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Out-of-range vertices whose estimates rounds over ``[lo, hi)`` read."""
    mask = np.zeros(int(indptr.size) - 1, dtype=bool)
    row = indices[indptr[lo] : indptr[hi]]
    mask[np.asarray(row)] = True
    mask[lo:hi] = False
    return mask


def _worker_main(conn, graph_path: str, lo: int, hi: int, mode: str) -> None:
    """One shard worker: strict-mmap the graph, then serve rounds forever.

    Every failure — open, map, or compute — is reported over the pipe as
    ``("error", traceback)`` before exiting, so the coordinator always
    gets a reply (or an EOF) instead of a hang.
    """
    try:
        graph = load_npz(graph_path, mmap=True, strict=True)
        kernels = RoundKernels(
            graph.indptr, graph.indices, lo=lo, hi=hi, mode=mode
        )
        mask = _read_mask(graph.indptr, graph.indices, lo, hi)
        conn.send(("ready", np.packbits(mask)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "reset":
            # Start a fresh decomposition on the same mapped graph.
            kernels.reset()
            continue
        if message[0] != "round":
            conn.close()
            return
        try:
            _, ext_ids, ext_vals = message
            with measure() as wall:
                ids, vals, active = kernels.step(ext_ids, ext_vals)
            conn.send(("ok", ids, vals, active, wall.wall_s))
        except BaseException:
            conn.send(("error", traceback.format_exc()))
            conn.close()
            return


class ShardPool:
    """A persistent pool of shard workers sharing one mmap graph.

    Spawning, the ready handshake and the read-mask exchange happen in
    ``__init__`` — outside any timed region, like the bench runner's
    pool.  Each worker steps its own range with
    :meth:`repro.shard.rounds.RoundKernels.step`, one :meth:`round` at a
    time.  The pool is reusable across runs on the same graph:
    :meth:`reset` rewinds it for the next decomposition.
    """

    def __init__(
        self,
        graph_path: str,
        plan: ShardPlan,
        mode: str,
        context: str | None = None,
    ):
        self.plan = plan
        self.graph_path = graph_path
        ctx = mp.get_context(context)
        self._procs: list = []
        self._conns: list = []
        try:
            for shard in range(plan.shards):
                lo, hi = plan.range_of(shard)
                parent_end, child_end = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_end, graph_path, lo, hi, mode),
                    name=f"shard-worker-{shard}",
                )
                proc.start()
                child_end.close()
                self._procs.append(proc)
                self._conns.append(parent_end)
            self.read_masks = []
            n = plan.bounds[-1]
            for shard in range(plan.shards):
                reply = self._recv(shard)
                packed = reply[1]
                self.read_masks.append(
                    np.unpackbits(packed, count=n).astype(bool)
                )
        except BaseException:
            self.close()
            raise

    @property
    def shards(self) -> int:
        return self.plan.shards

    def _recv(self, shard: int):
        try:
            reply = self._conns[shard].recv()
        except (EOFError, OSError):
            self.close()
            raise ShardWorkerError(
                f"shard worker {shard} died without a reply"
            ) from None
        if reply[0] == "error":
            detail = reply[1]
            self.close()
            raise ShardWorkerError(
                f"shard worker {shard} failed:\n{detail}"
            )
        return reply

    def reset(self) -> None:
        """Rewind every worker to the degree estimates (a fresh run).

        Fire-and-forget: the pipe preserves ordering, so the reset is
        applied before the next ``round`` request is read.
        """
        for conn in self._conns:
            conn.send(("reset",))

    def round(
        self, changed_ids: np.ndarray, changed_vals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, int]:
        """Broadcast the previous round's deltas; run one round everywhere.

        Returns ``(ids, vals, active, walls, bytes_shipped)``: the
        merged changed pairs and active set of this round (worker order
        == ascending vertex order), per-worker round walls, and the
        payload bytes crossing the pipes this round.
        """
        shipped = 0
        for shard, conn in enumerate(self._conns):
            if changed_ids.size:
                keep = self.read_masks[shard][changed_ids]
                ext_ids = np.ascontiguousarray(changed_ids[keep])
                ext_vals = np.ascontiguousarray(changed_vals[keep])
            else:
                ext_ids, ext_vals = _EMPTY, _EMPTY
            shipped += ext_ids.nbytes + ext_vals.nbytes
            try:
                conn.send(("round", ext_ids, ext_vals))
            except (BrokenPipeError, OSError):
                self.close()
                raise ShardWorkerError(
                    f"shard worker {shard} died before the round request"
                ) from None
        ids_parts, vals_parts, active_parts, walls = [], [], [], []
        # Fixed worker order: the canonical merge (ranges are ascending
        # and contiguous, so this is globally ascending vertex order).
        for shard in range(len(self._conns)):
            _, ids, vals, active, wall_s = self._recv(shard)
            shipped += ids.nbytes + vals.nbytes + active.nbytes
            ids_parts.append(ids)
            vals_parts.append(vals)
            active_parts.append(active)
            walls.append(float(wall_s))
        return (
            np.concatenate(ids_parts),
            np.concatenate(vals_parts),
            np.concatenate(active_parts),
            walls,
            shipped,
        )

    def close(self) -> None:
        """Stop every worker; safe to call twice and mid-failure."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT_S)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._procs = []
        self._conns = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
