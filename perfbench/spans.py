"""Host clock, host-speed probe, and the traced run's span recorder.

Only the standard library is imported at module level, so ``run.py``
and ``startup.py`` load neither NumPy nor ``repro`` by importing it.

Tracing wraps the program's entry points from outside: each wrapper
records one span (layer name, start, end, parent span, request id) per
call.  The wrappers are installed for a traced pass or replay and
removed afterwards, so untraced calls run the program's own code.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import types
from array import array
from collections import defaultdict

#: Iterations of the host-speed probe loop (3-5 ms on a 2-vCPU KVM
#: guest).
PROBE_ITERATIONS = 50_000

#: Layers whose metrics are reported per engine (``<layer>_s.<engine>``).
PER_ENGINE = (
    "core.driver",
    "structures.bucket",
    "core.sampling",
    "perf.kernel",
    "runtime.ledger",
    "runtime.atomics",
)


def now() -> float:
    """Seconds on the host's monotonic clock."""
    # The benchmark's purpose is timing the host, so this is its one
    # clock read; nothing here feeds the simulated ledger.
    return time.perf_counter()  # lint: disable=R003


def probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes on this host now.

    A slow stretch of the host shows as a high probe; a slow change to
    the program does not move it.
    """
    start = now()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return (now() - start) * 1e3


class Tracer:
    """Spans of wrapped calls, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.requests: list[tuple] = []
        self._layer_ids: dict[str, int] = {}
        self._request_ids: dict[tuple, int] = {}
        self.layer = array("i")
        self.request = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Extra per-request counts (e.g. ledger steps read by time_on).
        self.counts: dict[tuple[str, tuple], int] = defaultdict(int)
        self._stack: list[int] = []
        self._current = -1
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- request ids ---------------------------------------------------
    def begin(self, request: tuple) -> None:
        """Attribute the following spans to ``request``.

        A request is ``(engine, unit, detail)``: for an engine call
        ``(engine, unit, graph)``, for a call into the service
        ``("batch_dynamic", unit, event index)``.
        """
        if request not in self._request_ids:
            self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        self._current = self._request_ids[request]

    def end_request(self) -> None:
        self._current = -1

    # -- spans ---------------------------------------------------------
    def wrap(self, layer: str, fn, count=None):
        """``fn`` recording one ``layer`` span per call.

        ``count(*args)``, when given, is added to the current request's
        ``layer`` count before the call.
        """
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        layer_id = self._layer_ids[layer]

        def traced(*args, **kwargs):
            index = len(self.start)
            self.layer.append(layer_id)
            self.request.append(self._current)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            if count is not None and self._current >= 0:
                key = (layer, self.requests[self._current])
                self.counts[key] += count(*args)
            self._stack.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = now()
                self.start[index] = start
                self._stack.pop()

        return traced

    def patch(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` (module or class) with a traced twin."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if not isinstance(original, types.FunctionType):
            return
        if inspect.isgeneratorfunction(original):
            return
        setattr(owner, attr, self.wrap(layer, original, count))
        self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Put every patched attribute back as it was."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation ---------------------------------------------------
    def self_times(self) -> tuple[dict, dict, dict]:
        """Self time, span count and root time of the attributed spans.

        Returns ``(self_s, calls, root_s)``: the first two keyed by
        ``(layer, request)``, ``root_s`` by request.  A span's self time
        is its duration minus the durations of its child spans, so the
        self times under a root span add up to the root's duration.
        Spans recorded outside any request are left out.
        """
        children = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += self.end[index] - self.start[index]
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        root_s: dict = defaultdict(float)
        for index, request_id in enumerate(self.request):
            if request_id < 0:
                continue
            request = self.requests[request_id]
            duration = self.end[index] - self.start[index]
            key = (self.layers[self.layer[index]], request)
            self_s[key] += duration - children[index]
            calls[key] += 1
            if self.parent[index] < 0:
                root_s[request] += duration
        return self_s, calls, root_s

    def write(self, path: str) -> None:
        """Write every span as one JSON document (columns, not rows)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "layers": self.layers,
            "requests": [list(r) for r in self.requests],
            "columns": ["layer", "request", "parent", "start_s", "end_s"],
            "layer": self.layer.tolist(),
            "request": self.request.tolist(),
            "parent": self.parent.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the program's entry points, layer by layer."""
    from repro.core import (
        approximate,
        batch_dynamic,
        peel_offline,
        peel_online,
        sampling,
        sequential,
    )
    from repro.core.baselines import park, pkc
    from repro.obs.registry import MetricsRegistry
    from repro.perf import kernels
    from repro.runtime.metrics import RunMetrics
    from repro.runtime.simulator import SimRuntime
    from repro.serve import CoreService
    from repro.shard.pool import ShardPool
    from repro.structures.fixed_buckets import FixedBuckets
    from repro.structures.hbs import AdaptiveHBS, HierarchicalBuckets
    from repro.structures.single_bucket import SingleBucket

    # Kernels and batch atomics, at the names the callers imported.
    for module in (
        peel_online, peel_offline, sequential, approximate, park, pkc,
        sampling, batch_dynamic, kernels,
    ):
        for attr, value in sorted(vars(module).items()):
            origin = getattr(value, "__module__", None)
            if origin == "repro.perf.kernels" and module is not kernels:
                tracer.patch(module, attr, "perf.kernel")
            elif origin == "repro.runtime.atomics":
                tracer.patch(module, attr, "runtime.atomics")
    for attr in ("neighbor_stream_vectorized", "neighbor_stream_reference"):
        tracer.patch(batch_dynamic, attr, "core.batch_dynamic.stream")

    def steps(metrics, *_) -> int:
        return len(metrics.steps)

    for attr in _public(SimRuntime):
        layer = "runtime.time_on" if attr == "time_on" else "runtime.ledger"
        tracer.patch(SimRuntime, attr, layer)
    tracer.patch(RunMetrics, "time_on", "runtime.time_on", count=steps)
    for attr in ("record_parallel", "record_sequential",
                 "observe_contention", "merge"):
        tracer.patch(RunMetrics, attr, "runtime.ledger")

    for cls in (HierarchicalBuckets, AdaptiveHBS, FixedBuckets, SingleBucket):
        for attr in _public(cls):
            tracer.patch(cls, attr, "structures.bucket")
    for attr in ("__init__", *_public(sampling.SamplingState)):
        tracer.patch(sampling.SamplingState, attr, "core.sampling")

    for attr in ("__init__", "close"):
        tracer.patch(ShardPool, attr, "shard.spawn")
    for attr in ("round", "reset"):
        tracer.patch(ShardPool, attr, "shard.round")

    tracer.patch(
        batch_dynamic.BatchDynamicKCore, "apply_batch",
        "core.batch_dynamic.apply",
    )
    for attr in _public(MetricsRegistry):
        tracer.patch(MetricsRegistry, attr, "obs.registry")
    tracer.patch(CoreService, "submit_batch", "serve.publish")
    tracer.patch(CoreService, "submit_query", "serve.read")


def _public(cls) -> list[str]:
    """Public method names of ``cls``, its bases' included."""
    return sorted(
        name
        for name in dir(cls)
        if not name.startswith("_")
        and isinstance(inspect.getattr_static(cls, name), types.FunctionType)
    )
