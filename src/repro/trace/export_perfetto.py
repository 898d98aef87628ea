"""Chrome/Perfetto trace-event JSON exporter.

Produces the legacy Chrome trace-event format (the JSON flavour
ui.perfetto.dev and ``chrome://tracing`` both load): a ``traceEvents``
list of complete spans (``ph: "X"``), instants (``ph: "i"``) and counter
samples (``ph: "C"``), plus process/thread metadata (``ph: "M"``).

Track layout:

* pid 1 — the simulated core group (one work-stealing pool).  Rounds,
  subrounds and individual ledger steps live on three stacked threads so
  the nesting reads top-down; ``frontier`` and ``contention`` are
  counter tracks.
* pid 2 — the host: wall-clock spans injected by the benchmark runner
  (a different clock domain, deliberately a separate process track).

Timestamps: the simulated clock counts ops == nanoseconds; trace-event
``ts``/``dur`` are microseconds, so values are divided by 1000 (floats
are legal and keep the export bit-deterministic).

Every exporter takes the observing :class:`repro.obs.MetricsRegistry`
and renders its tracer facet.  The registry's epoch marks become
``obs/<metric>`` counter tracks on the simulated timeline, plus one
final sample of every scalar ``sim`` metric at the trace end — metrics
and spans then correlate on one clock.  The counter tracks are purely
additive: the other events are those of the tracer alone.
"""

from __future__ import annotations

import json

from repro.trace.tracer import TRACE_SCHEMA_VERSION, timeline

#: Process id of the simulated core-group tracks.
SIM_PID = 1
#: Process id of the host wall-clock tracks.
HOST_PID = 2

#: Thread ids inside the simulated process.
TID_ROUNDS = 1
TID_SUBROUNDS = 2
TID_STEPS = 3

_NS_PER_US = 1000.0


def _meta(pid: int, tid: int | None, key: str, name: str) -> dict:
    event: dict = {
        "name": key,
        "ph": "M",
        "pid": pid,
        "ts": 0,
        "args": {"name": name},
    }
    event["tid"] = 0 if tid is None else tid
    return event


def _registry_counter_events(registry, end_ts: float) -> list[dict]:
    """``obs/*`` counter samples from a registry's marks + final state."""
    events: list[dict] = []

    def sample(ts: float, values: dict[str, float]) -> None:
        for name in sorted(values):
            events.append(
                {
                    "name": f"obs/{name}",
                    "cat": "counter",
                    "ph": "C",
                    "ts": ts / _NS_PER_US,
                    "pid": SIM_PID,
                    "tid": 0,
                    "args": {"value": values[name]},
                }
            )

    for mark in registry.marks:
        sample(mark.ts, mark.values)
    snapshot = registry.to_snapshot()
    final = {
        name: metric["value"]
        for kind in ("counters", "gauges")
        for name, metric in snapshot["families"]["sim"][kind].items()
    }
    if final:
        last_ts = registry.marks[-1].ts if registry.marks else 0.0
        sample(max(float(end_ts), last_ts), final)
    return events


def to_perfetto(registry) -> dict:
    """The full trace as a Chrome/Perfetto trace-event JSON object."""
    tracer = timeline(registry)
    tracer.finish()
    events: list[dict] = [
        _meta(SIM_PID, None, "process_name",
              f"simulated @{tracer.threads} threads: {registry.label}"),
        _meta(SIM_PID, TID_ROUNDS, "thread_name", "rounds"),
        _meta(SIM_PID, TID_SUBROUNDS, "thread_name", "subrounds"),
        _meta(SIM_PID, TID_STEPS, "thread_name", "steps"),
    ]
    host_tids: dict[str, int] = {}
    if tracer.host_spans:
        # Track "bench" is always tid 1; further tracks (the shard
        # engine's per-worker wall tracks) get tids in first-appearance
        # order, so the single-track layout is byte-identical to before.
        host_tids["bench"] = 1
        for host in tracer.host_spans:
            if host.track not in host_tids:
                host_tids[host.track] = len(host_tids) + 1
        events.append(_meta(HOST_PID, None, "process_name",
                            "host wall-clock"))
        for track, tid in host_tids.items():
            events.append(_meta(HOST_PID, tid, "thread_name", track))

    for span in tracer.spans:
        tid = TID_ROUNDS if span.kind == "round" else TID_SUBROUNDS
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.t0 / _NS_PER_US,
                "dur": (span.t1 - span.t0) / _NS_PER_US,
                "pid": SIM_PID,
                "tid": tid,
                "args": span.args,
            }
        )

    for step in tracer.steps:
        args: dict = {
            "kind": step.kind,
            "work": step.work,
            "span": step.span,
            "barriers": step.barriers,
            "round": step.round_index,
            "subround": step.subround_index,
        }
        if step.atomics:
            args["atomics"] = step.atomics
            args["max_contention"] = step.max_contention
        events.append(
            {
                "name": step.tag or step.kind,
                "cat": "step",
                "ph": "X",
                "ts": step.t0 / _NS_PER_US,
                "dur": (step.t1 - step.t0) / _NS_PER_US,
                "pid": SIM_PID,
                "tid": TID_STEPS,
                "args": args,
            }
        )

    for inst in tracer.instants:
        events.append(
            {
                "name": inst.name,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": inst.ts / _NS_PER_US,
                "pid": SIM_PID,
                "tid": TID_STEPS,
                "args": inst.args,
            }
        )

    for sample in tracer.counters:
        events.append(
            {
                "name": sample.name,
                "cat": "counter",
                "ph": "C",
                "ts": sample.ts / _NS_PER_US,
                "pid": SIM_PID,
                "tid": 0,
                "args": {"value": sample.value},
            }
        )

    events.extend(_registry_counter_events(registry, tracer.clock))

    host_cursor: dict[str, float] = {}
    for host in tracer.host_spans:
        dur_us = host.wall_s * 1e6
        ts = (
            host.start_s * 1e6
            if host.start_s is not None
            else host_cursor.get(host.track, 0.0)
        )
        events.append(
            {
                "name": host.name,
                "cat": "host",
                "ph": "X",
                "ts": ts,
                "dur": dur_us,
                "pid": HOST_PID,
                "tid": host_tids[host.track],
                "args": dict(host.args, wall_s=host.wall_s),
            }
        )
        host_cursor[host.track] = ts + dur_us

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "label": registry.label,
            "threads": tracer.threads,
            "attempts": tracer.attempts,
            "clock_domain": "simulated ops (=ns); ts/dur in us",
            "simulated_ns": tracer.clock,
            "rounds": len(tracer.rounds),
            "model_signature": (
                tracer.model.signature() if tracer.model is not None else {}
            ),
        },
    }


def render_perfetto(registry) -> str:
    """The Perfetto JSON serialized with a stable key order."""
    return json.dumps(to_perfetto(registry), indent=1, sort_keys=True)


def write_trace(registry, path: str) -> str:
    """Write the Perfetto JSON to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_perfetto(registry))
        handle.write("\n")
    return path
