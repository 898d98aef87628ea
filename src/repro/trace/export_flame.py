"""Collapsed-stack flamegraph exporter.

Folds the step timeline into Brendan-Gregg-style collapsed stacks —
``frame;frame;frame count`` lines — where the frames are the execution
structure (label, round, subround) and the leaf is the ledger tag, and
the count is the step's simulated duration in integer nanoseconds.
Feed the output straight to ``flamegraph.pl`` or an online renderer
(e.g. speedscope) to see where the simulated time goes.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.trace.tracer import timeline

#: Frame used for steps recorded before the first peeling round.
SETUP_FRAME = "setup"


def collapsed_stacks(registry) -> "OrderedDict[str, int]":
    """Aggregated ``stack -> simulated-ns`` mapping, insertion-ordered."""
    tracer = timeline(registry)
    tracer.finish()
    stacks: OrderedDict[str, int] = OrderedDict()
    for step in tracer.steps:
        frames = [registry.label.replace(";", "_")]
        if step.round_index == 0:
            frames.append(SETUP_FRAME)
        else:
            if step.round_k is not None:
                frames.append(f"round_k={step.round_k}")
            else:
                frames.append(f"round_{step.round_index}")
            if step.subround_index:
                frames.append(f"subround_{step.subround_index}")
        frames.append((step.tag or step.kind).replace(";", "_"))
        key = ";".join(frame.replace(" ", "_") for frame in frames)
        stacks[key] = stacks.get(key, 0) + int(round(step.t1 - step.t0))
    return stacks


def render_flamegraph(registry) -> str:
    """The collapsed-stack file contents (one ``stack count`` per line)."""
    return "\n".join(
        f"{stack} {count}"
        for stack, count in collapsed_stacks(registry).items()
    )
