"""Check that two trace files of the same run differ only in kernel mode.

A replay under ``REPRO_KERNELS=native`` and one under ``reference`` must
trace the same timeline.  Two counter tracks legitimately differ: the
registry's ``kernel.mode.<mode>`` counter, and ``cache.native_so.*``,
which only the native build records.  This script drops those tracks
from both Perfetto trace-event files and compares the rest event by
event.  Run from the repository root:

    python tools/compare_traces.py native.trace.json reference.trace.json

Exits 0 when the remaining events are equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Counter tracks that name the kernel mode or the native build cache.
MODE_TRACKS = ("obs/kernel.mode.", "obs/cache.native_so.")


def events(path: str) -> list[dict]:
    """The trace's events, less the kernel-mode counter tracks."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return [
        event
        for event in doc["traceEvents"]
        if not (
            event.get("ph") == "C"
            and str(event.get("name", "")).startswith(MODE_TRACKS)
        )
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    first, second = events(args.first), events(args.second)
    if first == second:
        print(f"traces agree: {len(first)} events each")
        return 0
    index = next(
        (i for i, (a, b) in enumerate(zip(first, second)) if a != b),
        min(len(first), len(second)),
    )
    print(
        f"traces differ at event {index} "
        f"({len(first)} vs {len(second)} events)",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
