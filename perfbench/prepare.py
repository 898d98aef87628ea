"""Fill the benchmark's graph cache and build the native kernels.

Run by ``run.py`` in a child process before anything is timed, so no
sample pays for graph generation or compilation, and the memory the
generators need never shows in the measured process's peak RSS::

    PYTHONPATH=src python3 perfbench/prepare.py --workload dense --seed 0 \
        --cache perfbench/.cache/graphs
"""

from __future__ import annotations

import argparse

import inputs
from repro.perf import native_available


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.GRAPHS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args()
    inputs.prepare(args.cache, args.workload, args.seed)
    if not native_available():
        raise SystemExit("the native kernels could not be built")


if __name__ == "__main__":
    main()
