"""Set up one workload in a fresh process and report when it was ready.

``run.py`` starts this script several times, before and after it
measures, and reports the median set-up time as ``setup_s``: from
process start through imports, memory-mapped graph loads, native-kernel
load, and the fixed warm-up of the engines and the service.  The last
line of standard output is one JSON object:

- ``ready``: the host's monotonic clock when set-up ended;
- ``inputs_s``: seconds spent making the benchmark's own inputs, which
  ``setup_s`` leaves out;
- ``load_s``: seconds spent loading the workload's graphs.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/startup.py --workload dense --seed 0 \\
        --cache perfbench/.cache/graphs
"""

from __future__ import annotations

import argparse
import json

from spans import now


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args()
    import workloads

    run = workloads.Run(args.workload, args.seed, args.cache)
    run.setup()
    ready = now()
    print(json.dumps(
        {"ready": ready, "inputs_s": run.inputs_s, "load_s": run.load_s}
    ))


if __name__ == "__main__":
    main()
