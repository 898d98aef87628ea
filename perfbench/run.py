"""Run one benchmark workload in this process and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 0 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off; with ``--trace 1`` they are the per-layer ones from a traced run.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from spans import Tracer, now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache", "graphs")
#: Scratch directory of the C compiler and anything else that asks for
#: one, so a run writes only inside its checkout.
TMP = os.path.join(HERE, ".cache", "tmp")
SPANS = os.path.join(HERE, ".out")

#: The benchmark's manifest; a run prints exactly the metrics it lists.
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("dense", "sparse")
#: Fresh-process set-ups per run, half before the measured loop and half
#: after it, so they meet more than one of the host's fast and slow
#: stretches; ``setup_s`` is their median.
SETUPS = 6
#: Longest a preparation may take (the first one builds every graph).
PREPARE_TIMEOUT_S = 800
#: Longest one fresh-process set-up may take.
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def declared_metrics(traced: bool) -> set[str]:
    """Names the manifest lists as per-layer (traced) or end-to-end."""
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    kind = "per_layer" if traced else "end_to_end"
    return {metric["name"] for metric in manifest[kind]}


def child(script: str, workload: str, seed: int, timeout: float) -> str:
    """Run a benchmark script in a child process; return its stdout."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, script),
            "--workload", workload, "--seed", str(seed), "--cache", CACHE,
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    return done.stdout


def prepare(workload: str, seed: int) -> float:
    """Fill the graph cache and build the kernels in a child process."""
    start = now()
    sys.stderr.write(child("prepare.py", workload, seed, PREPARE_TIMEOUT_S))
    return now() - start


def time_setups(
    workload: str, seed: int, count: int
) -> list[tuple[float, float]]:
    """Set up ``count`` times, each in a fresh process.

    Returns ``(seconds from process start to ready, graph-load seconds)``
    for each set-up.
    """
    setups = []
    for _ in range(count):
        start = now()
        out = child("startup.py", workload, seed, SETUP_TIMEOUT_S)
        report = json.loads(out.splitlines()[-1])
        ready = report["ready"] - start - report["inputs_s"]
        setups.append((ready, report["load_s"]))
    return setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    prep_s = prepare(args.workload, args.seed)
    setups = time_setups(args.workload, args.seed, SETUPS // 2)

    # This process's own set-up is untimed: it readies the measured loop.
    sys.path.insert(0, SRC)
    import workloads

    run = workloads.Run(args.workload, args.seed, CACHE)
    state = run.setup()
    tracer = Tracer() if args.trace else None
    run.measure(state, args.seconds, tracer)
    setups += time_setups(args.workload, args.seed, SETUPS // 2)
    setup_s = statistics.median(ready for ready, _ in setups)
    if tracer is None:
        run.metric("setup_s", setup_s, "s")
    else:
        run.metric("harness.prep_s", prep_s, "s")
        run.metric(
            "graphs.load_s", statistics.median(load for _, load in setups),
            "s",
        )
        path = os.path.join(
            SPANS, f"spans-{args.workload}-seed{args.seed}.json"
        )
        tracer.write(path)
        print(f"spans: {path} ({len(tracer.start)} spans)")
        for engine, (call, total) in run.attribution.items():
            print(f"attribution {engine}: traced calls {call:.4f} s, "
                  f"layer self times {total:.4f} s")
    print(f"prepare_s {prep_s:.3f}  setup_s {setup_s:.3f} "
          f"(set-ups {[round(ready, 4) for ready, _ in setups]})")
    print(f"measured {run.units} units; untraced samples: "
          f"{run.samples}; probe_ms median "
          f"{statistics.median(run.probes):.3f} over {len(run.probes)}")
    if run.host_s:
        print("host times: " + ", ".join(
            f"{name} {value:.6g}" for name, value in run.host_s.items()
        ))
    for note in run.checks.notes:
        print(f"FAILED: {note}")
    missing = declared.difference(run.figures)
    if missing:
        print(f"the run measured no {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(run.figures.items())
            if name in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
