"""Command-line interface: ``python -m repro.regress <command>``.

Commands:

* ``run``    — execute the pinned matrix and compare against the blessed
  goldens; exit 1 on any drift, unblessed engine, or stale golden;
* ``diff``   — same comparison, always printing the full drift report
  (the command to run when ``run`` fails and you want the details);
* ``bless``  — overwrite the goldens with the current matrix results;
* ``oracle`` — confront every exact engine with sequential BZ across the
  suite, minimizing and dumping any mismatch; exit 1 on disagreement;
* ``oracle-updates`` — replay randomized update-batch sequences through
  the batch-dynamic engine and compare every committed state against a
  full recompute and the legacy per-edge engine, across kernel modes,
  with ddmin witness minimization; exit 1 on divergence;
* ``list``   — print the pinned matrix cases.

The ``run`` / ``diff`` / ``bless`` commands cover the pinned
update-sequence goldens (``goldens/updates.json``) alongside the engine
matrix.

Exit status: 0 clean, 1 drift/mismatch, 2 usage or version errors — the
contract CI and ``make regress`` rely on.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.generators.streams import PROFILES
from repro.generators.suite import SMALL
from repro.perf import KERNELS_ENV, NATIVE, REFERENCE, native_available
from repro.regress.compare import diff_run
from repro.regress.goldens import (
    GoldenVersionError,
    goldens_dir,
    list_blessed,
    read_golden,
    write_golden,
)
from repro.regress.matrix import CASES, run_matrix, select_cases
from repro.regress.oracle import run_oracle
from repro.regress.reporters import DRIFT_REPORTERS, render_oracle_text
from repro.regress.update_oracle import (
    UPDATE_CASES,
    run_update_matrix,
    run_update_oracle,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-regress",
        description=(
            "Golden-metrics regression gate and cross-engine differential "
            "oracle for the simulated runtime."
        ),
    )
    parser.add_argument(
        "--goldens-dir",
        type=Path,
        default=None,
        help="goldens directory (default: <repo>/goldens or "
        "$REPRO_GOLDENS_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
        ("run", "run the matrix and fail on any unblessed drift"),
        ("diff", "run the matrix and print the full drift report"),
        ("bless", "pin the current matrix results as the goldens"),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument(
            "-k",
            "--filter",
            default=None,
            help="only cases whose id contains this substring",
        )
        if name != "bless":
            cmd.add_argument(
                "--format",
                choices=sorted(DRIFT_REPORTERS),
                default="text",
                help="report format (default: text)",
            )

    oracle = sub.add_parser(
        "oracle", help="cross-check every exact engine against BZ"
    )
    oracle.add_argument(
        "--graphs",
        default=None,
        help="comma-separated suite graph names (default: full suite)",
    )
    oracle_size = oracle.add_mutually_exclusive_group()
    oracle_size.add_argument(
        "--full-size",
        action="store_true",
        help="use the full-size suite graphs instead of the tiny ones",
    )
    oracle_size.add_argument(
        "--large",
        action="store_true",
        help="use the large (~10x full) suite graphs",
    )
    oracle.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="directory for mismatch reproducer dumps",
    )
    oracle.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip ddmin minimization of mismatch witnesses",
    )

    updates = sub.add_parser(
        "oracle-updates",
        help="differential sweep of the batch-dynamic update engine",
    )
    updates.add_argument(
        "--graphs",
        default=None,
        help="comma-separated suite graph names (default: the SMALL set)",
    )
    updates.add_argument(
        "--seeds",
        type=int,
        default=7,
        help="stream seeds per (graph, profile) pair (default: 7)",
    )
    updates.add_argument("--batches", type=int, default=8)
    updates.add_argument("--batch-size", type=int, default=10)
    updates.add_argument(
        "--kernels",
        default="all",
        help="comma-separated REPRO_KERNELS modes to sweep, or 'all' "
        "(default: reference, + native when available)",
    )
    updates.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="directory for sequence-reproducer dumps",
    )
    updates.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip ddmin minimization of failing sequences",
    )
    updates.add_argument(
        "--no-legacy",
        action="store_true",
        help="skip the (slow) per-edge DynamicKCore cross-check",
    )

    shard = sub.add_parser(
        "oracle-shard",
        help="differential worker-count sweep of the shard engine",
    )
    shard.add_argument(
        "--graphs",
        default=None,
        help="comma-separated suite graph names (default: full suite)",
    )
    shard.add_argument(
        "--small",
        action="store_true",
        help="sweep only the SMALL graph set (CI smoke)",
    )
    shard.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts to prove "
        "(default: 1,2,3,4,7)",
    )
    shard.add_argument(
        "--size",
        default="tiny",
        help="suite tier to sweep (default: tiny)",
    )
    shard.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="directory for divergence reproducer dumps",
    )
    shard.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip ddmin minimization of divergence witnesses",
    )

    sub.add_parser("list", help="print the pinned matrix cases")
    return parser


def _compare(args: argparse.Namespace, verbose: bool) -> int:
    directory = args.goldens_dir
    fresh = run_matrix(args.filter)
    fresh.update(run_update_matrix(args.filter))
    try:
        blessed = {
            engine: read_golden(engine, directory) for engine in fresh
        }
    except GoldenVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    known = set(fresh) | {
        engine
        for engine in list_blessed(directory)
        if args.filter is None
    }
    blessed.update(
        {
            engine: read_golden(engine, directory)
            for engine in known
            if engine not in blessed
        }
    )
    report = diff_run(blessed, fresh, filtered=args.filter is not None)
    if verbose or not report.clean:
        print(DRIFT_REPORTERS[args.format](report))
    return 0 if report.clean else 1


def cmd_run(args: argparse.Namespace) -> int:
    return _compare(args, verbose=True)


def cmd_diff(args: argparse.Namespace) -> int:
    return _compare(args, verbose=True)


def cmd_bless(args: argparse.Namespace) -> int:
    directory = args.goldens_dir
    fresh = run_matrix(args.filter)
    fresh.update(run_update_matrix(args.filter))
    for engine, entries in fresh.items():
        if args.filter is not None:
            # Partial bless: merge into the existing golden entries.
            try:
                existing = read_golden(engine, directory) or {}
            except GoldenVersionError:
                existing = {}
            existing.update(entries)
            entries = existing
        path = write_golden(engine, entries, directory)
        print(f"blessed {len(entries)} entries -> {path}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    names = args.graphs.split(",") if args.graphs else None
    size = "large" if args.large else ("full" if args.full_size else "tiny")
    findings = run_oracle(
        graph_names=names,
        size=size,
        minimize=not args.no_minimize,
        dump_dir=args.dump_dir,
    )
    print(render_oracle_text(findings))
    return 1 if findings else 0


def cmd_oracle_updates(args: argparse.Namespace) -> int:
    names = args.graphs.split(",") if args.graphs else None
    if args.kernels == "all":
        kernels = [REFERENCE] + ([NATIVE] if native_available() else [])
    else:
        kernels = args.kernels.split(",")
    findings = []
    previous = os.environ.get(KERNELS_ENV)
    try:
        for kernels_mode in kernels:
            os.environ[KERNELS_ENV] = kernels_mode
            found = run_update_oracle(
                graph_names=names,
                seeds=range(args.seeds),
                batches=args.batches,
                batch_size=args.batch_size,
                check_legacy=not args.no_legacy,
                minimize=not args.no_minimize,
                dump_dir=args.dump_dir,
            )
            for finding in found:
                print(f"[{kernels_mode}] {finding}")
            findings.extend(found)
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous
    if findings:
        print(f"{len(findings)} update-oracle divergences")
        return 1
    graphs = names if names is not None else list(SMALL)
    sequences = len(graphs) * len(PROFILES) * args.seeds
    print(
        f"OK: batch engine bit-equal to recompute"
        + ("" if args.no_legacy else " and per-edge DynamicKCore")
        + f" across {sequences} sequences x {len(kernels)} kernel modes"
    )
    return 0


def cmd_oracle_shard(args: argparse.Namespace) -> int:
    from repro.generators.suite import SUITE
    from repro.regress.shard_oracle import (
        SHARD_WORKER_COUNTS,
        run_shard_oracle,
    )

    if args.graphs:
        names = args.graphs.split(",")
    elif args.small:
        names = list(SMALL)
    else:
        names = None
    worker_counts = (
        tuple(int(w) for w in args.workers.split(","))
        if args.workers
        else SHARD_WORKER_COUNTS
    )
    findings = run_shard_oracle(
        graph_names=names,
        size=args.size,
        worker_counts=worker_counts,
        minimize=not args.no_minimize,
        dump_dir=args.dump_dir,
    )
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} shard-oracle divergences")
        return 1
    swept = len(names) if names is not None else len(SUITE)
    counts = ",".join(str(w) for w in worker_counts)
    print(
        f"OK: shard bit-equal coreness and ledger vs the single-process "
        f"oracle across {swept} graphs x workers {{{counts}}}"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    for case in select_cases(None):
        print(case.case_id)
    for update_case in UPDATE_CASES:
        print(update_case.case_id)
    print(
        f"{len(CASES)} matrix cases + {len(UPDATE_CASES)} update "
        f"sequences; goldens dir: {goldens_dir()}"
    )
    return 0


COMMANDS = {
    "run": cmd_run,
    "diff": cmd_diff,
    "bless": cmd_bless,
    "oracle": cmd_oracle,
    "oracle-updates": cmd_oracle_updates,
    "oracle-shard": cmd_oracle_shard,
    "list": cmd_list,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
