"""Command-line interface: ``python -m repro.regress <command>``.

Commands:

* ``run``    — execute the pinned matrix and compare against the blessed
  goldens; exit 1 on any drift, unblessed engine, or stale golden;
* ``diff``   — same comparison, always printing the full drift report
  (the command to run when ``run`` fails and you want the details);
* ``bless``  — overwrite the goldens with the current matrix results;
* ``oracle`` — sweep one differential subject (``--subject engines``:
  every engine vs sequential BZ; ``updates``: the batch-dynamic engine
  vs a full recompute after every batch; ``shard``: pooled runs vs the
  inline run) in every kernel mode, shrinking and dumping any finding;
  exit 1 on a finding;
* ``list``   — print the pinned matrix cases.

The ``run`` / ``diff`` / ``bless`` commands cover the pinned
update-sequence goldens (``goldens/updates.json``) alongside the engine
matrix.

Exit status: 0 clean, 1 drift/mismatch, 2 usage or version errors — the
contract CI and ``make regress`` rely on.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.generators.suite import SIZES, SMALL
from repro.regress.compare import diff_run
from repro.regress.goldens import (
    GoldenVersionError,
    goldens_dir,
    list_blessed,
    read_golden,
    write_golden,
)
from repro.perf import kernel_modes
from repro.regress.harness import SHARD_WORKER_COUNTS, SUBJECTS, run_oracle
from repro.regress.matrix import CASES, run_matrix, select_cases
from repro.regress.reporters import DRIFT_REPORTERS
from repro.regress.update_oracle import UPDATE_CASES, run_update_matrix


def _kernel_modes(spec: str) -> list[str]:
    """``--kernels``: the resolved modes, or a usage error."""
    try:
        return kernel_modes(spec)
    except (ValueError, RuntimeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        "oracle", help="sweep one differential subject in every kernel mode"
    )
    oracle.add_argument(
        "--subject",
        choices=sorted(SUBJECTS),
        default="engines",
        help="engines: every engine vs BZ; updates: the batch engine vs "
        "a recompute; shard: pooled runs vs inline (default: engines)",
    )
    oracle.add_argument(
        "--graphs",
        default=None,
        help="comma-separated suite graph names, or SMALL (default: the "
        "full suite; SMALL for updates)",
    )
    oracle.add_argument(
        "--size",
        choices=SIZES,
        default="tiny",
        help="suite tier to sweep (default: tiny)",
    )
    oracle.add_argument(
        "--seeds",
        type=int,
        default=7,
        help="update streams per (graph, profile) (updates; default: 7)",
    )
    oracle.add_argument(
        "--workers",
        default=",".join(map(str, SHARD_WORKER_COUNTS)),
        help="comma-separated pool sizes to prove against the inline run "
        "(shard; default: %(default)s)",
    )
    oracle.add_argument(
        "--kernels",
        type=_kernel_modes,
        default="all",
        help="comma-separated REPRO_KERNELS modes to sweep, or 'all' "
        "(default: reference, + native when available)",
    )
    oracle.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="directory for reproducer dumps",
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
    if args.graphs == "SMALL":
        names = list(SMALL)
    else:
        names = args.graphs.split(",") if args.graphs else None
    report = run_oracle(
        args.subject,
        names,
        size=args.size,
        seeds=args.seeds,
        workers=[int(count) for count in args.workers.split(",")],
        kernels=args.kernels,
        dump_dir=args.dump_dir,
    )
    print(report)
    return 1 if report.findings else 0


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
    "list": cmd_list,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
