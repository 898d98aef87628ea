"""One differential harness for the engines, the update engine and shard.

Every check this repo keeps has the same shape: run a subject and a
reference on a case, compare, and shrink a failing case to a witness.
A :class:`Subject` names the three parts that differ —

* ``engines`` — every engine but BZ against sequential
  Batagelj–Zaversnik on the suite graphs: exact engines must match
  vertex for vertex, ``approx`` must honour its (1 + eps) bound;
* ``updates`` — :class:`~repro.core.batch_dynamic.BatchDynamicKCore`
  against a full recompute of its committed graph after every batch of
  a seeded update stream (the reference of 2401.08015);
* ``shard`` — a pooled :func:`~repro.shard.shard_coreness` run against
  the inline run, bit for bit (coreness *and* simulated ledger), at
  every worker count; worker count 0 checks the inline run against BZ;

— its case source, its subject-vs-reference comparison, and the part of
a case that shrinks (the graph's vertex set, or the update list).  The
rest is shared: :func:`run_oracle` sweeps a subject's cases once per
kernel mode, a run that raises is a finding of kind ``raised`` (the
sweep goes on), :func:`ddmin` (Zeller & Hildebrandt 2002) shrinks each
finding while the same failure persists, and one JSON reproducer format
records it for :func:`replay`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.analysis.export import dump_json, load_json
from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.sequential import bz_core
from repro.core.verify import reference_coreness
from repro.generators import suite
from repro.generators.streams import PROFILES, UpdateBatch, generate_stream
from repro.graphs.csr import CSRGraph
from repro.graphs.transform import all_edges
from repro.perf import kernel_mode, kernels_env
from repro.regress.matrix import APPROX_EPS, ENGINES
from repro.runtime.cost_model import DEFAULT_COST_MODEL

#: The engines subject's roster: every engine but BZ, the reference.
ORACLE_ENGINES = {
    name: runner for name, runner in ENGINES.items() if name != "bz"
}

#: Engines whose output must equal BZ exactly (``approx`` is held to
#: its (1 + eps) bound instead).
EXACT_ENGINES = {
    name: runner
    for name, runner in ORACLE_ENGINES.items()
    if name != "approx"
}

#: Worker counts the shard subject proves bit-equal to the inline run
#: (an exact power of two, odd counts, more workers than balance uses).
SHARD_WORKER_COUNTS: tuple[int, ...] = (1, 2, 3, 4, 7)

#: The updates subject's streams: batches x updates per batch.
UPDATE_BATCHES = 8
UPDATE_BATCH_SIZE = 10

#: Default cap on ddmin predicate evaluations; shrinking is best-effort
#: and keeps the smallest failing input found when the budget runs out.
DEFAULT_BUDGET = 400

#: One update = (batch_index, kind, u, v) — the flat, order-preserving
#: form ddmin shrinks; kind is ``ins`` or ``del``.
FlatUpdate = tuple[int, str, int, int]


@dataclass(frozen=True)
class Case:
    """One input of one subject: a graph and the runner it confronts."""

    subject: str
    label: str  # the suite graph, plus ``/<profile>-s<seed>`` for updates
    runner: str  # key into the subject's runner roster
    graph: CSRGraph
    updates: tuple[FlatUpdate, ...] = ()  # the stream (updates only)
    workers: int | None = None  # the pool size (shard only; 0 == inline)


@dataclass
class Divergence:
    """How a run differs from its reference on one case.

    ``kind`` is ``coreness`` (unequal arrays), ``bound`` (estimates
    outside the (1 + eps) bound), ``ledger`` (equal coreness, unequal
    simulated ledgers) or ``raised`` (the run raised: ``got`` is the
    exception type, ``detail`` carries its message).  ``expected`` and
    ``got`` are the divergent pair, JSON-ready; ``step`` is the batch
    after which an update stream diverged.
    """

    kind: str
    detail: str
    expected: object = None
    got: object = None
    step: int | None = None

    def same_failure(self, other: Divergence | None) -> bool:
        """Whether ``other`` is this failure again (ddmin's predicate)."""
        return (
            other is not None
            and other.kind == self.kind
            and (self.kind != "raised" or other.got == self.got)
        )


@dataclass
class Finding:
    """One case on which a subject diverged from its reference."""

    case: Case
    kernels: str  # the REPRO_KERNELS mode it diverged under
    divergence: Divergence
    witness: Case  # the ddmin-shrunk case
    reproducer_path: Path | None = None

    def __str__(self) -> str:
        case, divergence = self.case, self.divergence
        runner = case.runner
        if case.workers is not None:
            runner += f" workers={case.workers}"
        step = "" if divergence.step is None else (
            f" after batch {divergence.step}"
        )
        line = (
            f"[{self.kernels}] {case.subject}: {runner} on {case.label}: "
            f"{divergence.kind}{step}: {divergence.detail}"
        )
        line += f"; witness {_size(self.witness)}"
        if self.reproducer_path is not None:
            line += f" at {self.reproducer_path}"
        return line


@dataclass(frozen=True)
class Subject:
    """One differential check: what runs, against what, on which cases."""

    claim: str  # what a clean sweep shows
    runners: Mapping[str, Callable]  # the default roster
    default_graphs: tuple[str, ...]
    #: ``(corpus, roster, seeds, workers) -> cases``
    cases: Callable[..., list[Case]]
    #: ``(runner, case) -> Divergence | None``
    compare: Callable[[Callable, Case], Divergence | None]
    shrink: str  # the Case part ddmin shrinks: "graph" or "updates"


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def check_approximate(
    graph: CSRGraph,
    eps: float,
    estimate: np.ndarray,
    exact: np.ndarray | None = None,
) -> np.ndarray:
    """Vertices violating the (1 + eps) guarantee (empty == all hold).

    The contract (see :mod:`repro.core.approximate`): estimates vanish
    exactly on coreness-0 vertices, and elsewhere
    ``kappa(v) <= estimate(v) < (1 + eps) * kappa(v)``.
    """
    if exact is None:
        exact = bz_core(graph).coreness
    estimate = np.asarray(estimate)
    ok = np.where(
        exact == 0,
        estimate == 0,
        (estimate >= exact) & (estimate < (1.0 + eps) * exact + 1e-9),
    )
    return np.nonzero(~ok)[0]


def _mismatch(
    expected: np.ndarray, got: np.ndarray, reference: str
) -> Divergence | None:
    bad = np.nonzero(expected != got)[0]
    if bad.size == 0:
        return None
    return Divergence(
        "coreness",
        f"{bad.size} vertices disagree with {reference} "
        f"(first: {bad[:10].tolist()})",
        expected.tolist(),
        got.tolist(),
    )


def _compare_engine(run: Callable, case: Case) -> Divergence | None:
    expected = bz_core(case.graph).coreness
    got = np.asarray(run(case.graph, DEFAULT_COST_MODEL).coreness)
    if case.runner != "approx":
        return _mismatch(expected, got, "BZ")
    bad = check_approximate(case.graph, APPROX_EPS, got, exact=expected)
    if bad.size == 0:
        return None
    return Divergence(
        "bound",
        f"{bad.size} estimates outside [kappa, (1+{APPROX_EPS:g})kappa) "
        f"(first: {bad[:10].tolist()})",
        expected.tolist(),
        got.tolist(),
    )


def _group_updates(
    flat: Iterable[FlatUpdate],
) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """Flat updates back to ordered ``(insertions, deletions)`` batches."""
    grouped: dict[int, tuple[list, list]] = {}
    for index, kind, u, v in flat:
        batch = grouped.setdefault(index, ([], []))
        batch[0 if kind == "ins" else 1].append((u, v))
    return [grouped[index] for index in sorted(grouped)]


def _compare_updates(
    make_engine: Callable[[CSRGraph], BatchDynamicKCore], case: Case
) -> Divergence | None:
    engine = make_engine(case.graph)
    for step, (insertions, deletions) in enumerate(
        _group_updates(case.updates)
    ):
        engine.apply_batch(insertions=insertions, deletions=deletions)
        expected = reference_coreness(engine.snapshot())
        divergence = _mismatch(expected, engine.coreness, "a recompute")
        if divergence is not None:
            divergence.step = step
            return divergence
    return None


def _shard_run(graph: CSRGraph, model, workers: int):
    # Late import: the pool plumbing is only needed by this subject.
    from repro.shard import shard_coreness

    return shard_coreness(graph, model, workers=workers)


def _ledger_diff(base: dict, got: dict) -> str:
    """The first differing ledger entry, for the finding's detail line."""
    for key in base:
        if base[key] != got.get(key):
            return f"{key}: inline={base[key]!r} pooled={got.get(key)!r}"
    return f"extra ledger keys {sorted(set(got) - set(base))}"


@lru_cache(maxsize=1)
def _inline_reference(graph: CSRGraph, mode: str):
    """The inline run of ``graph`` in kernel ``mode`` (the cache key).

    Shard cases come grouped by graph, so the one entry serves every
    worker count; a ddmin-shrunk graph is a new object and runs anew.
    """
    return _shard_run(graph, DEFAULT_COST_MODEL, workers=0)


def _compare_shard(run: Callable, case: Case) -> Divergence | None:
    got = run(case.graph, DEFAULT_COST_MODEL, workers=case.workers)
    if case.workers == 0:
        return _mismatch(bz_core(case.graph).coreness, got.coreness, "BZ")
    inline = _inline_reference(case.graph, kernel_mode())
    divergence = _mismatch(inline.coreness, got.coreness, "inline")
    if divergence is not None:
        return divergence
    base = inline.metrics.to_stable_dict(DEFAULT_COST_MODEL)
    pooled = got.metrics.to_stable_dict(DEFAULT_COST_MODEL)
    if base == pooled:
        return None
    return Divergence("ledger", _ledger_diff(base, pooled), base, pooled)


def check(case: Case, run: Callable) -> Divergence | None:
    """Compare one case's run with its reference; a raise is a finding."""
    try:
        return SUBJECTS[case.subject].compare(run, case)
    except Exception as exc:  # every failure of the run is a finding
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Divergence(
            "raised",
            f"{type(exc).__name__}: {exc} "
            f"(raised at {Path(where.filename).name}:{where.lineno})",
            got=type(exc).__name__,
        )


# ----------------------------------------------------------------------
# Case sources
# ----------------------------------------------------------------------
def _engine_cases(corpus, runners, seeds, workers) -> list[Case]:
    return [
        Case("engines", name, runner, graph)
        for name, graph in corpus.items()
        for runner in runners
    ]


def _shard_cases(corpus, runners, seeds, workers) -> list[Case]:
    return [
        Case("shard", name, runner, graph, workers=count)
        for name, graph in corpus.items()
        for runner in runners
        for count in (0, *workers)
    ]


def update_cases(
    corpus: Mapping[str, CSRGraph],
    runners: Iterable[str] = ("batch",),
    seeds: Iterable[int] = range(7),
    workers=(),
    profiles: Iterable[str] = PROFILES,
    batches: int = UPDATE_BATCHES,
    batch_size: int = UPDATE_BATCH_SIZE,
) -> list[Case]:
    """One seeded update stream per (graph, profile, seed) and runner.

    ``workers`` is unused: every subject's case source takes it.
    """
    cases = []
    for name, graph in corpus.items():
        for profile in profiles:
            for seed in seeds:
                events = generate_stream(
                    graph,
                    profile,
                    batches=batches,
                    batch_size=batch_size,
                    queries_per_batch=0,
                    seed=seed,
                )
                flat: list[FlatUpdate] = []
                stream = (e for e in events if isinstance(e, UpdateBatch))
                for index, batch in enumerate(stream):
                    flat += [(index, "del", int(u), int(v))
                             for u, v in batch.deletions]
                    flat += [(index, "ins", int(u), int(v))
                             for u, v in batch.insertions]
                cases.extend(
                    Case(
                        "updates", f"{name}/{profile}-s{seed}", runner,
                        graph, updates=tuple(flat),
                    )
                    for runner in runners
                )
    return cases


SUBJECTS: dict[str, Subject] = {
    "engines": Subject(
        claim="every engine agrees with BZ, approx within its bound",
        runners=ORACLE_ENGINES,
        default_graphs=tuple(suite.SUITE),
        cases=_engine_cases,
        compare=_compare_engine,
        shrink="graph",
    ),
    "updates": Subject(
        claim="the batch engine equals a recompute after every batch",
        runners={"batch": BatchDynamicKCore},
        default_graphs=suite.SMALL,
        cases=update_cases,
        compare=_compare_updates,
        shrink="updates",
    ),
    "shard": Subject(
        claim="pooled runs are bit-equal to inline, inline to BZ",
        runners={"shard": _shard_run},
        default_graphs=tuple(suite.SUITE),
        cases=_shard_cases,
        compare=_compare_shard,
        shrink="graph",
    ),
}


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def ddmin(
    items: list,
    failing: Callable[[list], bool],
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Smallest order-preserving sublist of ``items`` that still fails.

    Delta debugging: try dropping each of ``chunks`` slices, keep the
    first complement that still fails and coarsen, otherwise refine,
    until no single item can go (1-minimal) or ``budget`` predicate
    calls are spent.  ``failing`` must be deterministic and hold for
    ``items`` itself.
    """
    if not failing(items):
        raise ValueError("ddmin needs an initially failing input")
    current = list(items)
    chunks = 2
    spent = 1
    while len(current) > 1 and spent < budget:
        bounds = np.linspace(0, len(current), chunks + 1, dtype=np.int64)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            candidate = current[:lo] + current[hi:]
            if lo == hi or not candidate:
                continue
            spent += 1
            if failing(candidate):
                current = candidate
                chunks = max(chunks - 1, 2)
                break
            if spent >= budget:
                break
        else:
            if chunks >= len(current):
                break  # 1-minimal at single-item granularity
            chunks = min(len(current), chunks * 2)
    return current


def _rebuild(case: Case, kept: list) -> Case:
    if SUBJECTS[case.subject].shrink == "updates":
        return replace(case, updates=tuple(kept))
    graph = case.graph.induced_subgraph(np.asarray(kept, dtype=np.int64))
    graph.name = f"{case.graph.name or 'graph'}/reproducer"
    return replace(case, graph=graph)


def _size(case: Case) -> str:
    if SUBJECTS[case.subject].shrink == "updates":
        return f"{len(case.updates)} updates"
    return f"n={case.graph.n}"


def shrink(
    case: Case,
    run: Callable,
    divergence: Divergence,
    budget: int = DEFAULT_BUDGET,
) -> Case:
    """ddmin ``case``'s shrinkable part while the same failure persists."""
    if SUBJECTS[case.subject].shrink == "updates":
        items = list(case.updates)
    else:
        items = list(range(case.graph.n))
    kept = ddmin(
        items,
        lambda kept: divergence.same_failure(
            check(_rebuild(case, kept), run)
        ),
        budget,
    )
    return _rebuild(case, kept)


# ----------------------------------------------------------------------
# Reproducers
# ----------------------------------------------------------------------
def write_reproducer(
    case: Case, kernels: str, divergence: Divergence, path: str | Path
) -> Path:
    """Write one self-contained JSON reproducer; returns its path.

    It records the subject, case, runner, kernel mode, worker count
    (shard), the divergence with its pair, the edge list and the update
    stream (updates) — all :func:`replay` needs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_json(
        {
            "subject": case.subject,
            "case": case.label,
            "runner": case.runner,
            "kernels": kernels,
            "workers": case.workers,
            "kind": divergence.kind,
            "detail": divergence.detail,
            "step": divergence.step,
            "graph": case.graph.name,
            "n": case.graph.n,
            "edges": all_edges(case.graph).tolist(),
            "updates": [list(update) for update in case.updates],
            "expected": divergence.expected,
            "got": divergence.got,
        },
        path,
    )
    return path


def load_reproducer(path: str | Path) -> tuple[Case, dict]:
    """Rebuild the case of a reproducer dump; returns (case, payload)."""
    payload = load_json(path)
    graph = CSRGraph.from_edges(
        payload["n"],
        [tuple(edge) for edge in payload["edges"]],
        name=payload["graph"] or "reproducer",
    )
    case = Case(
        payload["subject"],
        payload["case"],
        payload["runner"],
        graph,
        updates=tuple(
            (int(index), str(kind), int(u), int(v))
            for index, kind, u, v in payload["updates"]
        ),
        workers=payload["workers"],
    )
    return case, payload


def replay(
    path: str | Path, runners: Mapping[str, Callable] | None = None
) -> Divergence | None:
    """Re-run a reproducer in its recorded kernel mode (None == clean).

    ``runners`` overrides the subject's roster — pass the faulty runner
    a reproducer was dumped from to see it fail again.
    """
    case, payload = load_reproducer(path)
    roster = runners or SUBJECTS[case.subject].runners
    with kernels_env(payload["kernels"]):
        return check(case, roster[case.runner])


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def sweep(
    cases: Iterable[Case],
    runners: Mapping[str, Callable] | None = None,
    dump_dir: str | Path | None = None,
) -> list[Finding]:
    """Check every case in the current kernel mode; shrink and dump.

    ``runners`` overrides each case's subject roster (seeded faults).
    """
    mode = kernel_mode()
    findings = []
    for case in cases:
        roster = runners or SUBJECTS[case.subject].runners
        run = roster[case.runner]
        divergence = check(case, run)
        if divergence is None:
            continue
        witness = shrink(case, run, divergence)
        finding = Finding(case, mode, divergence, witness)
        if dump_dir is not None:
            runner = case.runner
            if case.workers is not None:
                runner += f"-w{case.workers}"
            stem = f"{case.subject}-{runner}-{case.label}-{mode}"
            finding.reproducer_path = write_reproducer(
                witness,
                mode,
                check(witness, run) or divergence,
                Path(dump_dir) / (stem.replace("/", "-") + ".json"),
            )
        findings.append(finding)
    return findings


@dataclass
class OracleReport:
    """The findings of one subject's sweep over every kernel mode."""

    subject: str
    kernels: list[str]
    cases: int
    findings: list[Finding]

    def __str__(self) -> str:
        lines = [str(finding) for finding in self.findings]
        modes = ",".join(self.kernels)
        if self.findings:
            lines.append(
                f"{len(self.findings)} {self.subject} findings "
                f"({self.cases} cases x kernel modes {{{modes}}})"
            )
        else:
            lines.append(
                f"OK: {SUBJECTS[self.subject].claim} — {self.cases} "
                f"cases x kernel modes {{{modes}}}"
            )
        return "\n".join(lines)


def run_oracle(
    subject: str = "engines",
    graphs: Iterable[str] | Mapping[str, CSRGraph] | None = None,
    size: str = "tiny",
    seeds: int = 7,
    workers: Iterable[int] = SHARD_WORKER_COUNTS,
    kernels: Iterable[str] | None = None,
    runners: Mapping[str, Callable] | None = None,
    dump_dir: str | Path | None = None,
) -> OracleReport:
    """Sweep one subject's cases once per kernel mode.

    Args:
        subject: ``engines``, ``updates`` or ``shard``.
        graphs: Suite names, or an explicit ``name -> graph`` corpus
            (default: the subject's — the whole suite, SMALL for updates).
        size: Suite tier of named graphs (the tiny renditions by default:
            agreement is already exercised there).
        seeds: Update streams per (graph, profile) (updates).
        workers: Pool sizes proved against the inline run (shard).
        kernels: ``REPRO_KERNELS`` modes to sweep (default: the current
            one); the environment is restored afterwards.
        runners: A roster replacing the subject's (seeded faults).
        dump_dir: Where to write one reproducer per finding.
    """
    spec = SUBJECTS[subject]
    if not isinstance(graphs, Mapping):
        names = spec.default_graphs if graphs is None else graphs
        graphs = {name: suite.load(name, size=size) for name in names}
    roster = runners or spec.runners
    cases = spec.cases(
        graphs, roster, seeds=range(seeds), workers=tuple(workers)
    )
    modes = [kernel_mode()] if kernels is None else list(kernels)
    findings: list[Finding] = []
    for mode in modes:
        with kernels_env(mode):
            findings += sweep(cases, roster, dump_dir)
    return OracleReport(subject, modes, len(cases), findings)

