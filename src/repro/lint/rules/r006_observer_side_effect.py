"""R006 observer-side-effect: observation must change nothing.

The observer's contract (docs/OBSERVABILITY.md) is that attaching a
:class:`repro.obs.MetricsRegistry` — with or without its
:class:`repro.trace.Tracer` facet — changes *nothing*: the regression
goldens pass bit-exactly observed and unobserved, and two observed runs
of the same input produce byte-identical snapshots and trace files.
Three disciplines keep that true, and this rule enforces each
syntactically:

* **(A) clock containment** — no wall-clock read anywhere under the
  ``repro`` package except ``repro/bench/wallclock.py``, the single
  sanctioned host-clock reader.  R003 already flags clocks in algorithm
  code via suppressions; R006 pins the *location* structurally, so a
  stray ``# lint: disable=R003`` cannot quietly add a second reader.  A
  wall-clock value in a ``host``-family metric or a host span can only
  come from that reader.
* **(B) observer purity** — code under the observability packages
  (``repro/obs/``, ``repro/trace/``) must not charge the simulated
  ledger (no ``parallel_for`` / ``sequential`` / ..., no ``record_*``),
  must not draw randomness, and must not assign to ``*.metrics.*``; the
  observer only *reads* the execution.  Purity is interprocedural: an
  observer module calling a resolved project function from which a
  ledger charge is reachable is flagged too (driver modules —
  ``cli.py`` / ``__main__.py`` — are exempt; launching an observed run
  is their job).
* **(C) guarded hooks** — every observer hook called outside those
  packages (``on_step``, ``instant``, ``inc``, ``observe``, ...) on an
  optional slot (a name ending in ``registry``) must sit inside an
  ``if <slot> is not None:`` guard, so the unobserved path stays
  zero-cost and can never raise.  A local variable assigned directly
  from a ``MetricsRegistry(...)`` constructor is known non-None and
  exempt.

R006 absorbed the former R008 (``metrics-side-effect``), the registry
half of the same contract; the R008 ID is retired, not reused.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding
from repro.lint.registry import rule

CLOCK_FUNCTIONS = astutil.CLOCK_FUNCTIONS
_time_aliases = astutil.time_aliases

#: The observability packages (the observer itself, held to purity).
OBSERVER_PACKAGES = ("obs", "trace")
_OBSERVER_MODULES = tuple(f"repro.{pkg}" for pkg in OBSERVER_PACKAGES)

#: Registry methods that record into the observer (optional-slot hooks).
OBSERVER_HOOKS = frozenset(
    {
        "attach",
        "attach_model",
        "on_step",
        "on_block",
        "on_round",
        "on_subround",
        "instant",
        "host_span",
        "inc",
        "set_gauge",
        "observe",
        "mark",
        "merge_counts",
        "declare_histogram",
    }
)

#: Ledger-charging calls forbidden inside the observability packages.
CHARGING_METHODS = astutil.CHARGE_METHODS | {
    "record_parallel",
    "record_sequential",
    "record_block",
}


def _is_wallclock_module(ctx: ModuleContext) -> bool:
    return ctx.in_package("repro", "bench") and (
        Path(ctx.path).name == "wallclock.py"
    )


def _is_observer_module(ctx: ModuleContext) -> bool:
    return any(ctx.in_package("repro", pkg) for pkg in OBSERVER_PACKAGES)


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _constructed_registries(tree: ast.Module) -> set[str]:
    """Bare names assigned from a ``MetricsRegistry(...)`` constructor."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        callee = astutil.call_name(node.value)
        if callee is None or not callee.split(".")[-1].endswith(
            "MetricsRegistry"
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_guarded(
    call: ast.Call, base: str, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Whether ``call`` is in the body of ``if <base> is not None:``."""
    child: ast.AST = call
    parent = parents.get(call)
    while parent is not None:
        if isinstance(parent, ast.If) and any(
            child is stmt for stmt in parent.body
        ):
            test = parent.test
            if (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and astutil.dotted_name(test.left) == base
            ):
                return True
        child, parent = parent, parents.get(parent)
    return False


@rule(
    "R006",
    "observer-side-effect",
    "observation changes nothing: clocks only in bench.wallclock, pure "
    "obs/ and trace/ packages, registry hooks behind 'is not None' guards",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.in_package("repro"):
        if not _is_wallclock_module(ctx):
            yield from _check_clocks(ctx)
        if _is_observer_module(ctx):
            yield from _check_purity(ctx)
            yield from _check_transitive_purity(ctx)
            return
    yield from _check_guards(ctx)


def _is_observer_driver(ctx: ModuleContext) -> bool:
    """Driver modules that legitimately launch charging runs."""
    return Path(ctx.path).name in ("cli.py", "__main__.py")


def _check_transitive_purity(ctx: ModuleContext) -> Iterator[Finding]:
    """Observer code must not *reach* a ledger charge through calls."""
    if (
        ctx.program is None
        or ctx.module is None
        or _is_observer_driver(ctx)
    ):
        return
    graph = ctx.program.callgraph
    for info in ctx.functions():
        for site in graph.sites_in(info):
            for target in site.targets:
                if target.module.startswith(_OBSERVER_MODULES):
                    continue  # flagged by (B) where the charge appears
                if graph.can_charge(target):
                    yield ctx.finding(
                        site.call,
                        "R006",
                        f"observer code calls '{target.qualname}', from "
                        "which a ledger charge is reachable; the observer "
                        "must observe the run, not drive it (drivers "
                        "belong in cli.py/__main__.py)",
                    )
                    break


def _check_clocks(ctx: ModuleContext) -> Iterator[Finding]:
    time_modules, clock_names = _time_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.call_name(node)
        if name is None:
            continue
        head, _, tail = name.rpartition(".")
        if (head in time_modules and tail in CLOCK_FUNCTIONS) or (
            not head and name in clock_names
        ):
            yield ctx.finding(
                node,
                "R006",
                f"wall-clock read '{name}()' outside repro.bench.wallclock;"
                " host timing must go through wallclock.measure() so traces"
                " and snapshots stay deterministic",
            )


def _check_purity(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = astutil.call_name(node)
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in CHARGING_METHODS
            ):
                yield ctx.finding(
                    node,
                    "R006",
                    f"observer code must not charge the ledger "
                    f"('{func.attr}'); the observer only observes the run",
                )
            elif name is not None and (
                name.startswith(("np.random.", "numpy.random."))
                or name.split(".")[-1] == "random"
            ):
                yield ctx.finding(
                    node,
                    "R006",
                    f"observer code must not draw randomness ('{name}()');"
                    " an observed run must equal the unobserved run "
                    "bit-exactly",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                dotted = astutil.dotted_name(target)
                if dotted is not None and ".metrics." in dotted + ".":
                    yield ctx.finding(
                        node,
                        "R006",
                        f"observer code must not mutate runtime metrics "
                        f"('{dotted}')",
                    )


def _check_guards(ctx: ModuleContext) -> Iterator[Finding]:
    parents: dict[ast.AST, ast.AST] | None = None
    constructed: set[str] | None = None
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.call_name(node)
        if name is None or "." not in name:
            continue
        base, _, method = name.rpartition(".")
        if method not in OBSERVER_HOOKS:
            continue
        if not (base == "registry" or base.endswith("registry")):
            continue
        if constructed is None:
            constructed = _constructed_registries(ctx.tree)
        if base in constructed:
            continue
        if parents is None:
            parents = _parents(ctx.tree)
        if not _is_guarded(node, base, parents):
            yield ctx.finding(
                node,
                "R006",
                f"observer hook '{name}()' outside an "
                f"'if {base} is not None:' guard; the unobserved path "
                "must stay zero-cost",
            )
