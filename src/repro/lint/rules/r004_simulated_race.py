"""R004 simulated-race: contended arrays must not take raw in-place writes.

In the paper's contention model (Sec. 2), concurrent updates to one
memory location serialize on its cache line; the runtime accounts for
that through the batch-atomic helpers in :mod:`repro.runtime.atomics`
(``batch_decrement`` / ``batch_increment_clamped``), which both apply
the updates *and* return the per-location contention counts that
``parallel_update`` charges to the span.

An array routed through those helpers (or handed to ``parallel_update``)
is **shared state of a parallel region** — and since v2 the marking is
*interprocedural*: the engine's contended-parameter fixpoint follows the
array through resolved helper calls, so wrapping the atomics in a
convenience function no longer hides the sharing from the rule.

A *raw* in-place write to a shared array — ``arr[idx] = ...``,
``arr[idx] -= ...``, ``np.subtract.at(arr, ...)`` — is treated with a
may-happen-in-parallel approximation: every statement of a function that
participates in the parallel step may run concurrently with the atomic
updates, so the write is a simulated data race **unless the index is
provably disjoint** (one write per location).  Accepted disjointness
evidence, matching how real kernels here are written:

* a slice or boolean-mask index (``arr[mask] = ...`` writes each
  location at most once);
* an index produced by ``np.unique`` / ``np.nonzero`` /
  ``np.flatnonzero`` / ``np.where`` / ``np.arange`` or the project's
  ``sorted_unique`` (distinct by construction), directly or through a
  local variable.

Unproven writes bypass contention accounting — the mutation happens but
its contention never reaches the span, so burdened-span figures
(Figs. 9/14) undercount exactly where the paper says contention bites.

Scope is limited to ``repro/core/`` modules: that is where algorithm
code lives; the atomics helpers themselves (``repro/runtime/``) must of
course write the arrays they implement.

Deliberate inline reimplementations of the batch-atomic semantics (there
is one in the online peel, which needs the survivors mask) should carry
an explicit ``# lint: disable=R004`` with a comment explaining why the
contention is still accounted.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.engine.callgraph import BATCH_HELPERS
from repro.lint.finding import Finding
from repro.lint.registry import rule

#: Index-producing calls whose result holds distinct locations.
_DISJOINT_PRODUCERS = frozenset(
    {"unique", "sorted_unique", "nonzero", "flatnonzero", "where", "arange"}
)


def _direct_contended(func: ast.AST) -> set[str]:
    """Dotted names this function itself routes through the atomics."""
    contended: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.call_name(node)
        if name is None:
            continue
        tail = name.rsplit(".", 1)[-1]
        if tail in BATCH_HELPERS and node.args:
            target = astutil.dotted_name(node.args[0])
            if target is not None:
                contended.add(target)
        elif tail == "parallel_update":
            # Only the contention-counts argument describes shared state;
            # per-task cost arrays are thread-private by construction.
            counts = astutil.argument(node, 1, "contention_counts")
            if counts is not None:
                target = astutil.dotted_name(counts)
                if target is not None:
                    contended.add(target)
    return contended


def _contended_arrays(ctx: ModuleContext, info) -> set[str]:
    """Shared arrays of ``info``, including through resolved helpers."""
    contended = _direct_contended(info.node)
    if ctx.program is None:
        return contended
    graph = ctx.program.callgraph
    for site in graph.sites_in(info):
        call = site.call
        for target in site.targets:
            tainted = graph.contending_params(target)
            if not tainted:
                continue
            params = target.param_names
            shift = 1 if target.class_name is not None else 0
            for pos in tainted:
                expr = None
                arg_pos = pos - shift
                if 0 <= arg_pos < len(call.args):
                    expr = call.args[arg_pos]
                elif 0 <= pos < len(params):
                    expr = astutil.keyword_value(call, params[pos])
                if expr is None:
                    continue
                dotted = astutil.dotted_name(expr)
                if dotted is not None:
                    contended.add(dotted)
    return contended


def _index_assignments(func: ast.AST) -> dict[str, ast.expr]:
    """Last simple assignment to each local name (for disjointness)."""
    assigns: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            assigns[element.id] = node.value
    return assigns


def _is_disjoint_index(
    index: ast.expr, assigns: dict[str, ast.expr], depth: int = 0
) -> bool:
    """Whether every location ``index`` selects is written at most once."""
    if depth > 3:
        return False
    if isinstance(index, ast.Slice):
        return True
    if isinstance(index, ast.Compare):
        return True  # boolean mask
    if isinstance(index, ast.Call):
        name = astutil.call_name(index)
        if name is not None and name.rsplit(".", 1)[-1] in _DISJOINT_PRODUCERS:
            return True
        return False
    if isinstance(index, ast.Name):
        source = assigns.get(index.id)
        if source is not None and source is not index:
            return _is_disjoint_index(source, assigns, depth + 1)
    return False


def _raw_writes(
    func: ast.AST, contended: set[str], assigns: dict[str, ast.expr]
) -> Iterator[tuple[ast.AST, str]]:
    """(node, array name) for each unproven raw write to shared state."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                base = astutil.dotted_name(target.value)
                if base is None or base not in contended:
                    continue
                if _is_disjoint_index(target.slice, assigns):
                    continue
                yield node, base
        elif isinstance(node, ast.Call):
            # In-place ufunc application: np.subtract.at(arr, idx, v).
            name = astutil.call_name(node)
            if (
                name is not None
                and (name.startswith("np.") or name.startswith("numpy."))
                and name.endswith(".at")
                and node.args
            ):
                base = astutil.dotted_name(node.args[0])
                if base is not None and base in contended:
                    yield node, base


@rule(
    "R004",
    "simulated-race",
    "no raw in-place writes to arrays shared with the batch atomics",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("repro", "core"):
        return
    infos = ctx.functions()
    if infos:
        for info in infos:
            yield from _check_function(ctx, info)
    else:  # no program attached (standalone parse): per-file fallback
        for func in astutil.iter_functions(ctx.tree):
            contended = _direct_contended(func)
            yield from _findings(ctx, func, contended)


def _check_function(ctx: ModuleContext, info) -> Iterator[Finding]:
    contended = _contended_arrays(ctx, info)
    yield from _findings(ctx, info.node, contended)


def _findings(
    ctx: ModuleContext, func: ast.AST, contended: set[str]
) -> Iterator[Finding]:
    if not contended:
        return
    assigns = _index_assignments(func)
    for node, array in _raw_writes(func, contended, assigns):
        yield ctx.finding(
            node,
            "R004",
            f"raw in-place write to '{array}', which this parallel step "
            "shares with the batch-atomic helpers / parallel_update, and "
            "the write index is not provably one-write-per-location; the "
            "contention bypasses the span accounting (a data race in the "
            "paper's model) — use repro.runtime.atomics, a disjoint index "
            "(mask/np.unique), or account the contention explicitly",
        )
