"""R009 shard-determinism: canonical merge order inside ``repro/shard/``.

The shard engine's contract (docs/SHARDING.md) is that the simulated
ledger and every ``shard.*`` metric are **worker-count invariant**: the
coordinator must fold worker replies in the fixed shard order, never in
completion order.  The classic way to break that silently is iterating
``concurrent.futures.as_completed(...)`` (or a multiprocessing pool's
``imap_unordered``) and charging the ledger — or recording metrics —
inside the loop body: the charge sequence then depends on OS scheduling
and differs run to run and worker count to worker count.

This rule flags, inside the ``repro/shard/`` package only, any ``for``
(or ``async for``) loop whose iterable is an unordered-completion
source and whose body reaches

* a ledger charge (``parallel_for`` / ``sequential`` / ``record_*``), or
* an observer hook (``inc`` / ``observe`` / ``on_step`` / ...),

unless the loop body only *collects* results (the collect-then-sort
idiom: gather replies into a dict/list keyed by shard, then fold in
sorted order outside the loop — that is fine and is what the pool
does).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding
from repro.lint.registry import rule
from repro.lint.rules.r006_observer_side_effect import (
    CHARGING_METHODS,
    OBSERVER_HOOKS,
)

#: Call names (last component) yielding results in completion order.
UNORDERED_SOURCES = frozenset(
    {
        "as_completed",
        "imap_unordered",
    }
)


def _unordered_source(iterable: ast.AST) -> str | None:
    """The unordered-completion callee feeding a loop, if any.

    Matches both a direct ``for f in as_completed(...)`` and the
    wrapped forms ``enumerate(as_completed(...))`` /
    ``list(pool.imap_unordered(...))``.
    """
    if not isinstance(iterable, ast.Call):
        return None
    name = astutil.call_name(iterable)
    if name is not None and name.split(".")[-1] in UNORDERED_SOURCES:
        return name
    for arg in iterable.args:
        inner = _unordered_source(arg)
        if inner is not None:
            return inner
    return None


def _ordering_sinks(body: list[ast.stmt]) -> Iterator[tuple[ast.Call, str]]:
    """Calls in a loop body whose order the ledger/metrics can observe."""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in CHARGING_METHODS:
                yield node, f"ledger charge '{func.attr}()'"
            elif func.attr in OBSERVER_HOOKS:
                yield node, f"registry hook '{func.attr}()'"


@rule(
    "R009",
    "shard-determinism",
    "shard merges fold replies in shard order: no ledger charge or "
    "registry hook inside an as_completed/imap_unordered loop",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("repro", "shard"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        source = _unordered_source(node.iter)
        if source is None:
            continue
        for call, sink in _ordering_sinks(node.body + node.orelse):
            yield ctx.finding(
                call,
                "R009",
                f"{sink} inside a '{source}(...)' loop folds worker "
                "replies in completion order; collect the replies and "
                "fold them in shard order so the ledger stays "
                "worker-count invariant",
            )
