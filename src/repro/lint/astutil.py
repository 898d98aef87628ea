"""Small AST helpers shared by the lint rules.

Everything here is syntactic: the linter never imports the code it
checks, so "is this a runtime?" style questions are answered from names
and annotations, not from types.  Rules document the heuristics they
build on top of these helpers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Wall-clock reading functions of the ``time`` module.
CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``np.random`` attributes that are part of the modern Generator API and
#: therefore *not* global-state RNG.
GENERATOR_API = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


def time_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases of ``time``, local names bound to its clocks)."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCK_FUNCTIONS:
                    functions.add(alias.asname or alias.name)
    return modules, functions


#: The charge vocabulary of :class:`repro.runtime.simulator.SimRuntime`.
#: Every simulated parallel or sequential step enters the ledger through
#: one of these methods (``record_*`` are the underlying metric hooks).
CHARGE_METHODS = frozenset(
    {
        "parallel_for",
        "parallel_update",
        "sequential",
        "barrier_only",
        "imbalanced_step",
        "charge_block",
    }
)

#: Charge methods that take a cost expression as their first argument.
COSTED_CHARGE_METHODS = frozenset(
    {
        "parallel_for",
        "parallel_update",
        "sequential",
        "imbalanced_step",
        "charge_block",
    }
)

#: First-argument name of the cost expression per charge method.
COST_KEYWORDS = {
    "parallel_for": "task_costs",
    "parallel_update": "task_costs",
    "sequential": "work",
    "imbalanced_step": "thread_works",
    "charge_block": "block",
}

#: Keyword naming a charge's profiler phase(s): ``tag=`` by default;
#: a block of steps takes one tag per step.
TAG_KEYWORDS = {"charge_block": "tags"}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains interrupted by calls or subscripts (``f().x``, ``a[0].y``)
    return ``None``: they are not stable references a rule can track.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee (``runtime.parallel_for``)."""
    return dotted_name(call.func)


def charge_method_of(call: ast.Call) -> str | None:
    """The charge-method name if ``call`` is a runtime charge, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in CHARGE_METHODS:
        return func.attr
    return None


def keyword_value(call: ast.Call, name: str) -> ast.expr | None:
    """Value of keyword argument ``name``, or None if absent."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def argument(call: ast.Call, position: int, name: str) -> ast.expr | None:
    """Argument passed positionally at ``position`` or by ``name``."""
    if len(call.args) > position:
        return call.args[position]
    return keyword_value(call, name)


def numeric_value(node: ast.AST) -> float | None:
    """The value of a numeric literal, unwrapping unary ``-``/``+``."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        inner = numeric_value(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool):
        return float(node.value)
    return None


def iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def all_parameters(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.arg]:
    """All parameters of ``func`` in declaration order."""
    args = func.args
    return [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]


def annotation_source(arg: ast.arg) -> str:
    """Source text of a parameter annotation (empty when absent)."""
    if arg.annotation is None:
        return ""
    try:
        return ast.unparse(arg.annotation)
    except Exception:  # pragma: no cover - unparse is total on ast nodes
        return ""
