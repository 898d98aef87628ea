"""R007 native-parity: the embedded C kernels must match their Python side.

:mod:`repro.perf.native` embeds C transcriptions of the hot peel loops
(the VGC task loop, the PKC chain drain, the fused scan/peel, the
frontier scan, the sampling recount, the H-index round, the
batch-dynamic insertion round, the HBS round step and DecreaseKey) and
drives them
through ``ctypes``; :mod:`repro.perf.kernels` prices the per-task
counters they return with dyadic closed forms (``vertex_op * nv +
edge_op * ne + ...``).  Nothing executes across that boundary at lint
time, so nothing *types* it — a reordered argument, a widened counters
array, or a cost constant that stops being a dyadic rational would ship
silently and corrupt the work/span ledger (or the goldens) in ways no
unit test of either side alone can see.

R007 cross-checks the artifacts syntactically, per embedded kernel,
anchoring each finding in the file whose edit would fix it:

in ``repro/perf/native.py``, for every ``void <kernel>(...)`` in the
embedded source:

* the C parameter list (pointer vs. integer) must match the kernel's
  ``argtypes`` expression (``c_void_p`` vs. ``c_int64``), position by
  position — the assignment is found through the ``<var> =
  lib.<kernel>`` binding;
* every ``lib.<kernel>(...)`` call must pass a pointer expression in
  exactly the pointer positions — ``_ptr(...)``, a cached
  ``scratch.ptr(...)`` (or a local alias/variable bound to one), or a
  conditional between such forms;
* the ``counters`` array written by the kernel's C body (highest index
  + 1), the ``np.zeros(N)`` allocation, and the Python tuple unpack in
  the calling function must all agree on the counter width;
* every key of a cost-counter table (:data:`COST_COUNTERS`,
  :data:`PKC_COST_COUNTERS`, :data:`ROUND_COST_COUNTERS`) must have a
  ``<key>_out`` output parameter in its kernel's C signature, and every
  value — a field name or a list of field names — must name real
  ``CostModel`` fields whose defaults are **dyadic rationals** (exactly
  representable in binary floating point, the exactness argument of
  docs/PERFORMANCE.md);

in ``repro/perf/kernels.py``:

* each table's ``task_costs`` closed form (``vgc_peel_tasks_native``,
  ``pkc_thread_works``, ``insertion_round_native``) must multiply
  exactly the ``model.<field> * <counter>`` pairs the table declares —
  no more, no fewer, no renames.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding
from repro.lint.registry import rule

#: Cost-counter tables in native.py -> (C kernel, closed-form function
#: in kernels.py whose ``task_costs`` assignment prices the counters).
_COST_TABLES = {
    "COST_COUNTERS": ("vgc_peel_tasks", "vgc_peel_tasks_native"),
    "PKC_COST_COUNTERS": ("pkc_chain_drain", "pkc_thread_works"),
    "ROUND_COST_COUNTERS": ("insertion_round", "insertion_round_native"),
}


# -- C-side parsing (regex over the embedded source string) ------------
def _embedded_source(tree: ast.Module) -> tuple[str, ast.AST] | None:
    """The ``_SOURCE`` string constant and its assignment node."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SOURCE"
            for t in node.targets
        ):
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                return node.value.value, node
    return None


def _c_kernels(source: str) -> dict[str, tuple[list[tuple[str, bool]], str]]:
    """``{kernel: (params, body)}`` for every ``void <name>(...)``.

    ``params`` is ``(name, is_pointer)`` per parameter; ``body`` is the
    text from the signature's closing paren to the next kernel (used to
    count the ``counters[i]`` writes of *this* kernel only).
    """
    kernels: dict[str, tuple[list[tuple[str, bool]], str]] = {}
    matches = list(re.finditer(r"\bvoid\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(",
                               source))
    for pos, match in enumerate(matches):
        depth, start = 1, match.end()
        end = start
        while end < len(source) and depth:
            if source[end] == "(":
                depth += 1
            elif source[end] == ")":
                depth -= 1
            end += 1
        params_text = re.sub(
            r"/\*.*?\*/", "", source[start : end - 1], flags=re.S
        )
        params: list[tuple[str, bool]] = []
        ok = True
        for raw in params_text.split(","):
            text = raw.strip()
            if not text:
                continue
            names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
            if not names:
                ok = False
                break
            params.append((names[-1], "*" in text))
        if not ok:
            continue
        body_end = (
            matches[pos + 1].start() if pos + 1 < len(matches) else len(source)
        )
        kernels[match.group(1)] = (params, source[end:body_end])
    return kernels


def _c_counter_width(body: str) -> int:
    """Highest ``counters[i]`` index written by a kernel body, plus one."""
    indices = [
        int(m) for m in re.findall(r"\bcounters\s*\[\s*(\d+)\s*\]", body)
    ]
    return max(indices) + 1 if indices else 0


# -- Python-side extraction --------------------------------------------
def _kernel_bindings(tree: ast.Module, kernels: set[str]) -> dict[str, str]:
    """``{local_var: kernel}`` from ``<var> = lib.<kernel>`` bindings."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr in kernels
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            bindings[node.targets[0].id] = value.attr
    return bindings


def _argtypes_layouts(
    tree: ast.Module, bindings: dict[str, str]
) -> dict[str, tuple[list[bool], ast.AST]]:
    """Pointer-flag sequences per kernel from ``<var>.argtypes = ...``."""
    layouts: dict[str, tuple[list[bool], ast.AST]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and target.attr == "argtypes"
                and isinstance(target.value, ast.Name)
            ):
                continue
            kernel = bindings.get(target.value.id)
            if kernel is None:
                continue
            layout = _eval_ctype_list(node.value)
            if layout is not None:
                layouts[kernel] = (layout, node)
    return layouts


def _eval_ctype_list(node: ast.expr) -> list[bool] | None:
    """Evaluate ``[c_void_p]*7 + [c_int64]*4 + ...`` into pointer flags."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _eval_ctype_list(node.left)
        right = _eval_ctype_list(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        if isinstance(node.right, ast.Constant) and isinstance(
            node.right.value, int
        ):
            base = _eval_ctype_list(node.left)
            if base is None:
                return None
            return base * node.right.value
        return None
    if isinstance(node, ast.List):
        flags: list[bool] = []
        for element in node.elts:
            dotted = astutil.dotted_name(element)
            if dotted is None:
                return None
            tail = dotted.rsplit(".", 1)[-1]
            if tail == "c_void_p":
                flags.append(True)
            elif tail in ("c_int64", "c_int32", "c_int", "c_long"):
                flags.append(False)
            else:
                return None
        return flags
    return None


def _kernel_calls(
    tree: ast.Module, kernels: set[str]
) -> list[tuple[str, ast.Call, ast.FunctionDef | None]]:
    """Every ``lib.<kernel>(...)`` call with its enclosing function."""
    calls: list[tuple[str, ast.Call, ast.FunctionDef | None]] = []
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    seen: set[int] = set()
    for func in functions:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in kernels
            ):
                calls.append((node.func.attr, node, func))
                seen.add(id(node))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in kernels
            and id(node) not in seen
        ):
            calls.append((node.func.attr, node, None))
    return calls


def _ptr_maker(node: ast.expr) -> bool:
    """Is ``node`` a pointer-producing callable (``_ptr`` / ``<x>.ptr``)?

    Covers the cached-pointer idiom of :class:`KernelScratch`: wrappers
    bind ``sp = scratch.ptr`` (or ``sp = scratch.ptr if scratch is not
    None else _ptr``) once and call the alias per argument.
    """
    if isinstance(node, ast.Name):
        return node.id == "_ptr"
    if isinstance(node, ast.Attribute):
        return node.attr == "ptr"
    if isinstance(node, ast.IfExp):
        return _ptr_maker(node.body) and _ptr_maker(node.orelse)
    return False


def _ptr_makers(scope: ast.AST) -> set[str]:
    """Local names bound to a pointer-producing callable."""
    makers: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _ptr_maker(node.value)
        ):
            makers.add(node.targets[0].id)
    return makers


def _pointer_expr(
    node: ast.expr, makers: set[str], locals_: set[str]
) -> bool:
    """Does ``node`` evaluate to a kernel pointer argument?

    Accepted forms: a call to a pointer maker (``_ptr(x)``, ``sp(x)``,
    ``scratch.ptr(x)``), a conditional between such calls (``None``
    branches allowed — argtypes are ``c_void_p``), or a local name
    previously assigned one of those (``peeled_p``).
    """
    if isinstance(node, ast.Call):
        fn = node.func
        return _ptr_maker(fn) or (
            isinstance(fn, ast.Name) and fn.id in makers
        )
    if isinstance(node, ast.IfExp):
        return all(
            (isinstance(arm, ast.Constant) and arm.value is None)
            or _pointer_expr(arm, makers, locals_)
            for arm in (node.body, node.orelse)
        )
    if isinstance(node, ast.Name):
        return node.id in locals_
    return False


def _pointer_locals(scope: ast.AST, makers: set[str]) -> set[str]:
    """Local names assigned from pointer expressions (any branch)."""
    locals_: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _pointer_expr(node.value, makers, locals_)
        ):
            locals_.add(node.targets[0].id)
    return locals_


def _counters_zeros_width(scope: ast.AST) -> tuple[int, ast.AST] | None:
    """N from the ``counters = np.zeros(N, ...)`` allocation in scope."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "counters"
            for t in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            name = astutil.call_name(value)
            if name is not None and name.rsplit(".", 1)[-1] == "zeros":
                if value.args and isinstance(value.args[0], ast.Constant):
                    width = value.args[0].value
                    if isinstance(width, int):
                        return width, node
    return None


def _unpack_width(scope: ast.AST) -> tuple[int, ast.AST] | None:
    """Arity of the ``dp, ep, ... = (... for x in counters)`` unpack."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        if not _mentions_counters(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                return len(target.elts), node
    return None


def _mentions_counters(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "counters"
        for sub in ast.walk(node)
    )


def _cost_tables(tree: ast.Module) -> dict[str, tuple[dict, ast.AST]]:
    """Every literal cost-counter table present in the module."""
    tables: dict[str, tuple[dict, ast.AST]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id in _COST_TABLES
            ):
                try:
                    table = ast.literal_eval(node.value)
                except ValueError:
                    continue
                if isinstance(table, dict):
                    tables[target.id] = (table, node)
    return tables


def _table_fields(value) -> list[str]:
    """The CostModel field names a table value declares (str or list)."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)):
        return [v for v in value if isinstance(v, str)]
    return []


def _cost_model_fields(tree: ast.Module) -> dict[str, ast.AST]:
    """CostModel field name -> default-value node."""
    fields: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CostModel":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                ):
                    fields[stmt.target.id] = stmt.value
    return fields


def _is_dyadic(value: float) -> bool:
    """Whether ``value`` is exactly representable in binary floats.

    The closed form multiplies these constants by integer counts; the
    products stay exact only when each constant's denominator is a
    power of two (1.5 = 3/2 is fine, 0.3 = 3/10 is not).
    """
    try:
        denominator = Fraction(str(value)).denominator
    except ValueError:
        return False
    return denominator & (denominator - 1) == 0


# -- the rule ----------------------------------------------------------
@rule(
    "R007",
    "native-parity",
    "embedded C kernels, ctypes signatures, counter tables and cost model "
    "must agree",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("repro", "perf"):
        return
    filename = Path(ctx.path).name
    if filename == "native.py":
        yield from _check_native(ctx)
    elif filename == "kernels.py":
        yield from _check_kernels(ctx)


def _check_native(ctx: ModuleContext) -> Iterator[Finding]:
    embedded = _embedded_source(ctx.tree)
    if embedded is None:
        return
    source, source_node = embedded
    kernels = _c_kernels(source)
    if not kernels:
        yield ctx.finding(
            source_node,
            "R007",
            "embedded C source has no parseable kernel signature; the "
            "parity checker cannot verify the ctypes layout",
        )
        return

    bindings = _kernel_bindings(ctx.tree, set(kernels))
    layouts = _argtypes_layouts(ctx.tree, bindings)

    # (1) C parameter list vs. argtypes, position by position.
    for kernel, (params, _) in kernels.items():
        if kernel not in layouts:
            continue
        layout, node = layouts[kernel]
        if len(layout) != len(params):
            yield ctx.finding(
                node,
                "R007",
                f"argtypes declares {len(layout)} arguments but the C "
                f"'{kernel}' signature has {len(params)}; the "
                "ctypes call would smash the kernel's stack",
            )
            continue
        for i, ((name, c_ptr), py_ptr) in enumerate(zip(params, layout)):
            if c_ptr != py_ptr:
                yield ctx.finding(
                    node,
                    "R007",
                    f"argtypes[{i}] is "
                    f"{'c_void_p' if py_ptr else 'an integer type'} "
                    f"but C parameter {i} ('{name}') of '{kernel}' is "
                    f"{'a pointer' if c_ptr else 'int64_t'}; "
                    "pointer/integer layout must match the embedded "
                    "C signature exactly",
                )

    # (2) Every foreign call wraps exactly the pointer positions in
    # _ptr(); (3) counter widths agree within the calling function.
    for kernel, call, func in _kernel_calls(ctx.tree, set(kernels)):
        params, body = kernels[kernel]
        if not call.keywords:
            if len(call.args) != len(params):
                yield ctx.finding(
                    call,
                    "R007",
                    f"'{kernel}' is called with {len(call.args)} "
                    f"arguments but the C signature has {len(params)}",
                )
            else:
                scope = func if func is not None else ctx.tree
                makers = _ptr_makers(scope)
                ptr_locals = _pointer_locals(scope, makers)
                for i, (arg, (name, c_ptr)) in enumerate(
                    zip(call.args, params)
                ):
                    wrapped = _pointer_expr(arg, makers, ptr_locals)
                    if wrapped != c_ptr:
                        yield ctx.finding(
                            arg,
                            "R007",
                            f"argument {i} of the '{kernel}' call "
                            f"{'is' if wrapped else 'is not'} a pointer "
                            f"expression (_ptr/scratch.ptr) but C "
                            f"parameter '{name}' is "
                            f"{'a pointer' if c_ptr else 'int64_t'}",
                        )
        scope = func if func is not None else ctx.tree
        c_width = _c_counter_width(body)
        zeros = _counters_zeros_width(scope)
        if zeros is not None and c_width and zeros[0] != c_width:
            yield ctx.finding(
                zeros[1],
                "R007",
                f"counters buffer is allocated with {zeros[0]} slots but "
                f"the C kernel '{kernel}' writes "
                f"counters[0..{c_width - 1}]",
            )
        unpack = _unpack_width(scope)
        if unpack is not None and c_width and unpack[0] != c_width:
            yield ctx.finding(
                unpack[1],
                "R007",
                f"the counters unpack binds {unpack[0]} names but the C "
                f"kernel '{kernel}' writes {c_width} counters",
            )

    # (4) Cost tables: keys are kernel outputs, values are dyadic
    # CostModel fields.
    tables = _cost_tables(ctx.tree)
    cost_model = _cost_model_module(ctx)
    fields = (
        _cost_model_fields(cost_model.tree) if cost_model is not None else None
    )
    for table_name, (table, table_node) in tables.items():
        kernel = _COST_TABLES[table_name][0]
        kernel_info = kernels.get(kernel)
        if kernel_info is not None:
            param_names = {name for name, _ in kernel_info[0]}
            for key in table:
                if f"{key}_out" not in param_names:
                    yield ctx.finding(
                        table_node,
                        "R007",
                        f"{table_name} key '{key}' has no '{key}_out' "
                        f"output parameter in the C '{kernel}' signature",
                    )
        if fields is None:
            continue
        for key, value in table.items():
            for field in _table_fields(value):
                default = fields.get(field)
                if default is None:
                    yield ctx.finding(
                        table_node,
                        "R007",
                        f"{table_name} maps '{key}' to '{field}', which "
                        "is not a CostModel field",
                    )
                    continue
                number = astutil.numeric_value(default)
                if number is None or not _is_dyadic(number):
                    yield ctx.finding(
                        table_node,
                        "R007",
                        f"CostModel.{field} defaults to "
                        f"{number if number is not None else 'a non-literal'}"
                        f" ({cost_model.path}:"
                        f"{getattr(default, 'lineno', '?')}), "
                        "which is not a dyadic rational; the native "
                        "kernel's closed-form costs are only exact for "
                        "power-of-two denominators (docs/PERFORMANCE.md)",
                    )


def _cost_model_module(ctx: ModuleContext):
    if ctx.program is None:
        return None
    return ctx.program.module_named("repro.runtime.cost_model")


def _check_kernels(ctx: ModuleContext) -> Iterator[Finding]:
    """The closed forms in kernels.py must price what the tables say."""
    if ctx.program is None:
        return
    native = ctx.program.module_named("repro.perf.native")
    if native is None:
        return
    tables = _cost_tables(native.tree)
    for table_name, (table, _) in tables.items():
        fn_name = _COST_TABLES[table_name][1]
        expected = {
            (field, counter)
            for counter, value in table.items()
            for field in _table_fields(value)
        }
        func = None
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == fn_name:
                func = node
                break
        if func is None:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "task_costs"
                for t in node.targets
            ):
                continue
            actual = set(_model_products(node.value))
            if actual != expected:
                missing = sorted(expected - actual)
                extra = sorted(actual - expected)
                detail = []
                if missing:
                    detail.append(
                        "missing "
                        + ", ".join(f"model.{f} * {c}" for f, c in missing)
                    )
                if extra:
                    detail.append(
                        "unexpected "
                        + ", ".join(f"model.{f} * {c}" for f, c in extra)
                    )
                yield ctx.finding(
                    node,
                    "R007",
                    f"task_costs closed form of {fn_name} disagrees with "
                    f"native.{table_name}: {'; '.join(detail)}",
                )
            break


def _model_products(node: ast.expr) -> Iterator[tuple[str, str]]:
    """``(field, counter)`` pairs from a sum of ``model.f * c`` terms."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        yield from _model_products(node.left)
        yield from _model_products(node.right)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left = astutil.dotted_name(node.left)
        right = astutil.dotted_name(node.right)
        if left is not None and right is not None:
            if left.startswith("model.") and "." not in right:
                yield left[len("model.") :], right
            elif right.startswith("model.") and "." not in left:
                yield right[len("model.") :], left
