"""R002 untagged-charge: every charge call must carry a ``tag=`` keyword.

The profiler and the per-phase breakdowns (Fig. 12-style "where does the
time go" plots) aggregate ledger entries *by tag*.  A charge with no tag
lands in an anonymous bucket, so an entire phase of the algorithm
disappears from every attribution report while still inflating totals —
the numbers stop adding up and nobody can say why.

R002 requires each ``parallel_for`` / ``parallel_update`` /
``sequential`` / ``barrier_only`` / ``imbalanced_step`` call to pass
``tag=`` **as a keyword** whose value is not an empty string literal,
and each ``charge_block`` call to pass its per-step ``tags=`` the same
way (not an empty literal list or tuple).  Positional string tags are
flagged too: the keyword form is what keeps call sites greppable when a
phase shows up hot in a profile.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding
from repro.lint.registry import rule


@rule(
    "R002",
    "untagged-charge",
    "charge calls must pass a non-empty tag= keyword",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        method = astutil.charge_method_of(node)
        if method is None:
            continue
        keyword = astutil.TAG_KEYWORDS.get(method, "tag")
        tag = astutil.keyword_value(node, keyword)
        if tag is None:
            positional = [
                arg
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
            ]
            if positional:
                yield ctx.finding(
                    node,
                    "R002",
                    f"{method}() passes its tag positionally; write "
                    f"{keyword}=... explicitly so profiler phases stay "
                    "greppable",
                )
            else:
                yield ctx.finding(
                    node,
                    "R002",
                    f"{method}() has no {keyword}=; untagged charges are "
                    "unattributable in profiler and metrics breakdowns",
                )
            continue
        if isinstance(tag, (ast.List, ast.Tuple)) and not tag.elts:
            yield ctx.finding(
                node,
                "R002",
                f"{method}() has an empty {keyword}=; every step needs "
                "its phase name",
            )
        elif isinstance(tag, ast.Constant) and (
            not isinstance(tag.value, str) or not tag.value.strip()
        ):
            yield ctx.finding(
                node,
                "R002",
                f"{method}() has an empty or non-string {keyword}=; give "
                "the phase a descriptive name",
            )
