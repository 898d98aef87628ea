"""Generate docs/API.md from the package's public API and docstrings.

Walks ``repro``'s public modules, collects every name exported through
``__all__``, and emits a Markdown index with each item's signature and
docstring summary.  Run from the repository root:

    python tools/gen_api_docs.py [output-path]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys

PUBLIC_MODULES = (
    "repro",
    "repro.graphs",
    "repro.generators",
    "repro.runtime",
    "repro.primitives",
    "repro.structures",
    "repro.core",
    "repro.serve",
    "repro.shard",
    "repro.obs",
    "repro.analysis",
    "repro.cli",
)


def summary_of(obj) -> str:
    """First docstring line, or a placeholder."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].strip()


def signature_of(obj) -> str:
    """Best-effort call signature."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def document_module(module_name: str) -> list[str]:
    """Markdown lines for one module's public API."""
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    mod_doc = inspect.getdoc(module)
    if mod_doc:
        lines.append(mod_doc.splitlines()[0])
        lines.append("")
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = sorted(
            name for name in vars(module) if not name.startswith("_")
        )
    rows = []
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        kind = (
            "class"
            if inspect.isclass(obj)
            else "function"
            if callable(obj)
            else "constant"
        )
        sig = signature_of(obj) if kind == "function" else ""
        rows.append((name, kind, sig, summary_of(obj)))
    if rows:
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name, kind, sig, summary in rows:
            shown = f"`{name}{sig}`" if sig else f"`{name}`"
            lines.append(f"| {shown} | {kind} | {summary} |")
        lines.append("")
    return lines


def generate() -> str:
    """The full API document."""
    lines = [
        "# API index",
        "",
        "Generated by `tools/gen_api_docs.py`; regenerate after changing",
        "any public export.  Every item links back to its module's",
        "docstrings for details.",
        "",
    ]
    for module_name in PUBLIC_MODULES:
        lines.extend(document_module(module_name))
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str]) -> int:
    """Write the index; ``argv`` is ``sys.argv`` (program name first)."""
    parser = argparse.ArgumentParser(
        prog="python tools/gen_api_docs.py",
        description="Generate the Markdown API index of the repro package.",
    )
    parser.add_argument(
        "output",
        nargs="?",
        default="docs/API.md",
        help="where to write the index (default: docs/API.md)",
    )
    output = parser.parse_args(argv[1:]).output
    text = generate()
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {output} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
