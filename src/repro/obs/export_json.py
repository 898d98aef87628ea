"""Schema-versioned, bit-deterministic JSON snapshot exporter.

The snapshot is the registry's canonical serialization of its ``sim``
family and marks: sorted keys, fixed indentation, a trailing newline,
and the ``OBS_SCHEMA_VERSION`` tag — two same-seed runs of the same
workload serialize to byte-equal files, in either kernel mode and at
any pool size (``tests/test_obs.py`` pins it).
"""

from __future__ import annotations

import json

from repro.obs.registry import MetricsRegistry


def render_json(registry: MetricsRegistry) -> str:
    """The snapshot serialized with a stable key order."""
    return json.dumps(registry.to_snapshot(), indent=1, sort_keys=True)


def write_snapshot(registry: MetricsRegistry, path: str) -> str:
    """Write the JSON snapshot to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(registry))
        handle.write("\n")
    return path
