"""Maintaining coreness over a stream of edge updates.

A fraud-detection or social-feed pipeline cannot re-decompose a graph on
every new follow/unfollow.  This example feeds a stream of edge
insertions and deletions, one edge at a time, into
:class:`repro.core.BatchDynamicKCore`, which repairs coreness locally
(only the affected subcores are re-peeled), and cross-checks the result
against a full recomputation.

Run:  python examples/streaming_core_maintenance.py
"""

import numpy as np

from repro.core.batch_dynamic import BatchDynamicKCore
from repro.core.verify import reference_coreness
from repro.generators import barabasi_albert
from repro.graphs.transform import all_edges


def main() -> None:
    graph = barabasi_albert(
        5_000, 10, seed=3, attach_min=2, name="stream-base"
    )
    print(f"base graph: n={graph.n:,}, edges={graph.num_edges:,}, "
          f"k_max={int(reference_coreness(graph).max())}")

    dyn = BatchDynamicKCore(graph)
    rng = np.random.default_rng(99)
    existing = all_edges(graph)

    total_risers = 0
    total_droppers = 0
    for step in range(500):
        if rng.random() < 0.5:
            u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
            if u != v:  # self-loops are rejected
                total_risers += dyn.insert_edge(u, v).size
        else:
            idx = int(rng.integers(existing.shape[0]))
            u, v = (int(x) for x in existing[idx])
            total_droppers += dyn.delete_edge(u, v).size

    print(f"after 500 streamed updates ({dyn.updates} effective):")
    print(f"  coreness increases propagated to {total_risers} vertices")
    print(f"  coreness decreases propagated to {total_droppers} vertices")
    print(f"  vertices touched per update: "
          f"{dyn.touched_vertices / max(dyn.updates, 1):.1f} "
          f"(vs {graph.n} for a full recompute)")

    recomputed = reference_coreness(dyn.snapshot())
    assert np.array_equal(dyn.coreness, recomputed)
    print("maintained coreness verified against a full recomputation.")


if __name__ == "__main__":
    main()
