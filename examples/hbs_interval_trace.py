"""Tracing the hierarchical bucketing structure — the paper's Fig. 4.

The HBS keeps single-key buckets for the next eight coreness values and
dyadic range buckets beyond them; when a range bucket becomes the
minimum it *splits* into a refined layout and its members redistribute.
This example decomposes a graph with a wide degree spread and prints the
interval layout each time the front of the structure changes — the
textual version of Fig. 4's rows.

Run:  python examples/hbs_interval_trace.py
"""

import numpy as np

from repro.core.peel_online import OnlinePeel
from repro.core.state import PeelState
from repro.generators import hcns
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.runtime.simulator import SimRuntime
from repro.structures.hbs import HierarchicalBuckets


def format_layout(intervals, limit=9):
    parts = []
    for lo, hi in intervals[:limit]:
        parts.append(f"[{lo}]" if lo == hi else f"[{lo}-{hi}]")
    if len(intervals) > limit:
        parts.append("...")
    return " ".join(parts)


def main() -> None:
    # High-coreness chain + clique: keys spread from 1 to 64.
    graph = hcns(64)
    print(f"graph: n={graph.n}, max degree {graph.max_degree}\n")

    runtime = SimRuntime()
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(graph.n, dtype=bool)
    coreness = np.zeros(graph.n, dtype=np.int64)
    structure = HierarchicalBuckets()
    structure.build(graph, dtilde, peeled, runtime)
    peel = OnlinePeel()
    state = PeelState(
        graph=graph, dtilde=dtilde, peeled=peeled, coreness=coreness,
        runtime=runtime, buckets=structure,
        scratch=KernelScratch(graph, kernel_mode()),
    )

    print(f"initial layout: {format_layout(structure._intervals)}\n")
    last = None
    while True:
        step = structure.next_round()
        if step is None:
            break
        k, frontier = step
        layout = format_layout(structure._intervals)
        if layout != last:
            print(f"k={k:>3d} (|F|={frontier.size:>3d})  {layout}")
            last = layout
        while frontier.size:
            coreness[frontier] = k
            peeled[frontier] = True
            frontier = peel.subround(state, frontier, k)

    print(f"\ndone: k_max = {int(coreness.max())}; every split "
          f"re-buckets only the front interval's members — O(log d) "
          f"moves per vertex, the bound of Sec. 5.2.")


if __name__ == "__main__":
    main()
