"""Peeling-process introspection: wave structure and frontier profiles.

The paper's Fig. 3 illustrates *why* grids are adversarial: peeling
proceeds in O(sqrt(n)) diagonal waves of tiny frontiers.  These helpers
expose that structure — which subround each vertex falls in and how big
every frontier was — for analysis, visualization and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.peel_online import OnlinePeel
from repro.core.state import PeelState
from repro.core.vgc import VGCConfig
from repro.graphs.csr import CSRGraph
from repro.perf import kernel_mode
from repro.perf.kernels import KernelScratch
from repro.primitives.bitops import sorted_unique
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.simulator import SimRuntime
from repro.structures.single_bucket import SingleBucket


@dataclass(frozen=True)
class PeelingProfile:
    """Wave structure of one peeling execution.

    Attributes:
        wave: Per-vertex subround index (1-based, global across rounds).
        round_of: Per-vertex peeling round (== coreness).
        frontier_sizes: Size of every subround's frontier, in order.
    """

    wave: np.ndarray
    round_of: np.ndarray
    frontier_sizes: list[int]

    @property
    def subrounds(self) -> int:
        return len(self.frontier_sizes)

    def waves_in_round(self, k: int) -> int:
        """Number of subrounds executed within round ``k``."""
        mask = self.round_of == k
        if not mask.any():
            return 0
        waves = sorted_unique(self.wave[mask])
        return int(waves.size)


def peeling_profile(
    graph: CSRGraph,
    vgc: bool = False,
    queue_size: int = 128,
    model: CostModel = DEFAULT_COST_MODEL,
) -> PeelingProfile:
    """Run the online peel and record which subround claims each vertex.

    With ``vgc=True`` vertices absorbed by a local search share their
    seed's subround — exactly the wave-merging of the paper's Fig. 3(b).
    """
    runtime = SimRuntime(model)
    n = graph.n
    dtilde = graph.degrees.astype(np.int64).copy()
    peeled = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    buckets = SingleBucket()
    buckets.build(graph, dtilde, peeled, runtime)
    peel = OnlinePeel(vgc=VGCConfig(queue_size) if vgc else None)
    state = PeelState(
        graph=graph,
        dtilde=dtilde,
        peeled=peeled,
        coreness=coreness,
        runtime=runtime,
        buckets=buckets,
        scratch=KernelScratch(graph, kernel_mode(runtime.registry)),
    )

    wave = np.zeros(n, dtype=np.int64)
    round_of = np.zeros(n, dtype=np.int64)
    frontier_sizes: list[int] = []
    current_wave = 0
    while True:
        step = buckets.next_round()
        if step is None:
            break
        k, frontier = step
        while frontier.size:
            current_wave += 1
            before = peeled.copy()
            coreness[frontier] = k
            peeled[frontier] = True
            frontier = peel.subround(state, frontier, k)
            newly = np.nonzero(peeled & ~before)[0]
            wave[newly] = current_wave
            round_of[newly] = k
            frontier_sizes.append(int(newly.size))
    return PeelingProfile(
        wave=wave, round_of=round_of, frontier_sizes=frontier_sizes
    )


def render_wave_grid(profile: PeelingProfile, rows: int, cols: int) -> str:
    """ASCII view of the waves on a grid graph (Fig. 3 as text).

    Each cell shows its subround index modulo 10; deeper waves read as
    rings closing in from the corners.
    """
    if profile.wave.size != rows * cols:
        raise ValueError("profile does not match the grid dimensions")
    lines = []
    for r in range(rows):
        row = profile.wave[r * cols : (r + 1) * cols]
        lines.append("".join(str(int(w) % 10) for w in row))
    return "\n".join(lines)
