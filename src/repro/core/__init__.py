"""The paper's algorithms: framework, techniques, baselines, verification,
plus the related-problem extensions (dynamic maintenance, approximation,
applications, core hierarchy)."""

from repro.core.anchored import (
    AnchorResult,
    anchor_greedy,
    anchored_kcore,
)
from repro.core.applications import (
    DensestSubgraphResult,
    densest_subgraph_peel,
    greedy_degeneracy_coloring,
    influence_ranking,
    onion_layers,
)
from repro.core.approximate import approximate_coreness, approximation_phases
from repro.core.batch_dynamic import BatchDynamicKCore, BatchResult
from repro.core.dcore import dcore_in_decomposition, dcore_subgraph
from repro.core.collapse import CollapseResult, collapse_kcore_greedy
from repro.core.densest_exact import Dinic, exact_densest_subgraph

from repro.core.external import (
    SemiExternalResult,
    semi_external_coreness,
    write_edge_file,
)
from repro.core.generalized import (
    DegreeFunction,
    WeightedDegreeFunction,
    generalized_cores,
    symmetric_arc_weights,
    weighted_coreness,
)
from repro.core.hierarchy import (
    CoreComponent,
    core_hierarchy,
    hierarchy_levels,
)
from repro.core.framework import (
    BUCKET_CHOICES,
    FrameworkConfig,
    decompose,
    make_buckets,
)
from repro.core.locality import h_index, hindex_coreness
from repro.core.nucleus import (
    enumerate_triangles,
    max_nucleus_34,
    nucleus_decomposition_34,
)
from repro.core.parallel_kcore import ParallelKCore, kcore
from repro.core.result import CorenessResult
from repro.core.sampling import (
    SamplingConfig,
    SamplingState,
    default_mu,
)
from repro.core.sequential import bz_core, degeneracy, degeneracy_order
from repro.core.state import PeelState
from repro.core.subgraph import SubgraphResult, max_kcore_subgraph
from repro.core.truss import (
    ktruss_subgraph,
    max_trussness,
    triangle_support,
    truss_decomposition,
)
from repro.core.truss_parallel import (
    truss_decomposition_bucketed,
    trussness_bucketed,
)
from repro.core.verify import (
    assert_valid_decomposition,
    check_core_membership,
    check_coreness,
    reference_coreness,
)
from repro.core.vgc import DEFAULT_QUEUE_SIZE, VGCConfig

__all__ = [
    "BUCKET_CHOICES",
    "BatchDynamicKCore",
    "BatchResult",
    "CoreComponent",
    "DensestSubgraphResult",
    "approximate_coreness",
    "approximation_phases",
    "core_hierarchy",
    "dcore_in_decomposition",
    "dcore_subgraph",
    "AnchorResult",
    "anchor_greedy",
    "anchored_kcore",
    "CollapseResult",
    "collapse_kcore_greedy",
    "Dinic",
    "exact_densest_subgraph",
    "SemiExternalResult",
    "semi_external_coreness",
    "write_edge_file",
    "DegreeFunction",
    "WeightedDegreeFunction",
    "generalized_cores",
    "symmetric_arc_weights",
    "weighted_coreness",
    "densest_subgraph_peel",
    "greedy_degeneracy_coloring",
    "h_index",
    "hierarchy_levels",
    "hindex_coreness",
    "influence_ranking",
    "onion_layers",
    "CorenessResult",
    "DEFAULT_QUEUE_SIZE",
    "FrameworkConfig",
    "ParallelKCore",
    "PeelState",
    "SamplingConfig",
    "SamplingState",
    "SubgraphResult",
    "VGCConfig",
    "assert_valid_decomposition",
    "bz_core",
    "check_core_membership",
    "check_coreness",
    "decompose",
    "default_mu",
    "degeneracy",
    "degeneracy_order",
    "kcore",
    "ktruss_subgraph",
    "max_trussness",
    "enumerate_triangles",
    "max_nucleus_34",
    "nucleus_decomposition_34",
    "triangle_support",
    "truss_decomposition",
    "truss_decomposition_bucketed",
    "trussness_bucketed",
    "make_buckets",
    "max_kcore_subgraph",
    "reference_coreness",
]
