"""repro — ProbGraph: high-performance approximate graph mining with probabilistic set representations.

Reproduction of Besta et al., "ProbGraph" (SC 2022).  The public API mirrors
the paper's usage pattern (Listing 6): build a :class:`~repro.graph.CSRGraph`,
wrap it in a :class:`~repro.core.ProbGraph` with a chosen representation and
storage budget, and run the mining algorithms in :mod:`repro.algorithms`
against either object.

Quick start::

    from repro import CSRGraph, ProbGraph, triangle_count
    from repro.graph import kronecker_graph

    g = kronecker_graph(scale=12, edge_factor=8, seed=1)
    pg = ProbGraph(g, representation="bloom", storage_budget=0.25)
    exact = triangle_count(g)
    approx = triangle_count(pg)
    print(float(approx) / float(exact))

For repeated query traffic, open a :class:`~repro.engine.PGSession` — it
caches sketch construction across queries and streams batched pair queries
through memory-bounded chunks::

    from repro import PGSession

    session = PGSession()
    pg = session.probgraph(g, representation="bloom")   # built once, cached
    ests = session.pair_intersections(pg, u, v)         # chunk-streamed

For evolving graphs, apply batched edge updates through a
:class:`~repro.dynamic.DynamicGraph` and patch the cached sketches in place
instead of rebuilding them::

    from repro import DynamicGraph

    dyn = DynamicGraph(g)
    delta = dyn.apply_edges(insertions=[(0, 42), (7, 13)])
    session.apply_delta(delta)       # touched sketch rows patched, cache kept
"""

from .algorithms import (
    SimilarityMeasure,
    evaluate_link_prediction,
    four_clique_count,
    jarvis_patrick_clustering,
    knn_graph,
    knn_graph_sharded,
    local_clustering_coefficients,
    multihop_cardinalities,
    similarity,
    similarity_scores,
    triangle_count,
    triangle_count_exact,
    triangle_count_sharded,
)
from .core import (
    EstimatorKind,
    ProbGraph,
    Representation,
    estimate_triangles,
    resolve_lsh_params,
)
from .dynamic import DynamicGraph, EdgeBatch, EdgeStream, GraphDelta
from .engine import (
    EngineConfig,
    LSHIndex,
    PGSession,
    ShardSkewStats,
    ShardedEngine,
    StaleShardError,
    TopKResult,
    topk_pair_scores,
    topk_per_source,
)
from .graph import CSRGraph, kronecker_graph, load_dataset, partition_graph

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "CSRGraph",
    "ProbGraph",
    "Representation",
    "EstimatorKind",
    "PGSession",
    "EngineConfig",
    "LSHIndex",
    "ShardedEngine",
    "ShardSkewStats",
    "StaleShardError",
    "resolve_lsh_params",
    "partition_graph",
    "DynamicGraph",
    "EdgeStream",
    "EdgeBatch",
    "GraphDelta",
    "triangle_count",
    "triangle_count_exact",
    "triangle_count_sharded",
    "estimate_triangles",
    "four_clique_count",
    "jarvis_patrick_clustering",
    "similarity",
    "similarity_scores",
    "SimilarityMeasure",
    "evaluate_link_prediction",
    "local_clustering_coefficients",
    "multihop_cardinalities",
    "knn_graph",
    "knn_graph_sharded",
    "TopKResult",
    "topk_pair_scores",
    "topk_per_source",
    "kronecker_graph",
    "load_dataset",
]
