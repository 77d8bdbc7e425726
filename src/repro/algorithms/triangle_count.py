"""Triangle Counting — exact node-iterator baseline and PG-enhanced version (Listing 1).

The exact algorithm orients the graph by degree order (``N+_v`` keeps only
higher-rank neighbors), then sums ``|N+_v ∩ N+_u|`` over all oriented edges;
each triangle is counted exactly once.  The whole computation is expressed with
sparse matrix algebra, the NumPy/SciPy stand-in for the paper's tuned parallel
C++ baseline.

The PG-enhanced version replaces the exact intersections with sketch-based
estimates (``|N_u ∩ N_v|^⋆``) — either over the oriented neighborhoods
(``ProbGraph(..., oriented=True)``, the direct analogue of Listing 1) or over
the full neighborhoods with the ``/3`` correction of §VII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.estimators import EstimatorKind
from ..core.probgraph import ProbGraph
from ..engine.batch import EngineConfig, scatter_add_pair_intersections, sum_pair_intersections
from ..graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.sharded import ShardedEngine

__all__ = [
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_exact",
    "triangle_count_sharded",
    "local_triangle_counts",
]


@dataclass(frozen=True)
class TriangleCountResult:
    """Triangle count plus bookkeeping used by the evaluation harness."""

    count: float
    exact: bool
    method: str

    def __float__(self) -> float:
        return float(self.count)

    def __int__(self) -> int:
        return int(round(self.count))


def triangle_count_exact(graph: CSRGraph) -> TriangleCountResult:
    """Exact TC via the oriented node-iterator (Listing 1), as sparse matrix algebra.

    With the degree-order DAG adjacency ``A+``, every triangle corresponds to
    exactly one pair of oriented edges ``v→u``, ``v→w`` with ``u→w`` also
    present, so ``TC = Σ (A+ A+) ⊙ A+``.
    """
    oriented = graph.oriented()
    adj = oriented.adjacency_matrix()
    if adj.nnz == 0:
        return TriangleCountResult(0.0, True, "exact-node-iterator")
    count = int((adj @ adj).multiply(adj).sum())
    return TriangleCountResult(float(count), True, "exact-node-iterator")


def _triangle_count_pg(
    pg: ProbGraph,
    estimator: EstimatorKind | str | None,
    config: EngineConfig | None = None,
) -> TriangleCountResult:
    if pg.oriented:
        oriented = pg.base
        src = np.repeat(np.arange(oriented.num_vertices, dtype=np.int64), oriented.degrees)
        dst = oriented.indices
        if src.size == 0:
            return TriangleCountResult(0.0, False, f"pg-{pg.representation.value}-oriented")
        total = sum_pair_intersections(pg, src, dst, estimator=estimator, config=config)
        return TriangleCountResult(total, False, f"pg-{pg.representation.value}-oriented")
    edges = pg.graph.edge_array()
    if edges.shape[0] == 0:
        return TriangleCountResult(0.0, False, f"pg-{pg.representation.value}")
    total = sum_pair_intersections(pg, edges[:, 0], edges[:, 1], estimator=estimator, config=config)
    return TriangleCountResult(total / 3.0, False, f"pg-{pg.representation.value}")


def triangle_count_sharded(
    engine: "ShardedEngine",
    estimator: EstimatorKind | str | None = None,
) -> TriangleCountResult:
    """Approximate TC served by a :class:`~repro.engine.sharded.ShardedEngine`.

    The same streamed per-edge estimate sum as the single-process PG path
    (:func:`triangle_count` on a ProbGraph with identical parameters), so the
    same float; the engine's :attr:`~repro.engine.ShardedEngine.comm` also
    counts the fixed-size sketch each cut edge would ship — the
    communication pattern §VIII-F prices out.
    """
    if engine.oriented:
        oriented = engine.base
        src = np.repeat(np.arange(oriented.num_vertices, dtype=np.int64), oriented.degrees)
        dst = oriented.indices
        method = f"pg-{engine.representation.value}-oriented-sharded"
        if src.size == 0:
            return TriangleCountResult(0.0, False, method)
        total = engine.sum_pair_intersections(src, dst, estimator=estimator)
        return TriangleCountResult(total, False, method)
    edges = engine.graph.edge_array()
    method = f"pg-{engine.representation.value}-sharded"
    if edges.shape[0] == 0:
        return TriangleCountResult(0.0, False, method)
    total = engine.sum_pair_intersections(edges[:, 0], edges[:, 1], estimator=estimator)
    return TriangleCountResult(total / 3.0, False, method)


def triangle_count(
    graph: CSRGraph | ProbGraph,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> TriangleCountResult:
    """Count triangles exactly (CSR input) or approximately (ProbGraph input).

    ProbGraph inputs execute through the batch engine: the per-edge estimates
    are streamed and reduced in memory-bounded chunks sized by ``config``
    (:class:`~repro.engine.EngineConfig`, defaults applied when omitted).
    """
    if isinstance(graph, ProbGraph):
        return _triangle_count_pg(graph, estimator, config)
    if isinstance(graph, CSRGraph):
        return triangle_count_exact(graph)
    raise TypeError(f"expected CSRGraph or ProbGraph, got {type(graph).__name__}")


def local_triangle_counts(
    graph: CSRGraph | ProbGraph,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> np.ndarray:
    """Per-vertex triangle counts ``t_v`` (each triangle contributes to all three corners).

    Exactly (CSR): ``t_v = (1/2) Σ_{u ∈ N_v} |N_v ∩ N_u|``; approximately
    (ProbGraph): the same sum with estimated intersections, accumulated through
    the engine's streaming scatter-add so the per-directed-edge estimates are
    never materialized at full length.  Used by the clustering-coefficient and
    cohesion measures of §III-A.
    """
    if isinstance(graph, ProbGraph):
        base = graph.graph
        src = np.repeat(np.arange(base.num_vertices, dtype=np.int64), base.degrees)
        dst = base.indices
        if src.size == 0:
            return np.zeros(base.num_vertices, dtype=np.float64)
        out = np.zeros(base.num_vertices, dtype=np.float64)
        scatter_add_pair_intersections(
            graph, src, dst, out, src, estimator=estimator, config=config
        )
        return out / 2.0
    if isinstance(graph, CSRGraph):
        adj = graph.adjacency_matrix()
        if adj.nnz == 0:
            return np.zeros(graph.num_vertices, dtype=np.float64)
        counts = (adj @ adj).multiply(adj).sum(axis=1)
        return np.asarray(counts).ravel().astype(np.float64) / 2.0
    raise TypeError(f"expected CSRGraph or ProbGraph, got {type(graph).__name__}")
