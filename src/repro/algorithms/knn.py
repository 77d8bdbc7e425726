"""Sketch-approximated k-nearest-neighbor graphs over vertex similarity.

A k-NN graph connects every vertex to the ``k`` vertices most similar to it —
the backbone of similarity-based recommendation serving, graph-based
approximate search, and neighborhood-preserving sparsification.  Building one
is all-pairs-shaped (``n`` top-k retrievals over up to ``n`` candidates each),
which is exactly the workload the paper's fixed-size neighborhood sketches
accelerate: every candidate score is one estimated ``|N_u ∩ N_v|`` plus a
degree formula, so a ProbGraph evaluates a source's whole candidate row as a
single vectorized chunk at ``O(k_sketch)`` per candidate, independent of
degree skew.

The construction streams through the engine's per-source top-k reduction
(:func:`repro.engine.topk.topk_per_source`): sources are processed in bounded
batches and candidates in engine-sized windows, so peak memory is
``O(batch × (window + k))`` — the full ``n × n`` similarity matrix is never
materialized.  Works on an exact :class:`~repro.graph.csr.CSRGraph` (the
reference) and on every ProbGraph family; any
:class:`~repro.algorithms.similarity.SimilarityMeasure` is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.estimators import EstimatorKind
from ..core.probgraph import ProbGraph
from ..engine.batch import EngineConfig
from ..engine.topk import topk_per_source
from ..graph.csr import CSRGraph
from .similarity import SimilarityMeasure, similarity_scores

from ..core.budget import DEFAULT_LSH_THRESHOLD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.lsh import LSHIndex
    from ..engine.sharded import ShardedEngine

__all__ = ["KNNGraphResult", "knn_graph", "knn_graph_sharded"]

#: Default number of sources retrieved per streamed batch.
DEFAULT_SOURCE_BATCH = 1024


@dataclass(frozen=True)
class KNNGraphResult:
    """A per-vertex top-k similarity list (the k-NN graph in adjacency-list form).

    ``neighbors[v]`` holds the ``k`` most similar candidate vertex IDs of
    source ``v`` in canonical order (score descending, ID ascending on ties),
    padded with ``-1`` (score ``0.0``) when fewer than ``k`` candidates exist.
    """

    neighbors: np.ndarray  # (num_sources, k) int64, -1 padded
    scores: np.ndarray  # (num_sources, k) float64
    sources: np.ndarray  # (num_sources,) int64
    k: int
    measure: str

    @property
    def num_sources(self) -> int:
        """Number of source vertices with a retrieved neighbor list."""
        return self.sources.shape[0]

    def to_csr(self, num_vertices: int | None = None) -> CSRGraph:
        """Materialize the k-NN lists as an undirected :class:`CSRGraph`.

        Each valid ``(source, neighbor)`` retrieval becomes an edge;
        reciprocal retrievals merge (the usual symmetrized k-NN graph).
        """
        valid = self.neighbors >= 0
        src = np.repeat(self.sources, valid.sum(axis=1))
        dst = self.neighbors[valid]
        n = num_vertices
        if n is None:
            n = int(max(self.sources.max(initial=-1), self.neighbors.max(initial=-1))) + 1
        return CSRGraph.from_edges(np.stack([src, dst], axis=1), num_vertices=n)


def knn_graph(
    graph: CSRGraph | ProbGraph,
    k: int,
    measure: SimilarityMeasure | str = SimilarityMeasure.JACCARD,
    sources: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
    estimator: EstimatorKind | str | None = None,
    source_batch: int = DEFAULT_SOURCE_BATCH,
    config: EngineConfig | None = None,
    method: str = "scan",
    lsh_index: "LSHIndex | None" = None,
    lsh_threshold: float = DEFAULT_LSH_THRESHOLD,
    num_bands: int | None = None,
    rows_per_band: int | None = None,
) -> KNNGraphResult:
    """Build the top-k similarity lists of every source vertex, streamed.

    Parameters
    ----------
    graph:
        Exact :class:`CSRGraph` or any-family :class:`ProbGraph`.
    k:
        Neighbors retrieved per source.
    measure:
        Any :class:`SimilarityMeasure`; cardinality measures work on both
        graph kinds, neighbor-identity measures (Adamic–Adar, Resource
        Allocation) are exact-only as in :func:`similarity_scores`.
    sources:
        Source vertices to retrieve for (default: all vertices).
    candidates:
        Candidate pool scored against every source (default: all vertices);
        each source is always excluded from its own row.
    estimator:
        Sketch estimator override for ProbGraph scoring.
    source_batch:
        Sources retrieved per streamed pass — bounds the running state at
        ``source_batch × k`` plus one candidate window.
    config:
        Engine execution policy (chunk/window sizing).
    method:
        ``"scan"`` (default) streams every candidate through the top-k
        selector; ``"lsh"`` probes an :class:`~repro.engine.lsh.LSHIndex`
        over the ProbGraph's MinHash signatures and scores only the colliding
        candidates — sublinear per-source cost with the index's S-curve
        recall contract (Bloom/HLL sketch sets transparently fall back to the
        scan).  LSH serves the engine measures only (``"jaccard"`` /
        ``"common_neighbors"``).
    lsh_index:
        Pre-built index to probe (e.g. a session-cached
        :meth:`~repro.engine.PGSession.lsh_index`); built on the fly when
        omitted.
    lsh_threshold, num_bands, rows_per_band:
        Band/row parametrization forwarded to the on-the-fly index
        construction (see :class:`~repro.engine.lsh.LSHIndex`).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if source_batch < 1:
        raise ValueError("source_batch must be at least 1")
    if method not in ("scan", "lsh"):
        raise ValueError(f"method must be 'scan' or 'lsh', got {method!r}")
    measure = SimilarityMeasure(measure)
    if sources is None:
        sources = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64).ravel()

    if method == "lsh":
        if lsh_index is None:
            from ..engine.lsh import LSHIndex as _LSHIndex

            if not isinstance(graph, ProbGraph):
                raise ValueError(
                    "method='lsh' needs a ProbGraph — the bucket tables are "
                    "built from its sketch signatures"
                )
            lsh_index = _LSHIndex(
                graph, num_bands=num_bands, rows_per_band=rows_per_band,
                threshold=lsh_threshold,
            )
        if measure is SimilarityMeasure.JACCARD:
            engine_measure = "jaccard"
        elif measure is SimilarityMeasure.COMMON_NEIGHBORS:
            engine_measure = "common_neighbors"
        else:
            raise ValueError(
                f"measure {measure.value!r} is not servable through the LSH "
                "index; use 'jaccard' or 'common_neighbors'"
            )

    neighbor_blocks = []
    score_blocks = []
    for start in range(0, sources.shape[0], source_batch):
        batch = sources[start:start + source_batch]
        if method == "lsh":
            result = lsh_index.topk_similar_batch(
                batch, k, measure=engine_measure, candidates=candidates,
                estimator=estimator, config=config,
            )
        else:
            def score_chunk(u_chunk: np.ndarray, v_chunk: np.ndarray) -> np.ndarray:
                chunk_pairs = np.stack([u_chunk, v_chunk], axis=1)
                return similarity_scores(
                    graph, chunk_pairs, measure=measure, estimator=estimator, config=config
                )

            result = topk_per_source(
                graph, batch, k, candidates=candidates, score=score_chunk, config=config
            )
        neighbor_blocks.append(result.indices)
        score_blocks.append(result.scores)
    if neighbor_blocks:
        neighbors = np.concatenate(neighbor_blocks, axis=0)
        scores = np.concatenate(score_blocks, axis=0)
    else:
        width = min(k, (candidates.shape[0] if candidates is not None else graph.num_vertices))
        neighbors = np.empty((0, width), dtype=np.int64)
        scores = np.empty((0, width), dtype=np.float64)
    return KNNGraphResult(neighbors, scores, sources, int(neighbors.shape[1]), measure.value)


def knn_graph_sharded(
    engine: "ShardedEngine",
    k: int,
    measure: SimilarityMeasure | str = SimilarityMeasure.JACCARD,
    sources: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
    estimator: EstimatorKind | str | None = None,
    source_batch: int = DEFAULT_SOURCE_BATCH,
) -> KNNGraphResult:
    """Build per-vertex top-k similarity lists on a sharded engine.

    The sharded counterpart of :func:`knn_graph`: every source batch is
    retrieved through
    :meth:`~repro.engine.sharded.ShardedEngine.top_k_similar_batch`, which
    counts each source's shipments to the candidate-owning shards, and the
    resulting lists are bit-identical to :func:`knn_graph` on the equivalent
    single-process ProbGraph.  Only the engine-level measures are available
    (``"jaccard"`` and ``"common_neighbors"``); neighbor-identity measures
    need the exact CSR path.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if source_batch < 1:
        raise ValueError("source_batch must be at least 1")
    measure = SimilarityMeasure(measure)
    if measure is SimilarityMeasure.JACCARD:
        engine_measure = "jaccard"
    elif measure is SimilarityMeasure.COMMON_NEIGHBORS:
        engine_measure = "common_neighbors"
    else:
        raise ValueError(
            f"measure {measure.value!r} is not servable on a sharded engine; "
            "use 'jaccard' or 'common_neighbors'"
        )
    if sources is None:
        sources = np.arange(engine.num_vertices, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64).ravel()
    neighbor_blocks = []
    score_blocks = []
    for start in range(0, sources.shape[0], source_batch):
        batch = sources[start:start + source_batch]
        result = engine.top_k_similar_batch(
            batch, k, measure=engine_measure, candidates=candidates, estimator=estimator
        )
        neighbor_blocks.append(result.indices)
        score_blocks.append(result.scores)
    if neighbor_blocks:
        neighbors = np.concatenate(neighbor_blocks, axis=0)
        scores = np.concatenate(score_blocks, axis=0)
    else:
        width = min(k, (candidates.shape[0] if candidates is not None else engine.num_vertices))
        neighbors = np.empty((0, width), dtype=np.int64)
        scores = np.empty((0, width), dtype=np.float64)
    return KNNGraphResult(neighbors, scores, sources, int(neighbors.shape[1]), measure.value)
