"""Streaming top-k retrieval over pair scores — the engine's selection layer.

Every "find the most similar vertices" serving scenario, and the paper's
link-prediction protocol (Listing 5), reduces to *top-k selection over pair
scores*.  Materializing the full candidate score array and full-sorting it
with ``np.argsort`` makes peak memory (and sort work) proportional to the
number of candidates — exactly the failure mode the chunked batch engine was
built to avoid.  This module keeps only an ``O(k)`` running selection per
query instead:

* each engine-sized chunk of the candidate list is scored and reduced to its
  own top-k with ``np.argpartition`` (linear in the chunk), then merged with
  the running selection (``O(k log k)``);
* the result is **bit-consistent** with a full materialize-and-argsort
  reference under the canonical order *score descending, index ascending on
  ties* — :func:`materialized_topk` is that reference, and the test suite
  asserts exact ``(index, score)`` equality for every representation, chunk
  size, and orientation;
* peak extra memory is ``O(chunk + k)`` regardless of how many candidates are
  scored (asserted in ``benchmarks/bench_topk.py``).

Tie handling is exact, not best-effort: within a chunk, ``np.argpartition``
only bounds the selected *values*, so the members of the score group sitting
on the k-th boundary are re-selected by ascending index before the merge.
The merge itself relies on an ordering invariant — candidates are consumed in
ascending index order, so a stable descending-score sort of ``[running |
chunk]`` breaks every tie group by ascending index automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.estimators import EstimatorKind, intersection_to_jaccard
from ..core.probgraph import ProbGraph
from ..graph.csr import CSRGraph
from ..parallel.executor import chunked_ranges
from .batch import (
    EngineConfig,
    _as_pair_arrays,
    check_vertex_ids,
    iter_pair_chunks,
    record_query,
    record_topk,
    resolve_chunk_pairs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sharded import ShardedEngine

__all__ = [
    "TopKResult",
    "materialized_topk",
    "topk_pair_scores",
    "topk_per_source",
]

#: Built-in score kinds evaluable on both CSR graphs and ProbGraphs.
_BUILTIN_SCORES = ("jaccard", "intersection", "common_neighbors")

#: A chunk-wise scoring callable: ``(u_chunk, v_chunk) -> scores`` (float64).
ScoreFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TopKResult:
    """A top-k selection: parallel ``indices`` / ``scores`` arrays.

    For :func:`topk_pair_scores` the arrays are 1-D and ``indices`` are
    positions into the scored pair list.  For :func:`topk_per_source` they are
    ``(num_sources, k)`` and ``indices`` are candidate vertex IDs, padded with
    ``-1`` (score ``0.0``) for sources with fewer than ``k`` valid candidates.
    Rows are in canonical order: score descending, index ascending on ties.
    """

    indices: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


def _resolve_score_fn(
    graph: "CSRGraph | ProbGraph | ShardedEngine",
    score: str | ScoreFn,
    estimator: EstimatorKind | str | None,
) -> ScoreFn:
    """Turn a score spec into a chunk-wise callable ``(u, v) -> float64 scores``.

    Built-in kinds cover the two serving-shaped measures evaluable at engine
    level (``"jaccard"`` and ``"intersection"``/``"common_neighbors"``); any
    other measure is injected as a callable by the algorithm layer
    (:mod:`repro.algorithms.knn` routes all similarity measures this way).
    A :class:`~repro.engine.sharded.ShardedEngine` scores like the ProbGraph
    it serves, through its shipment-counting ``pair_intersections``.
    """
    from .sharded import ShardedEngine

    if callable(score):
        return score
    if score not in _BUILTIN_SCORES:
        raise ValueError(
            f"unknown score {score!r}; expected one of {_BUILTIN_SCORES} or a callable"
        )
    if isinstance(graph, (ProbGraph, ShardedEngine)):
        def intersections(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            return np.asarray(graph.pair_intersections(u, v, estimator=estimator), dtype=np.float64)
        degrees = graph.base_degrees.astype(np.float64)
    elif isinstance(graph, CSRGraph):
        def intersections(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            return graph.common_neighbors_pairs(u, v).astype(np.float64)
        degrees = graph.degrees.astype(np.float64)
    else:
        raise TypeError(
            f"expected CSRGraph, ProbGraph or ShardedEngine, got {type(graph).__name__}"
        )
    if score in ("intersection", "common_neighbors"):
        return intersections

    def jaccard(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        inter = intersections(u, v)
        return intersection_to_jaccard(inter, degrees[u], degrees[v])

    return jaccard


def materialized_topk(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference selection: full stable argsort, canonical tie order.

    Returns ``(positions, scores)`` of the ``k`` largest entries, ordered by
    score descending and position ascending on ties.  The streaming functions
    below are bit-consistent with this for any chunking.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positions = np.argsort(-scores, kind="stable")[: max(int(k), 0)]
    return positions.astype(np.int64), scores[positions]


def _chunk_topk_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """Canonical top-k positions within one chunk, ``O(chunk + k log k)``.

    ``np.argpartition`` narrows to the k largest *values*; the score group on
    the k-th boundary is then refilled by ascending position so ties resolve
    exactly as the materialized reference does.
    """
    n = scores.shape[0]
    if n <= k:
        return np.argsort(-scores, kind="stable")
    threshold = np.partition(scores, n - k)[n - k]  # the k-th largest value
    above = np.flatnonzero(scores > threshold)
    tied = np.flatnonzero(scores == threshold)[: k - above.size]
    selected = np.concatenate([above, tied])
    # Ties live entirely inside `above` or inside `tied`, and both are in
    # ascending position order, so the stable sort yields canonical order.
    return selected[np.argsort(-scores[selected], kind="stable")]


def _merge_topk(
    best_idx: np.ndarray,
    best_scores: np.ndarray,
    chunk_idx: np.ndarray,
    chunk_scores: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge a chunk's canonical top-k into the running selection (``O(k log k)``).

    Requires every ``chunk_idx`` to exceed every ``best_idx`` (candidates are
    consumed in ascending index order), which makes the stable sort's tie
    behaviour equal to ascending-index order.
    """
    idx = np.concatenate([best_idx, chunk_idx])
    scores = np.concatenate([best_scores, chunk_scores])
    keep = np.argsort(-scores, kind="stable")[:k]
    return idx[keep], scores[keep]


def topk_pair_scores(
    graph: CSRGraph | ProbGraph,
    u: np.ndarray,
    v: np.ndarray,
    k: int,
    score: str | ScoreFn = "jaccard",
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> TopKResult:
    """Top-k pair positions by score, streamed through engine-sized chunks.

    Scores the pair list ``(u[i], v[i])`` chunk by chunk and keeps only the
    running top-k selection — the full score array is never materialized, so
    peak extra memory is ``O(chunk + k)`` instead of ``O(len(u))``.  Returns
    positions into the pair list with their scores, in canonical order (score
    descending, position ascending on ties) — exactly
    ``materialized_topk(all_scores, k)``.

    ``score`` is ``"jaccard"``, ``"intersection"``/``"common_neighbors"``, or
    a chunk-wise callable ``(u_chunk, v_chunk) -> scores`` (how the algorithm
    layer injects arbitrary similarity measures).  Built-in scores are
    evaluated engine-free, so this function accounts their pairs/chunks in
    :func:`engine_stats`; an injected callable is expected to account for its
    own engine activity (e.g. via ``batched_pair_intersections``) and only
    the chunk windows are recorded, never the pairs twice.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    u, v = _as_pair_arrays(u, v, graph.num_vertices)
    total = u.shape[0]
    k = min(int(k), total)
    record_topk()
    if k == 0 or total == 0:
        return TopKResult(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    score_fn = _resolve_score_fn(graph, score, estimator)
    sketches = getattr(graph, "sketches", graph)
    if callable(score):
        windows = chunked_ranges(total, resolve_chunk_pairs(sketches, config))
    else:
        windows = iter_pair_chunks(sketches, total, config)
    best_idx = np.empty(0, dtype=np.int64)
    best_scores = np.empty(0, dtype=np.float64)
    for start, stop in windows:
        chunk_scores = np.asarray(score_fn(u[start:stop], v[start:stop]), dtype=np.float64)
        sel = _chunk_topk_positions(chunk_scores, k)
        best_idx, best_scores = _merge_topk(
            best_idx, best_scores, start + sel, chunk_scores[sel], k
        )
    return TopKResult(best_idx, best_scores)


def topk_per_source(
    graph: CSRGraph | ProbGraph,
    sources: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
    score: str | ScoreFn = "jaccard",
    estimator: EstimatorKind | str | None = None,
    exclude_self: bool = True,
    config: EngineConfig | None = None,
) -> TopKResult:
    """Per-source top-k candidate retrieval — the multi-source serving batch shape.

    For every vertex in ``sources``, scores it against every vertex in
    ``candidates`` (default: all vertices) and keeps that source's top-k.
    Candidates are streamed in ascending-index windows sized so that
    ``num_sources × window`` stays at the engine's pair-chunk budget; the
    running state is one ``(num_sources, k)`` selection.

    Returns a :class:`TopKResult` with ``(num_sources, k)`` arrays —
    ``indices`` are candidate vertex IDs in canonical per-row order, padded
    with ``-1`` (score ``0.0``) when a source has fewer than ``k`` valid
    candidates.  Bit-consistent with materializing each source's full
    candidate score row and running :func:`materialized_topk` on it.

    ``candidates`` are deduplicated and sorted (required by the tie-order
    contract); ``exclude_self`` drops each source from its own candidate row.
    Scores must be finite — ``-inf``/``nan`` are reserved as the internal
    padding/exclusion sentinel and raise ``ValueError`` (every built-in
    measure is finite by construction).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    num_vertices = graph.num_vertices
    sources = check_vertex_ids(sources, num_vertices, "sources")
    if candidates is None:
        candidates = np.arange(num_vertices, dtype=np.int64)
    else:
        candidates = np.unique(check_vertex_ids(candidates, num_vertices, "candidates"))
    num_sources = sources.shape[0]
    total_candidates = candidates.shape[0]
    k = min(int(k), total_candidates)
    record_topk()
    if num_sources == 0 or k == 0:
        return TopKResult(
            np.empty((num_sources, k), dtype=np.int64),
            np.empty((num_sources, k), dtype=np.float64),
        )
    score_fn = _resolve_score_fn(graph, score, estimator)
    sketches = getattr(graph, "sketches", graph)
    chunk_pairs = resolve_chunk_pairs(sketches, config)
    window = max(chunk_pairs // num_sources, 1)
    windows = chunked_ranges(total_candidates, window)
    if callable(score):
        # The callable accounts its own engine activity; only record the query.
        record_query(0, len(windows))
    else:
        record_query(num_sources * total_candidates, len(windows))

    best_idx = np.full((num_sources, k), -1, dtype=np.int64)
    best_scores = np.full((num_sources, k), -np.inf, dtype=np.float64)
    for start, stop in windows:
        cand = candidates[start:stop]
        width = cand.shape[0]
        uu = np.repeat(sources, width)
        vv = np.tile(cand, num_sources)
        scores = np.asarray(score_fn(uu, vv), dtype=np.float64).reshape(num_sources, width)
        if not np.all(np.isfinite(scores)):
            raise ValueError(
                "per-source top-k scores must be finite (-inf/nan are reserved "
                "as the padding/exclusion sentinel)"
            )
        if exclude_self:
            # np.where (not in-place masking): `scores` may be a view of the
            # callable's own buffer, e.g. rows served from a cached matrix.
            scores = np.where(sources[:, None] == cand[None, :], -np.inf, scores)
        merged_scores = np.concatenate([best_scores, scores], axis=1)
        merged_idx = np.concatenate(
            [best_idx, np.broadcast_to(cand, (num_sources, width))], axis=1
        )
        # Running entries (earlier, smaller candidate IDs, canonical rows) come
        # first, so the stable sort breaks score ties by ascending candidate ID.
        order = np.argsort(-merged_scores, axis=1, kind="stable")[:, :k]
        best_scores = np.take_along_axis(merged_scores, order, axis=1)
        best_idx = np.take_along_axis(merged_idx, order, axis=1)
    invalid = ~np.isfinite(best_scores)
    best_idx[invalid] = -1
    best_scores[invalid] = 0.0
    return TopKResult(best_idx, best_scores)
