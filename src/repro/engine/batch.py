"""Memory-bounded batched sketch queries — the engine's streaming execution core.

The PG-enhanced algorithms all reduce to one primitive: evaluate the estimated
``|N_u ∩ N_v|`` for a (possibly huge) list of vertex pairs.  Before the engine
existed, each algorithm materialized the full per-pair work in one monolithic
NumPy call, which makes peak memory proportional to the number of pairs — for
edge-parallel kernels that is ``O(m)`` scratch on top of the sketches, and for
link prediction it can be far larger than the graph itself.

This module streams arbitrary-length pair lists through fixed-size chunks
instead:

* the chunk size is either given explicitly (``max_chunk_pairs``) or derived
  from a byte budget via the sketch container's per-pair scratch estimate
  (:attr:`~repro.sketches.base.NeighborhoodSketches.pair_scratch_bytes`);
* chunked execution is *bit-identical* to the unchunked call — every estimator
  is a pure element-wise function of the two gathered sketch rows;
* caller vertex IDs are checked once at the boundary
  (:func:`check_vertex_ids`): an ID outside ``[0, n)`` raises ``ValueError``
  instead of aliasing another row or failing mid-chunk;
* module-level :class:`EngineStats` counters record every query/chunk/pair so
  tests and benchmarks can assert that an algorithm actually executed through
  the engine path; every update holds one module lock, so concurrent callers
  lose no counts.

See ``docs/architecture.md`` for the full caching/chunking contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.estimators import EstimatorKind, intersection_to_jaccard
from ..core.probgraph import ProbGraph
from ..graph.csr import check_vertex_ids
from ..parallel.executor import chunked_ranges
from ..sketches.base import SketchContainer

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "EngineConfig",
    "EngineStats",
    "check_vertex_ids",
    "engine_stats",
    "reset_engine_stats",
    "record_patch",
    "record_query",
    "record_topk",
    "resolve_chunk_pairs",
    "iter_pair_chunks",
    "batched_pair_intersections",
    "batched_pair_jaccard",
    "sum_pair_intersections",
    "scatter_add_pair_intersections",
]

#: Default cap on the extra (non-sketch) memory one batched query may allocate.
#: 64 MiB keeps even the widest Bloom rows at several hundred thousand pairs
#: per chunk while staying negligible next to the graph itself.
DEFAULT_MEMORY_BUDGET_BYTES = 64 << 20

#: Never stream in chunks smaller than this unless explicitly asked to —
#: NumPy dispatch overhead dominates below a few thousand pairs.
_MIN_AUTO_CHUNK_PAIRS = 4096


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for one batched query (how its pairs are chunked).

    Parameters
    ----------
    max_chunk_pairs:
        Explicit chunk size.  ``None`` (default) derives it from
        ``memory_budget_bytes`` and the sketch container's per-pair scratch
        estimate.
    memory_budget_bytes:
        Cap on the temporary memory a single batched query may allocate
        (ignored when ``max_chunk_pairs`` is given).
    """

    max_chunk_pairs: int | None = None
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES

    def __post_init__(self) -> None:
        if self.max_chunk_pairs is not None and self.max_chunk_pairs < 1:
            raise ValueError("max_chunk_pairs must be at least 1")
        if self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")


@dataclass
class EngineStats:
    """Mutable counters describing the engine's activity (mostly for tests/benchmarks).

    ``patches`` / ``patched_rows`` count *session-applied* dynamic-graph
    deltas (:meth:`repro.engine.PGSession.apply_delta`): how many cached
    sketch sets were patched and how many rows those patches touched.  Direct
    :meth:`repro.core.ProbGraph.apply_delta` calls are engine-free and track
    their own ``deltas_applied`` / ``rows_patched`` instead.  Together with
    the query counters these make the incremental path observable — queries
    stream over patched sets through exactly the same chunk contract as over
    freshly built ones.
    """

    queries: int = 0
    chunks: int = 0
    pairs: int = 0
    patches: int = 0
    patched_rows: int = 0
    topk_queries: int = 0

    def snapshot(self) -> "EngineStats":
        """An independent copy (the module-level instance keeps mutating)."""
        with _STATS_LOCK:
            return EngineStats(
                self.queries, self.chunks, self.pairs, self.patches, self.patched_rows,
                self.topk_queries,
            )


_STATS = EngineStats()
# Held by every read-modify-write of _STATS: the entry points that update it
# are thread-safe, and an unlocked `+=` from two threads loses counts.
_STATS_LOCK = threading.Lock()


def engine_stats() -> EngineStats:
    """The process-wide engine activity counters (shared by all sessions)."""
    return _STATS


def reset_engine_stats() -> None:
    """Zero the process-wide counters (test isolation helper)."""
    with _STATS_LOCK:
        _STATS.queries = 0
        _STATS.chunks = 0
        _STATS.pairs = 0
        _STATS.patches = 0
        _STATS.patched_rows = 0
        _STATS.topk_queries = 0


def record_patch(rows_touched: int) -> None:
    """Account one dynamic-delta application that patched ``rows_touched`` sketch rows."""
    with _STATS_LOCK:
        _STATS.patches += 1
        _STATS.patched_rows += int(rows_touched)


def record_query(pairs: int, chunks: int) -> None:
    """Account one batched query of ``pairs`` pairs streamed in ``chunks`` chunks.

    Every query counter update goes through here, including those of loops
    outside this module: the top-k per-source reduction streams candidate
    *windows* rather than flat pair slices, so it reports its own totals.
    """
    with _STATS_LOCK:
        _STATS.queries += 1
        _STATS.pairs += int(pairs)
        _STATS.chunks += int(chunks)


def record_topk() -> None:
    """Account one streaming top-k retrieval (see :mod:`repro.engine.topk`)."""
    with _STATS_LOCK:
        _STATS.topk_queries += 1


def resolve_chunk_pairs(sketches: SketchContainer, config: EngineConfig | None = None) -> int:
    """Pick the streaming chunk size for a query against ``sketches``.

    Explicit ``max_chunk_pairs`` wins; otherwise the memory budget is divided
    by the container's per-pair scratch estimate, floored at a minimum that
    keeps NumPy dispatch overhead negligible.
    """
    config = config or EngineConfig()
    if config.max_chunk_pairs is not None:
        return config.max_chunk_pairs
    per_pair = max(int(getattr(sketches, "pair_scratch_bytes", 64)), 1)
    return max(config.memory_budget_bytes // per_pair, _MIN_AUTO_CHUNK_PAIRS)


def _as_pair_arrays(
    u: np.ndarray, v: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have the same shape")
    return check_vertex_ids(u, num_vertices), check_vertex_ids(v, num_vertices)


def iter_pair_chunks(
    sketches: SketchContainer, total: int, config: EngineConfig | None = None
) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` windows for streaming ``total`` pairs, with accounting.

    This is the engine's edge-enumeration contract: algorithms whose inner work
    is not one ``pair_intersections`` call over the input (4-clique counting
    scores each window's triangles, about triangles × ``pair_scratch_bytes``
    of scratch) still stream through engine-sized windows and show up in
    :func:`engine_stats`.
    """
    windows = chunked_ranges(int(total), resolve_chunk_pairs(sketches, config))
    record_query(total, len(windows))
    yield from windows


def batched_pair_intersections(
    pg: ProbGraph,
    u: np.ndarray,
    v: np.ndarray,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> np.ndarray:
    """Estimate ``|N_u ∩ N_v|`` for every pair, streamed through bounded chunks.

    Bit-identical to ``pg.pair_intersections(u, v, estimator=...)`` for any
    chunk size; peak extra memory is bounded by roughly
    ``chunk * sketches.pair_scratch_bytes`` (plus the output array).
    """
    config = config or EngineConfig()
    u, v = _as_pair_arrays(u, v, pg.num_vertices)
    total = u.shape[0]
    chunk = resolve_chunk_pairs(pg.sketches, config)
    record_query(total, len(chunked_ranges(total, chunk)))
    if total == 0:
        return np.empty(0, dtype=np.float64)
    return pg.pair_intersections_chunked(u, v, chunk, estimator=estimator)


def batched_pair_jaccard(
    pg: ProbGraph,
    u: np.ndarray,
    v: np.ndarray,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> np.ndarray:
    """Approximate Jaccard ``|N_u∩N_v| / |N_u∪N_v|`` per pair, chunk-streamed.

    Matches :meth:`repro.core.ProbGraph.jaccard` element-wise (same degrees of
    the sketched base — oriented ``N+`` when the ProbGraph is oriented).
    """
    config = config or EngineConfig()
    u, v = _as_pair_arrays(u, v, pg.num_vertices)
    total = u.shape[0]
    if total == 0:
        record_query(0, 0)
        return np.empty(0, dtype=np.float64)
    inter = batched_pair_intersections(pg, u, v, estimator=estimator, config=config)
    degrees = pg.base_degrees.astype(np.float64)
    return intersection_to_jaccard(inter, degrees[u], degrees[v])


def sum_pair_intersections(
    pg: ProbGraph,
    u: np.ndarray,
    v: np.ndarray,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> float:
    """``Σ |N_u ∩ N_v|`` over all pairs with a streaming reduction.

    Unlike :func:`batched_pair_intersections`, the per-pair estimates are never
    materialized at full length — each chunk is reduced to a scalar as it is
    produced, so memory stays bounded even for the input pair arrays' worth of
    work.  This is the kernel of the edge-sum triangle-count estimators (§VII).
    """
    config = config or EngineConfig()
    u, v = _as_pair_arrays(u, v, pg.num_vertices)
    windows = chunked_ranges(u.shape[0], resolve_chunk_pairs(pg.sketches, config))
    record_query(u.shape[0], len(windows))
    acc = 0.0
    for start, stop in windows:
        acc += float(pg.pair_intersections(u[start:stop], v[start:stop], estimator=estimator).sum())
    return acc


def scatter_add_pair_intersections(
    pg: ProbGraph,
    u: np.ndarray,
    v: np.ndarray,
    out: np.ndarray,
    index: np.ndarray,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> np.ndarray:
    """Accumulate per-pair estimates into ``out[index]`` chunk by chunk.

    Streaming equivalent of ``np.add.at(out, index, pair_intersections(u, v))``
    without materializing the full estimate array — the kernel of per-vertex
    triangle counts.
    """
    config = config or EngineConfig()
    u, v = _as_pair_arrays(u, v, pg.num_vertices)
    index = np.asarray(index, dtype=np.int64).ravel()
    if index.shape != u.shape:
        raise ValueError("index must have the same shape as u and v")
    windows = chunked_ranges(u.shape[0], resolve_chunk_pairs(pg.sketches, config))
    record_query(u.shape[0], len(windows))
    for start, stop in windows:
        ests = pg.pair_intersections(u[start:stop], v[start:stop], estimator=estimator)
        np.add.at(out, index[start:stop], ests)
    return out
