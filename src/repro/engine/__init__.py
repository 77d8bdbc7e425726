"""Batched sketch-query engine: session caching + memory-bounded streaming.

This package is the execution layer between the sketch containers
(:mod:`repro.sketches`) and the graph-mining algorithms
(:mod:`repro.algorithms`):

* :class:`PGSession` caches built sketch sets keyed by
  ``(graph fingerprint, resolved params, oriented, seed)`` so repeated queries
  and multi-algorithm runs reuse one construction pass;
* :func:`batched_pair_intersections` / :func:`batched_pair_jaccard` /
  :func:`sum_pair_intersections` / :func:`scatter_add_pair_intersections`
  stream arbitrary-length pair lists through fixed-size, memory-bounded chunks,
  rejecting vertex IDs outside ``[0, n)`` at the boundary;
* :func:`topk_pair_scores` / :func:`topk_per_source` keep an ``O(k)`` running
  selection over streamed pair scores (top-k retrieval — the serving and
  link-prediction query shape — without materializing the score array);
* :class:`ShardedEngine` serves one :class:`~repro.core.ProbGraph` through
  the functions above (bit-identical to the single-process path) and counts
  the sketch shipments a distributed run of each query would make over its
  vertex shards (§VIII-F);
* :class:`LSHIndex` bands the MinHash signature matrix of a ProbGraph or
  a ShardedEngine into one bucket table of global vertex IDs and serves
  top-k/kNN by scoring only colliding candidates — sublinear probes with an
  S-curve recall contract, falling back to the source's full scan for
  Bloom/HLL.  ``exact=True`` returns the full scan's answer: a k-hash index
  with one slot per band answers it from its tables (as it does a
  ShardedEngine's top-k while alive over the engine's rows); other splits,
  families and callable measures run the scan.  Engine patches mark touched
  rows and the next read re-keys them; ``repartition()`` needs no LSH work;
* :func:`engine_stats` exposes process-wide activity counters so the engine
  path is observable.

All PG-enhanced pair loops in :mod:`repro.algorithms` route through here; see
``docs/architecture.md``.
"""

from .batch import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    EngineConfig,
    EngineStats,
    batched_pair_intersections,
    batched_pair_jaccard,
    engine_stats,
    iter_pair_chunks,
    record_patch,
    reset_engine_stats,
    resolve_chunk_pairs,
    scatter_add_pair_intersections,
    sum_pair_intersections,
)
from .lsh import (
    DEFAULT_LSH_THRESHOLD,
    LSHIndex,
    LSHIndexStats,
    select_topk_rows,
    signature_matrix,
)
from .session import PGSession, SessionStats, default_session
from .sharded import (
    ShardCommStats,
    ShardSkewStats,
    ShardedEngine,
    StaleShardError,
)
from .topk import TopKResult, materialized_topk, topk_pair_scores, topk_per_source

__all__ = [
    "DEFAULT_LSH_THRESHOLD",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "EngineConfig",
    "EngineStats",
    "LSHIndex",
    "LSHIndexStats",
    "PGSession",
    "SessionStats",
    "ShardCommStats",
    "ShardSkewStats",
    "ShardedEngine",
    "StaleShardError",
    "select_topk_rows",
    "signature_matrix",
    "TopKResult",
    "default_session",
    "engine_stats",
    "materialized_topk",
    "record_patch",
    "reset_engine_stats",
    "resolve_chunk_pairs",
    "iter_pair_chunks",
    "batched_pair_intersections",
    "batched_pair_jaccard",
    "sum_pair_intersections",
    "scatter_add_pair_intersections",
    "topk_pair_scores",
    "topk_per_source",
]
