"""4-Clique Counting (Listing 2) — exact and PG-enhanced.

The reformulated algorithm of the paper generalizes the oriented node-iterator:
for each oriented edge ``(u, v)`` it first derives the 3-clique completions
``C3 = N+_u ∩ N+_v`` and then, for every ``w ∈ C3``, adds ``|N+_w ∩ C3|`` —
every 4-clique is counted exactly once thanks to the degree-order orientation.

Both versions list the triangles ``(edge, w ∈ C3)`` of a whole window of
oriented edges at once and evaluate the inner terms in one call per window:

* **exact** — count the ``x ∈ N+_w`` for which ``(edge, x)`` is listed too;
* **Bloom filters** — the filter of ``C3`` is obtained *for free* as the
  bitwise AND of the filters of ``N+_u`` and ``N+_v`` (Bloom filters are closed
  under AND), so the inner term is a triple-AND popcount fed to Eq. (2) or (4);
* **MinHash / KMV / HLL** — the window's ``C3`` sets are sketched as one CSR
  with the family's parameters and scored against the stored ``N+_w`` rows;
  KMV and HLL keep a standalone ``C3`` sketch's estimated sizes (Eq. 40).

A window's extra memory scales with its triangles, about triangles ×
``pair_scratch_bytes``; no whole-graph triangle list is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.estimators import (
    EstimatorKind,
    bf_intersection_and,
    bf_intersection_limit,
    hll_intersection,
    kmv_intersection,
)
from ..core.probgraph import ProbGraph, check_estimator_kind
from ..engine.batch import EngineConfig, iter_pair_chunks
from ..graph.csr import CSRGraph, ragged_gather
from ..parallel.executor import chunked_ranges
from ..sketches.base import concat_sketch_rows
from ..sketches.bloom import BloomNeighborhoodSketches
from ..sketches.hll import HLLNeighborhoodSketches
from ..sketches.kmv import KMVNeighborhoodSketches

__all__ = ["CliqueCountResult", "four_clique_count", "four_clique_count_exact"]

#: Oriented edges per window of the exact count, which has no engine budget.
_EXACT_WINDOW_EDGES = 4096


@dataclass(frozen=True)
class CliqueCountResult:
    """4-clique count plus bookkeeping used by the evaluation harness."""

    count: float
    exact: bool
    method: str

    def __float__(self) -> float:
        return float(self.count)

    def __int__(self) -> int:
        return int(round(self.count))


def _oriented_edges(base: CSRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All oriented edges ``src → dst`` plus their sorted row-major ``src * n + dst`` keys."""
    src = np.repeat(np.arange(base.num_vertices, dtype=np.int64), base.degrees)
    return src, base.indices, src * base.num_vertices + base.indices


def _is_listed(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Mask of the ``probe`` values present in the sorted, non-empty ``keys``."""
    return keys[np.minimum(np.searchsorted(keys, probe), keys.shape[0] - 1)] == probe


def _window_triangles(
    base: CSRGraph, keys: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Triangles of the edges ``u[i] → v[i]``: ``(edge, w)`` sorted by edge, then ``w``."""
    counts = base.indptr[u + 1] - base.indptr[u]
    w = base.indices[ragged_gather(base.indptr[u], counts)]
    edge = np.repeat(np.arange(u.shape[0], dtype=np.int64), counts)
    hit = _is_listed(keys, v[edge] * base.num_vertices + w)
    return edge[hit], w[hit]


def four_clique_count_exact(graph: CSRGraph) -> CliqueCountResult:
    """Exact 4-clique count by the oriented scheme of Listing 2."""
    oriented = graph.oriented()
    src, dst, keys = _oriented_edges(oriented)
    n, indptr = oriented.num_vertices, oriented.indptr
    total = 0
    for start, stop in chunked_ranges(src.shape[0], _EXACT_WINDOW_EDGES):
        edge, w = _window_triangles(oriented, keys, src[start:stop], dst[start:stop])
        if edge.size:
            counts = indptr[w + 1] - indptr[w]
            x = oriented.indices[ragged_gather(indptr[w], counts)]
            total += int(np.count_nonzero(_is_listed(edge * n + w, np.repeat(edge, counts) * n + x)))
    return CliqueCountResult(float(total), True, "exact-oriented")


def _sketch_terms(pg: ProbGraph, edge: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """``|N+_w ∩ C3|`` estimates from one pool: the window's ``C3`` rows, then the ``N+_w`` rows."""
    _, starts, c3_row = np.unique(edge, return_index=True, return_inverse=True)
    rows, w_row = np.unique(w, return_inverse=True)
    c3 = pg.family.sketch_neighborhoods(np.append(starts, edge.shape[0]), w)
    pool = concat_sketch_rows([c3, pg.sketches.take_rows(rows)])
    w_row = w_row + starts.shape[0]
    if isinstance(pool, (KMVNeighborhoodSketches, HLLNeighborhoodSketches)):
        sizes = pool.cardinalities()
        union = pool.pair_union_estimates(w_row, c3_row)
        estimate = kmv_intersection if isinstance(pool, KMVNeighborhoodSketches) else hll_intersection
        return estimate(sizes[w_row], sizes[c3_row], union)
    return pool.pair_intersections(w_row, c3_row)


def four_clique_count(
    graph: CSRGraph | ProbGraph,
    estimator: EstimatorKind | str | None = None,
    config: EngineConfig | None = None,
) -> CliqueCountResult:
    """Count 4-cliques exactly (CSR input) or approximately (ProbGraph input).

    For ProbGraph inputs the sketches must have been built over the *oriented*
    neighborhoods (``ProbGraph(..., oriented=True)``) so that the stored
    filters correspond to the ``N+`` sets Listing 2 intersects.  The oriented
    edges stream through the engine's chunk windows (``config``).  An
    ``estimator`` the representation cannot evaluate raises ``ValueError``,
    and so does the Bloom OR estimator.
    """
    if isinstance(graph, CSRGraph):
        return four_clique_count_exact(graph)
    if not isinstance(graph, ProbGraph):
        raise TypeError(f"expected CSRGraph or ProbGraph, got {type(graph).__name__}")
    if not graph.oriented:
        raise ValueError("4-clique counting needs ProbGraph(..., oriented=True) sketches of N+")
    kind = graph.estimator if estimator is None else check_estimator_kind(graph.representation, estimator)
    if kind is EstimatorKind.BF_OR:
        raise ValueError("4-clique counting on Bloom filters supports the 'AND' and 'L' estimators, not 'OR'")
    sketches, base = graph.sketches, graph.base
    src, dst, keys = _oriented_edges(base)
    total = 0.0
    for start, stop in iter_pair_chunks(sketches, src.shape[0], config):
        u, v = src[start:stop], dst[start:stop]
        edge, w = _window_triangles(base, keys, u, v)
        if edge.size == 0:
            continue
        if isinstance(sketches, BloomNeighborhoodSketches):
            words = sketches.words
            ones = np.bitwise_count(words[u[edge]] & words[v[edge]] & words[w]).sum(axis=1)
            if kind is EstimatorKind.BF_AND:
                terms = bf_intersection_and(ones, sketches.num_bits, sketches.num_hashes)
            else:
                terms = bf_intersection_limit(ones, sketches.num_hashes)
        else:
            terms = _sketch_terms(graph, edge, w)
        total += float(np.sum(terms))
    suffix = f"-{kind.value}" if isinstance(sketches, BloomNeighborhoodSketches) else ""
    return CliqueCountResult(total, False, f"pg-{graph.representation.value}{suffix}")
