"""Exact reference answers the workloads' estimates are checked against.

These run in set-up, outside every timed region.  The per-edge common
neighbour counts come from a vectorised oriented triangle listing rather than
``(A @ A).multiply(A)``: on the scale-16 Kronecker graph the sparse product
has 164M nonzeros and takes ~9 s, the listing ~2 s.  ``check_small`` confirms
on a small graph that both references agree with the library's exact paths.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import CSRGraph, jarvis_patrick_clustering, triangle_count_exact
from repro.core.estimators import intersection_to_jaccard
from repro.graph.csr import ragged_gather

#: Oriented edges processed per chunk of the triangle listing (bounds memory).
_CHUNK_EDGES = 1 << 16


def edge_common_neighbors(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, counts)``: every edge once and its exact ``|N_u ∩ N_v|``.

    Lists each triangle once from its lowest-ranked vertex ``a`` of the
    degree-order orientation: for an oriented edge ``a → b`` and each
    ``c ∈ N+(a)``, the triangle ``{a, b, c}`` exists iff ``b → c`` is an
    oriented edge.  Each listed triangle adds one to each of its three edges.
    """
    n = graph.num_vertices
    oriented = graph.oriented()
    out_deg = oriented.degrees
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    dst = oriented.indices
    keys = src * n + dst  # sorted: CSR rows are sorted
    total = src.shape[0]
    counts = np.zeros(total, dtype=np.int64)
    for lo in range(0, total, _CHUNK_EDGES):
        hi = min(lo + _CHUNK_EDGES, total)
        a, b = src[lo:hi], dst[lo:hi]
        widths = out_deg[a]
        ac = ragged_gather(oriented.indptr[a], widths)  # edge ids a -> c
        query = np.repeat(b, widths) * n + oriented.indices[ac]
        bc = np.minimum(np.searchsorted(keys, query), total - 1)
        hit = keys[bc] == query
        ab = np.repeat(np.arange(lo, hi, dtype=np.int64), widths)
        for ids in (ab[hit], ac[hit], bc[hit]):
            counts += np.bincount(ids, minlength=total)
    return np.stack([src, dst], axis=1), counts


def triangles_from_counts(counts: np.ndarray) -> int:
    """Triangle count from per-edge counts (each triangle has three edges)."""
    return int(counts.sum()) // 3


def jp_clusters(
    graph: CSRGraph, edges: np.ndarray, counts: np.ndarray, threshold: float = 0.1
) -> int:
    """Exact Jaccard Jarvis–Patrick cluster count from per-edge common neighbours.

    Scores with the library's own ``intersection_to_jaccard`` so that the
    kept-edge decisions are the same floats the exact library path compares.
    """
    degrees = graph.degrees.astype(np.float64)
    scores = intersection_to_jaccard(
        counts.astype(np.float64), degrees[edges[:, 0]], degrees[edges[:, 1]]
    )
    kept = edges[scores > threshold]
    n = graph.num_vertices
    adj = sp.csr_matrix(
        (np.ones(kept.shape[0], dtype=np.int8), (kept[:, 0], kept[:, 1])), shape=(n, n)
    )
    num, _ = sp.csgraph.connected_components(adj, directed=False)
    return int(num)


def pair_common_neighbors(graph: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact ``|N_u ∩ N_v|`` per pair, scanning the lower-degree endpoint's row."""
    n = graph.num_vertices
    degrees = graph.degrees
    keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n + graph.indices  # sorted
    swap = degrees[u] > degrees[v]
    small, large = np.where(swap, v, u), np.where(swap, u, v)
    widths = degrees[small]
    query = np.repeat(large, widths) * n + graph.indices[ragged_gather(graph.indptr[small], widths)]
    found = np.minimum(np.searchsorted(keys, query), keys.shape[0] - 1)
    hit = keys[found] == query
    owner = np.repeat(np.arange(u.shape[0], dtype=np.int64), widths)
    return np.bincount(owner[hit], minlength=u.shape[0]).astype(np.int64)


def pair_jaccard(graph: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact Jaccard of ``N_u`` and ``N_v`` per pair."""
    degrees = graph.degrees.astype(np.float64)
    inter = pair_common_neighbors(graph, u, v).astype(np.float64)
    return intersection_to_jaccard(inter, degrees[u], degrees[v])


def check_small(graph: CSRGraph) -> None:
    """Raise unless the references match the library's exact paths on ``graph``."""
    edges, counts = edge_common_neighbors(graph)
    tc = triangles_from_counts(counts)
    if tc != int(triangle_count_exact(graph).count):
        raise AssertionError(f"triangle listing gives {tc}, triangle_count_exact disagrees")
    library = jarvis_patrick_clustering(graph, measure="jaccard").num_clusters
    if jp_clusters(graph, edges, counts) != library:
        raise AssertionError("reference Jarvis-Patrick cluster count disagrees with the library")
    adj = graph.adjacency_matrix()
    sparse = np.asarray((adj @ adj).multiply(adj).tocsr()[edges[:, 0], edges[:, 1]]).ravel()
    if not np.array_equal(sparse, counts):
        raise AssertionError("triangle listing disagrees with (A @ A).multiply(A)")
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, graph.num_vertices, (2, 512))
    exact = [graph.common_neighbors(int(a), int(b)) for a, b in zip(u, v)]
    if not np.array_equal(pair_common_neighbors(graph, u, v), exact):
        raise AssertionError("pair common neighbours disagree with CSRGraph.common_neighbors")
