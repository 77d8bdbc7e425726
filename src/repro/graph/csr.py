"""CSR graph representation and exact neighborhood-set operations (§II-A, Fig. 1 panel 2).

The input (non-sketched) graph is stored in Compressed Sparse Row format: an
``indptr`` array of ``n+1`` offsets and an ``indices`` array holding every
neighborhood ``N_v`` as a contiguous, sorted run of vertex IDs.  This is the
representation the exact baselines operate on, and the structure the sketch
families consume for batch construction.

Exact intersection of two neighborhoods supports both classic variants shown in
Fig. 1:

* **merge** — linear scan of both sorted arrays, ``O(d_u + d_v)`` work; best
  when the neighborhoods have similar sizes;
* **galloping** — binary-search each element of the smaller set in the larger
  one, ``O(d_u log d_v)`` work; best when sizes differ a lot.

Whole-graph exact common-neighbor counts (the kernel of the exact TC /
clustering baselines) are computed through sparse matrix products, which is the
NumPy/SciPy equivalent of the paper's tuned vectorized C++ baselines.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np
import scipy.sparse as sp

__all__ = ["CSRGraph", "WORD_BITS", "check_vertex_ids", "ragged_gather"]

#: Machine word size ``W`` used in the storage and work-depth accounting (Table I).
WORD_BITS = 64


_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


def _as_edge_array(edges: np.ndarray | Iterable[Iterable[int]] | None) -> np.ndarray:
    """Normalize any edge collection into an ``(m, 2)`` int64 array.

    Raises ``ValueError`` for a non-empty input of any other shape and for a
    negative vertex ID.
    """
    if edges is None:
        return _EMPTY_EDGES
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        return _EMPTY_EDGES
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("vertex IDs must be non-negative")
    return arr


def _canonical_edges(edges: np.ndarray | Iterable[Iterable[int]] | None) -> np.ndarray:
    """Canonical undirected edge list: self-loops dropped, ``u < v``, unique sorted rows."""
    arr = _as_edge_array(edges)
    arr = arr[arr[:, 0] != arr[:, 1]]
    if arr.shape[0] == 0:
        return _EMPTY_EDGES
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    base = int(hi.max()) + 1
    if base > 1 << 31:  # packed keys lo * base + hi would overflow int64
        return np.unique(np.stack([lo, hi], axis=1), axis=0)
    # Packed keys order exactly like the (lo, hi) rows.  A sort plus an
    # adjacent-difference mask, not np.unique, which may hash instead of sort.
    keys = np.sort(lo * base + hi)
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    lo, hi = np.divmod(keys[keep], base)
    return np.stack([lo, hi], axis=1)


def check_vertex_ids(ids: np.ndarray, num_vertices: int, name: str = "vertex IDs") -> np.ndarray:
    """``ids`` as a flat int64 array, rejecting any ID outside ``[0, num_vertices)``.

    The one boundary check of caller-supplied vertex IDs: without it a
    negative ID silently aliases the row NumPy's negative indexing picks, and
    an ID past the end fails mid-chunk with a bare ``IndexError``.  Empty
    inputs are valid.
    """
    ids = np.asarray(ids, dtype=np.int64).ravel()
    # Viewed as uint64 a negative ID exceeds every valid one: one pass, one max.
    if ids.size and ids.view(np.uint64).max() >= num_vertices:
        bad = ids[(ids < 0) | (ids >= num_vertices)][0]
        raise ValueError(f"{name} must lie in [0, {num_vertices}); got {bad}")
    return ids


def ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i] + counts[i])`` for every i.

    The gather pattern shared by everything that walks CSR segments without
    per-row Python loops (sketch row maintenance, dynamic-graph row diffs):
    turn a per-row ``(start, count)`` description into one flat index array.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
    return np.repeat(np.asarray(starts, dtype=np.int64), counts) + offsets


class CSRGraph:
    """An undirected simple graph in CSR format with sorted neighborhoods."""

    __slots__ = ("num_vertices", "indptr", "indices", "_adj_cache", "_fingerprint", "_degrees")

    def __init__(self, num_vertices: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.num_vertices = int(num_vertices)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.shape[0] != self.num_vertices + 1:
            raise ValueError("indptr length must be num_vertices + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        self._adj_cache: sp.csr_matrix | None = None
        self._fingerprint: str | None = None
        self._degrees: np.ndarray | None = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]] | np.ndarray, num_vertices: int | None = None
    ) -> "CSRGraph":
        """Build an undirected simple graph from an edge list.

        Self-loops are dropped and duplicate / reverse duplicates are merged.
        Vertex IDs must be non-negative integers and a non-empty edge list
        must have shape ``(m, 2)``; ``num_vertices`` defaults to ``max_id + 1``.
        """
        canon = _canonical_edges(edges)
        n = int(num_vertices) if num_vertices is not None else (int(canon.max()) + 1 if canon.size else 0)
        if canon.size and canon.max() >= n:
            raise ValueError("num_vertices is smaller than the largest vertex ID + 1")
        src = np.concatenate([canon[:, 0], canon[:, 1]])
        dst = np.concatenate([canon[:, 1], canon[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, dst)

    @classmethod
    def from_networkx(cls, graph) -> "CSRGraph":
        """Build from a ``networkx.Graph`` (node labels must be 0..n-1 integers)."""
        n = graph.number_of_nodes()
        edges = np.asarray([(u, v) for u, v in graph.edges()], dtype=np.int64).reshape(-1, 2)
        return cls.from_edges(edges, num_vertices=n)

    def to_networkx(self):
        """Convert to a ``networkx.Graph``."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        u, v = self.edge_array().T if self.num_edges else (np.empty(0, int), np.empty(0, int))
        g.add_edges_from(zip(u.tolist(), v.tolist()))
        return g

    # -------------------------------------------------------------- structure
    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self.indices.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree ``d_v`` of every vertex (computed once; a read-only array)."""
        if self._degrees is None:
            degrees = np.diff(self.indptr)
            degrees.flags.writeable = False
            self._degrees = degrees
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum degree ``d`` (0 for an empty graph)."""
        return int(self.degrees.max()) if self.num_vertices else 0

    @property
    def average_degree(self) -> float:
        """Average degree ``d̄ = 2m / n``."""
        return float(self.indices.shape[0] / self.num_vertices) if self.num_vertices else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighborhood ``N_v`` (a view into the CSR ``indices`` array)."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of a single vertex."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Edge-existence query via binary search in the sorted neighborhood."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def fingerprint(self) -> str:
        """Stable structural digest of the adjacency, used as a sketch-cache key.

        Two :class:`CSRGraph` objects with identical ``(n, indptr, indices)``
        produce the same fingerprint, so engine sessions
        (:class:`repro.engine.PGSession`) can reuse sketch sets across distinct
        Python objects holding the same graph.  The digest is computed once and
        cached; CSR graphs are immutable by construction.
        """
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(str(self.num_vertices).encode())
            # The arrays' own buffers, not tobytes() copies: the same bytes in
            # C order, so the same digest (a strided view is made contiguous).
            h.update(memoryview(np.ascontiguousarray(self.indptr)).cast("B"))
            h.update(memoryview(np.ascontiguousarray(self.indices)).cast("B"))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` in every row."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Boolean adjacency matrix as ``scipy.sparse.csr_matrix`` (cached)."""
        if self._adj_cache is None:
            data = np.ones(self.indices.shape[0], dtype=np.int64)
            self._adj_cache = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.num_vertices, self.num_vertices)
            )
        return self._adj_cache

    @property
    def storage_bits(self) -> int:
        """Storage of the CSR structure: ``2m`` adjacency words plus ``n+1`` offsets (§II-A)."""
        return (self.indices.shape[0] + self.indptr.shape[0]) * WORD_BITS

    # ------------------------------------------------------ exact intersections
    @staticmethod
    def intersect_merge(a: np.ndarray, b: np.ndarray) -> int:
        """Exact ``|A ∩ B|`` of two sorted arrays by merging — ``O(|A| + |B|)``."""
        return int(np.intersect1d(a, b, assume_unique=True).size)

    @staticmethod
    def intersect_galloping(a: np.ndarray, b: np.ndarray) -> int:
        """Exact ``|A ∩ B|`` by binary-searching the smaller set in the larger — ``O(|A| log |B|)``."""
        small, large = (a, b) if a.size <= b.size else (b, a)
        if small.size == 0 or large.size == 0:
            return 0
        pos = np.searchsorted(large, small)
        pos = np.minimum(pos, large.size - 1)
        return int(np.count_nonzero(large[pos] == small))

    def common_neighbors(self, u: int, v: int, method: str = "auto") -> int:
        """Exact ``|N_u ∩ N_v|`` for a single vertex pair.

        ``method`` selects ``"merge"``, ``"galloping"``, or ``"auto"`` (the
        paper's heuristic: galloping when the sizes differ by more than ~8×).
        """
        a, b = self.neighbors(u), self.neighbors(v)
        if method == "merge":
            return self.intersect_merge(a, b)
        if method == "galloping":
            return self.intersect_galloping(a, b)
        if method == "auto":
            small, large = (a, b) if a.size <= b.size else (b, a)
            if small.size == 0:
                return 0
            if large.size > 8 * small.size:
                return self.intersect_galloping(a, b)
            return self.intersect_merge(a, b)
        raise ValueError(f"unknown intersection method {method!r}")

    def common_neighbors_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact ``|N_u ∩ N_v|`` for arrays of vertex pairs.

        Small batches use per-pair galloping; large batches switch to the
        sparse-matrix formulation (count paths of length two between the query
        endpoints), which is the vectorized "tuned baseline" path.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        if u.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if u.shape[0] <= 256:
            out = np.empty(u.shape[0], dtype=np.int64)
            for i in range(u.shape[0]):
                out[i] = self.common_neighbors(int(u[i]), int(v[i]))
            return out
        adj = self.adjacency_matrix()
        paths2 = (adj @ adj).tocsr()
        return np.asarray(paths2[u, v]).ravel().astype(np.int64)

    def common_neighbors_all_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``|N_u ∩ N_v|`` for *every* edge, fully vectorized.

        Returns ``(edges, counts)`` where ``edges`` is the ``(m, 2)`` edge array
        (``u < v``) and ``counts[i]`` the exact common-neighbor count of edge
        ``i``.  Uses ``(A @ A) ⊙ A`` restricted to edge positions, the sparse
        algebra formulation of the merge baseline.
        """
        edges = self.edge_array()
        if edges.shape[0] == 0:
            return edges, np.empty(0, dtype=np.int64)
        adj = self.adjacency_matrix()
        paths2 = (adj @ adj).multiply(adj).tocsr()
        counts = np.asarray(paths2[edges[:, 0], edges[:, 1]]).ravel().astype(np.int64)
        return edges, counts

    # ------------------------------------------------------------- orientation
    def degree_order_ranks(self) -> np.ndarray:
        """Vertex ranks ``R`` such that ``R(v) < R(u)`` implies ``d_v <= d_u`` (Listing 1, line 2).

        Ties go to the lower vertex ID: a stable sort by degree.
        """
        order = np.argsort(self.degrees, kind="stable")
        ranks = np.empty(self.num_vertices, dtype=np.int64)
        ranks[order] = np.arange(self.num_vertices)
        return ranks

    def oriented(self) -> "CSRGraph":
        """Degree-order oriented graph: ``N+_v = {u ∈ N_v | R(v) < R(u)}``.

        The result is a DAG stored in the same CSR class; each undirected edge
        appears exactly once, directed from the lower-rank endpoint to the
        higher-rank endpoint.  This is the preprocessing step of Listings 1–2.

        Precondition: every row of ``indices`` is sorted, the class invariant
        that every constructor in the package keeps.  The filter keeps each
        row's entries in their input order, so ``N+_v`` comes out sorted
        without a sort of its own.
        """
        ranks = self.degree_order_ranks()
        keep = np.repeat(ranks, self.degrees) < ranks[self.indices]
        kept = np.zeros(keep.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return CSRGraph(self.num_vertices, kept[self.indptr], self.indices[keep])

    # ---------------------------------------------------------------- plumbing
    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph on ``vertices``, relabelled to 0..len(vertices)-1."""
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        relabel = -np.ones(self.num_vertices, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.shape[0])
        edges = self.edge_array()
        if edges.shape[0] == 0:
            return CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=vertices.shape[0])
        keep = (relabel[edges[:, 0]] >= 0) & (relabel[edges[:, 1]] >= 0)
        sub_edges = relabel[edges[keep]]
        return CSRGraph.from_edges(sub_edges, num_vertices=vertices.shape[0])

    def remove_edges(self, edges_to_remove: np.ndarray | Iterable[Iterable[int]]) -> "CSRGraph":
        """Graph with the given undirected edges removed (used by link prediction, Listing 5).

        Raises ``ValueError`` for an input whose shape is not ``(m, 2)`` and
        for an endpoint outside ``[0, n)``.
        """
        edges = self.edge_array()
        rem = np.sort(_as_edge_array(edges_to_remove), axis=1)
        check_vertex_ids(rem, self.num_vertices, "edge endpoints")
        if edges.shape[0] == 0 or rem.shape[0] == 0:
            return CSRGraph.from_edges(edges, num_vertices=self.num_vertices)
        edge_keys = edges[:, 0] * self.num_vertices + edges[:, 1]
        rem_keys = rem[:, 0] * self.num_vertices + rem[:, 1]
        keep = ~np.isin(edge_keys, rem_keys)
        return CSRGraph.from_edges(edges[keep], num_vertices=self.num_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is fine for caching
        return id(self)
