"""K-Minimum-Values (KMV) sketches (paper §IX, Appendix G).

A KMV sketch of ``X`` hashes every element into ``(0, 1]`` and keeps the ``k``
smallest hash values.  The cardinality estimator is ``(k-1)/max(K_X)``
(Eq. 39).  The union sketch ``K_{X∪Y}`` is formed by taking the ``k`` smallest
values of ``K_X ∪ K_Y``, and the intersection is estimated by inclusion–
exclusion (Eq. 40 with estimated sizes, Eq. 41 with exact sizes — the variant
the graph algorithms use because degrees are known exactly).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.estimators import kmv_intersection, kmv_intersection_exact_sizes, kmv_size
from .base import (
    ROW_MATRIX,
    ROW_VECTOR,
    ArraySpec,
    NeighborhoodSketches,
    SetSketch,
    SketchFamily,
    StorageSchema,
    as_id_array,
    iter_count_groups,
    sorted_row_repeats,
)
from .hashing import hash_to_unit

__all__ = ["KMVSketch", "KMVFamily", "KMVNeighborhoodSketches"]

# Sentinel for unfilled slots: larger than any hash in (0, 1].
_EMPTY = np.float64(2.0)
_FLOAT_BITS = 64


class KMVSketch(SetSketch):
    """KMV sketch of a single set: the ``k`` smallest unit-interval hash values."""

    __slots__ = ("k", "seed", "values", "exact_size")

    def __init__(self, k: int, seed: int = 0) -> None:
        if k < 2:
            raise ValueError(f"KMV requires k >= 2, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self.values = np.full(self.k, _EMPTY, dtype=np.float64)
        self.exact_size = 0

    @classmethod
    def from_set(cls, elements: Iterable[int] | np.ndarray, k: int, seed: int = 0) -> "KMVSketch":
        sk = cls(k, seed)
        arr = as_id_array(elements)
        if arr.size == 0:
            return sk
        arr = np.unique(arr)
        hashes = np.sort(hash_to_unit(arr, seed))
        kept = hashes[: k]
        sk.values[: kept.size] = kept
        sk.exact_size = int(arr.size)
        return sk

    def filled(self) -> int:
        """Number of retained hash values (``min(k, |X|)``)."""
        return int(np.count_nonzero(self.values < _EMPTY))

    def cardinality(self) -> float:
        """``|X|^K`` — Eq. (39); exact count when the sketch is not yet full."""
        filled = self.filled()
        if filled < self.k:
            return float(filled)
        return float(kmv_size(self.values[self.k - 1], self.k))

    def _check_compatible(self, other: "KMVSketch") -> None:
        if not isinstance(other, KMVSketch):
            raise TypeError(f"cannot combine KMVSketch with {type(other).__name__}")
        if (self.k, self.seed) != (other.k, other.seed):
            raise ValueError("KMV sketches have incompatible parameters (k or seed)")

    def union_cardinality(self, other: "KMVSketch") -> float:
        """``|X∪Y|^K``: KMV estimate from the k smallest values of the merged sketch."""
        self._check_compatible(other)
        merged = np.concatenate([self.values[self.values < _EMPTY], other.values[other.values < _EMPTY]])
        merged = np.unique(merged)  # identical hash values correspond to identical elements
        if merged.size < self.k:
            return float(merged.size)
        kth = np.partition(merged, self.k - 1)[self.k - 1]
        return float(kmv_size(kth, self.k))

    def intersection_cardinality(
        self, other: "KMVSketch", size_self: float | None = None, size_other: float | None = None
    ) -> float:
        """``|X∩Y|^K`` — Eq. (40) (estimated sizes) or Eq. (41) when exact sizes are given."""
        union_est = self.union_cardinality(other)
        if size_self is not None and size_other is not None:
            return float(kmv_intersection_exact_sizes(size_self, size_other, union_est))
        return float(kmv_intersection(self.cardinality(), other.cardinality(), union_est))

    @property
    def storage_bits(self) -> int:
        return self.k * _FLOAT_BITS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KMVSketch(k={self.k}, filled={self.filled()}, exact_size={self.exact_size})"


class KMVNeighborhoodSketches(NeighborhoodSketches):
    """All per-vertex KMV sketches of a graph, as an ``(n, k)`` sorted float matrix."""

    storage_schema = StorageSchema(
        arrays=(
            ArraySpec("values", "float64", ROW_MATRIX),
            ArraySpec("exact_sizes", "float64", ROW_VECTOR),
        ),
        params=("k", "seed"),
    )

    def __init__(self, values: np.ndarray, k: int, seed: int, exact_sizes: np.ndarray) -> None:
        self.values = values
        self.k = int(k)
        self.seed = int(seed)
        self.exact_sizes = exact_sizes.astype(np.float64, copy=False)

    @property
    def num_sets(self) -> int:
        return self.values.shape[0]

    @property
    def total_storage_bits(self) -> int:
        return int(self.values.size) * _FLOAT_BITS

    def cardinalities(self) -> np.ndarray:
        filled = (self.values < _EMPTY).sum(axis=1)
        kth = self.values[:, self.k - 1]
        full = filled >= self.k
        out = filled.astype(np.float64)
        if np.any(full):
            out[full] = (self.k - 1) / kth[full]
        return out

    @property
    def pair_scratch_bytes(self) -> int:
        """Per-pair scratch: the merged sorted row plus the repeat scan's temporaries.

        The merged row is ``2k`` float64 values, built from two gathered
        ``k``-wide rows and sorted once.
        :func:`~repro.sketches.base.sorted_row_repeats` adds flat ``<`` and
        ``==`` masks (one byte per entry each) and a few int64 counts per pair
        (repeats, fill, the ``k``-th value's column), plus int64 rows and ranks
        per repeat.  The value is kept as it is because it sets the chunk
        boundaries.
        """
        return 2 * self.k * (8 + 1) + 48

    def pair_union_estimates(self, u: np.ndarray, v: np.ndarray, chunk: int = 65536) -> np.ndarray:
        """``|N_u ∪ N_v|^K`` for every pair (k smallest values of the merged rows).

        After one row sort a value held by both rows repeats.  The union holds
        ``filled - repeats`` distinct values, and its ``k``-th smallest sits
        ``k - 1`` columns in, shifted right by every repeat of a value ranked
        below ``k``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(u.shape[0], dtype=np.float64)
        for start in range(0, u.shape[0], chunk):
            stop = min(start + chunk, u.shape[0])
            merged = np.concatenate([self.values[u[start:stop]], self.values[v[start:stop]]], axis=1)
            merged.sort(axis=1)
            rows, ranks, repeats, filled = sorted_row_repeats(merged, _EMPTY)
            distinct = filled - repeats
            full = np.flatnonzero(distinct >= self.k)
            shift = np.bincount(rows[ranks < self.k], minlength=stop - start)
            est = distinct.astype(np.float64)
            est[full] = (self.k - 1) / merged[full, self.k - 1 + shift[full]]
            out[start:stop] = est
        return out

    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N_u ∩ N_v|^K`` for every pair — Eq. (41) with exact degrees."""
        union_est = self.pair_union_estimates(u, v)
        su = self.exact_sizes[np.asarray(u, dtype=np.int64)]
        sv = self.exact_sizes[np.asarray(v, dtype=np.int64)]
        return np.asarray(kmv_intersection_exact_sizes(su, sv, union_est), dtype=np.float64)

    # -- incremental maintenance -------------------------------------------
    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Merge the new neighbors' unit-interval hashes into each bounded k-minimum heap."""
        vertices, delta_indptr, delta_indices, new_sizes = self._normalize_delta(
            vertices, delta_indptr, delta_indices, new_sizes
        )
        if vertices.size == 0:
            return
        self.promote_rows_writable()
        if delta_indices.size:
            hashes = hash_to_unit(delta_indices, self.seed)
            starts = delta_indptr[:-1]
            for group, count in iter_count_groups(np.diff(delta_indptr)):
                rows = vertices[group]
                block = hashes[starts[group][:, None] + np.arange(count)[None, :]]
                merged = np.concatenate([self.values[rows], block], axis=1)
                merged.sort(axis=1)
                self.values[rows] = merged[:, : self.k]
        self.exact_sizes[vertices] = new_sizes

    def resketch_rows(self, vertices: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return
        if vertices.min() < 0 or vertices.max() >= self.num_sets:
            raise IndexError("resketch vertex out of range")
        self.promote_rows_writable()
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        degrees = indptr[vertices + 1] - indptr[vertices]
        self.values[vertices] = _EMPTY
        for group, degree in iter_count_groups(degrees):
            rows = vertices[group]
            gather = indptr[rows][:, None] + np.arange(degree)[None, :]
            block = np.sort(hash_to_unit(indices[gather], self.seed), axis=1)
            keep = min(self.k, degree)
            self.values[rows, :keep] = block[:, :keep]
        self.exact_sizes[vertices] = degrees.astype(np.float64)

    def grow(self, num_sets: int) -> None:
        extra = int(num_sets) - self.num_sets
        if extra < 0:
            raise ValueError("cannot shrink a sketch container")
        if extra == 0:
            return
        self.values = np.concatenate(
            [self.values, np.full((extra, self.k), _EMPTY, dtype=np.float64)]
        )
        self.exact_sizes = np.concatenate([self.exact_sizes, np.zeros(extra, dtype=np.float64)])

    def sketch_of(self, v: int) -> KMVSketch:
        """Materialize the standalone KMV sketch of vertex ``v`` (mostly for tests)."""
        sk = KMVSketch(self.k, self.seed)
        sk.values = self.values[int(v)].copy()
        sk.exact_size = int(self.exact_sizes[int(v)])
        return sk


class KMVFamily(SketchFamily):
    """Factory of compatible KMV sketches sharing ``(k, seed)``."""

    def __init__(self, k: int, seed: int = 0) -> None:
        if k < 2:
            raise ValueError(f"KMV requires k >= 2, got {k}")
        self.k = int(k)
        self.seed = int(seed)

    @property
    def bits_per_set(self) -> int:
        return self.k * _FLOAT_BITS

    def sketch(self, elements: Iterable[int] | np.ndarray) -> KMVSketch:
        return KMVSketch.from_set(elements, self.k, self.seed)

    def sketch_neighborhoods(self, indptr: np.ndarray, indices: np.ndarray) -> KMVNeighborhoodSketches:
        """Batch construction mirroring :class:`BottomKFamily` but with unit-interval hashes."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        degrees = np.diff(indptr)
        values = np.full((n, self.k), _EMPTY, dtype=np.float64)
        if indices.size:
            hashes = hash_to_unit(indices, self.seed)
            for group, d in iter_count_groups(degrees):
                gather = indptr[group][:, None] + np.arange(d)[None, :]
                block = np.sort(hashes[gather], axis=1)
                keep = min(self.k, d)
                values[group, :keep] = block[:, :keep]
        return KMVNeighborhoodSketches(values, self.k, self.seed, degrees.astype(np.float64))
