"""MinHash set representations: the k-hash and 1-hash (bottom-k) variants (§II-D).

*k-hash* keeps, for each of ``k`` independent hash functions, the element of
``X`` with the smallest hash.  We store the minimum hash *values* (a signature
of ``k`` uint64 words); since the hashes are injective with overwhelming
probability, comparing values per slot is equivalent to comparing the selected
elements.  The number of agreeing slots is ``Binomial(k, J)`` which yields the
unbiased Jaccard estimator of §IV-C and, through Eq. (5), the MLE intersection
estimator ``|X∩Y|^{kH}``.

*1-hash* (bottom-k) hashes every element once and keeps the ``k`` smallest hash
values.  The intersection of two bottom-k sets is hypergeometric (sampling
without replacement, §IV-D), yielding ``|X∩Y|^{1H}``.  It needs a single hash
evaluation per element, so construction is ``b``-times cheaper than k-hash and
``k``-times cheaper than building the k-hash signature (Table V).

Both per-set sketches and whole-graph batch containers are provided; the batch
containers are what the PG-enhanced algorithms use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.estimators import minhash_intersection, minhash_jaccard
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
    ragged_gather,
    sorted_row_repeats,
)
from .hashing import HashFamily, splitmix64

__all__ = [
    "KHashSignature",
    "KHashFamily",
    "KHashNeighborhoodSketches",
    "BottomKSketch",
    "BottomKFamily",
    "BottomKNeighborhoodSketches",
]

# Sentinel stored in empty signature slots / unfilled bottom-k positions.
_EMPTY = np.uint64(np.iinfo(np.uint64).max)
_WORD_BITS = 64


# ---------------------------------------------------------------------------
# k-hash variant
# ---------------------------------------------------------------------------
class KHashSignature(SetSketch):
    """MinHash signature of one set under ``k`` independent hash functions."""

    __slots__ = ("k", "seed", "signature", "exact_size")

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self.signature = np.full(self.k, _EMPTY, dtype=np.uint64)
        self.exact_size = 0

    @classmethod
    def from_set(cls, elements: Iterable[int] | np.ndarray, k: int, seed: int = 0) -> "KHashSignature":
        sig = cls(k, seed)
        arr = as_id_array(elements)
        if arr.size == 0:
            return sig
        arr = np.unique(arr)
        family = HashFamily(k, seed)
        hashes = family.hash_all(arr)  # (k, |X|)
        sig.signature = hashes.min(axis=1)
        sig.exact_size = int(arr.size)
        return sig

    def cardinality(self) -> float:
        """k-hash signatures track the exact size (degrees are known in CSR)."""
        return float(self.exact_size)

    def _check_compatible(self, other: "KHashSignature") -> None:
        if not isinstance(other, KHashSignature):
            raise TypeError(f"cannot intersect KHashSignature with {type(other).__name__}")
        if (self.k, self.seed) != (other.k, other.seed):
            raise ValueError("k-hash signatures have incompatible parameters (k or seed)")

    def matching_slots(self, other: "KHashSignature") -> int:
        """Number of hash slots on which the two signatures agree (empty slots excluded)."""
        self._check_compatible(other)
        agree = (self.signature == other.signature) & (self.signature != _EMPTY)
        return int(np.count_nonzero(agree))

    def jaccard(self, other: "KHashSignature") -> float:
        """Unbiased Jaccard estimate ``matches / k`` (§IV-C)."""
        return float(minhash_jaccard(self.matching_slots(other), self.k))

    def intersection_cardinality(
        self, other: "KHashSignature", size_self: float | None = None, size_other: float | None = None
    ) -> float:
        """``|X∩Y|^{kH}`` — Eq. (5)."""
        sx = self.exact_size if size_self is None else size_self
        sy = other.exact_size if size_other is None else size_other
        return float(minhash_intersection(self.matching_slots(other), self.k, sx, sy))

    @property
    def storage_bits(self) -> int:
        return self.k * _WORD_BITS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KHashSignature(k={self.k}, exact_size={self.exact_size})"


class KHashNeighborhoodSketches(NeighborhoodSketches):
    """All per-vertex k-hash signatures of a graph, as an ``(n, k)`` uint64 matrix."""

    storage_schema = StorageSchema(
        arrays=(
            ArraySpec("signatures", "uint64", ROW_MATRIX),
            ArraySpec("exact_sizes", "float64", ROW_VECTOR),
        ),
        params=("k", "seed"),
    )

    def __init__(self, signatures: np.ndarray, k: int, seed: int, exact_sizes: np.ndarray) -> None:
        self.signatures = signatures
        self.k = int(k)
        self.seed = int(seed)
        self.exact_sizes = exact_sizes.astype(np.float64, copy=False)

    @property
    def num_sets(self) -> int:
        return self.signatures.shape[0]

    @property
    def total_storage_bits(self) -> int:
        return int(self.signatures.size) * _WORD_BITS

    def cardinalities(self) -> np.ndarray:
        return self.exact_sizes.copy()

    @property
    def pair_scratch_bytes(self) -> int:
        """Per-pair scratch: two gathered signatures plus the agreement mask."""
        return 2 * self.k * 8 + 2 * self.k + 24

    def pair_matches(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Agreeing-slot counts for every (u, v) pair."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        su = self.signatures[u]
        sv = self.signatures[v]
        agree = (su == sv) & (su != _EMPTY)
        return agree.sum(axis=1).astype(np.int64)

    def pair_jaccard(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jaccard estimates for every (u, v) pair."""
        return np.asarray(minhash_jaccard(self.pair_matches(u, v), self.k), dtype=np.float64)

    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N_u ∩ N_v|^{kH}`` for every (u, v) pair (Eq. 5, exact degrees)."""
        return self.matches_to_intersections(self.pair_matches(u, v), u, v)

    def matches_to_intersections(
        self, matches: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """``|N_u ∩ N_v|^{kH}`` from per-pair agreeing-slot counts (Eq. 5, exact degrees).

        The one matches → intersections step: :meth:`pair_intersections` runs
        it on :meth:`pair_matches`, and the LSH index on band collision counts.
        """
        su = self.exact_sizes[np.asarray(u, dtype=np.int64)]
        sv = self.exact_sizes[np.asarray(v, dtype=np.int64)]
        return np.asarray(minhash_intersection(matches, self.k, su, sv), dtype=np.float64)

    # -- incremental maintenance -------------------------------------------
    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Lower each permutation's minimum with the new neighbors' hashes (O(k) per element)."""
        vertices, delta_indptr, delta_indices, new_sizes = self._normalize_delta(
            vertices, delta_indptr, delta_indices, new_sizes
        )
        if vertices.size == 0:
            return
        self.promote_rows_writable()
        counts = np.diff(delta_indptr)
        nonempty = counts > 0
        if delta_indices.size:
            rows = vertices[nonempty]
            starts = delta_indptr[:-1][nonempty]
            for i in range(self.k):
                hashes = splitmix64(delta_indices, self.seed + i)
                mins = np.minimum.reduceat(hashes, starts)
                self.signatures[rows, i] = np.minimum(self.signatures[rows, i], mins)
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
        self.signatures[vertices] = _EMPTY
        nonempty = degrees > 0
        rows = vertices[nonempty]
        if rows.size:
            neighbors = indices[ragged_gather(indptr[rows], degrees[nonempty])]
            seg_starts = np.cumsum(degrees[nonempty]) - degrees[nonempty]
            for i in range(self.k):
                hashes = splitmix64(neighbors, self.seed + i)
                self.signatures[rows, i] = np.minimum.reduceat(hashes, seg_starts)
        self.exact_sizes[vertices] = degrees.astype(np.float64)

    def grow(self, num_sets: int) -> None:
        extra = int(num_sets) - self.num_sets
        if extra < 0:
            raise ValueError("cannot shrink a sketch container")
        if extra == 0:
            return
        self.signatures = np.concatenate(
            [self.signatures, np.full((extra, self.k), _EMPTY, dtype=np.uint64)]
        )
        self.exact_sizes = np.concatenate([self.exact_sizes, np.zeros(extra, dtype=np.float64)])

    def sketch_of(self, v: int) -> KHashSignature:
        """Materialize the standalone signature of vertex ``v`` (mostly for tests)."""
        sig = KHashSignature(self.k, self.seed)
        sig.signature = self.signatures[int(v)].copy()
        sig.exact_size = int(self.exact_sizes[int(v)])
        return sig


class KHashFamily(SketchFamily):
    """Factory of compatible k-hash signatures sharing ``(k, seed)``."""

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)

    @property
    def bits_per_set(self) -> int:
        return self.k * _WORD_BITS

    def sketch(self, elements: Iterable[int] | np.ndarray) -> KHashSignature:
        return KHashSignature.from_set(elements, self.k, self.seed)

    def sketch_neighborhoods(self, indptr: np.ndarray, indices: np.ndarray) -> KHashNeighborhoodSketches:
        """Batch construction: ``O(k·m)`` hash evaluations, segment-wise minima (Table V)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        degrees = np.diff(indptr)
        signatures = np.full((n, self.k), _EMPTY, dtype=np.uint64)
        if indices.size:
            nonempty = degrees > 0
            for i in range(self.k):
                hashes = splitmix64(indices, self.seed + i)
                # Segment-wise minimum per neighborhood via ufunc.reduceat.
                mins = np.minimum.reduceat(hashes, indptr[:-1][nonempty])
                signatures[nonempty, i] = mins
        return KHashNeighborhoodSketches(signatures, self.k, self.seed, degrees.astype(np.float64))


# ---------------------------------------------------------------------------
# 1-hash (bottom-k) variant
# ---------------------------------------------------------------------------
class BottomKSketch(SetSketch):
    """Bottom-k sketch of one set under a single hash function (the 1-hash variant)."""

    __slots__ = ("k", "seed", "values", "exact_size")

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        # Sorted ascending; unfilled slots hold the sentinel.
        self.values = np.full(self.k, _EMPTY, dtype=np.uint64)
        self.exact_size = 0

    @classmethod
    def from_set(cls, elements: Iterable[int] | np.ndarray, k: int, seed: int = 0) -> "BottomKSketch":
        sk = cls(k, seed)
        arr = as_id_array(elements)
        if arr.size == 0:
            return sk
        arr = np.unique(arr)
        hashes = np.sort(splitmix64(arr, seed))
        kept = hashes[: k]
        sk.values[: kept.size] = kept
        sk.exact_size = int(arr.size)
        return sk

    def filled(self) -> int:
        """Number of retained hash values (``min(k, |X|)``)."""
        return int(np.count_nonzero(self.values != _EMPTY))

    def cardinality(self) -> float:
        """Estimate ``|X|``: exact when the sketch is not full, KMV-style otherwise."""
        filled = self.filled()
        if filled < self.k:
            return float(filled)
        max_hash = (float(self.values[self.k - 1]) + 1.0) / float(2**64)
        return (self.k - 1) / max_hash

    def _check_compatible(self, other: "BottomKSketch") -> None:
        if not isinstance(other, BottomKSketch):
            raise TypeError(f"cannot intersect BottomKSketch with {type(other).__name__}")
        if (self.k, self.seed) != (other.k, other.seed):
            raise ValueError("bottom-k sketches have incompatible parameters (k or seed)")

    def common_values(self, other: "BottomKSketch") -> int:
        """``|M¹_X ∩ M¹_Y|`` — common retained hash values (sentinel excluded)."""
        self._check_compatible(other)
        mine = self.values[self.values != _EMPTY]
        theirs = other.values[other.values != _EMPTY]
        return int(np.intersect1d(mine, theirs, assume_unique=True).size)

    def _matches_and_effective_k(self, other: "BottomKSketch") -> tuple[int, int]:
        """Matching values within the bottom-k of the union, plus the effective sample size.

        When a set has fewer than ``k`` elements, dividing the raw match count
        by ``k`` (the paper's plain formulation) underestimates the Jaccard; the
        standard bottom-k estimator instead restricts both the matches and the
        denominator to the ``s = min(k, |M¹_X ∪ M¹_Y|)`` smallest union values,
        which degrades gracefully to the exact Jaccard for small sets.
        """
        self._check_compatible(other)
        mine = self.values[self.values != _EMPTY]
        theirs = other.values[other.values != _EMPTY]
        union = np.union1d(mine, theirs)
        if union.size == 0:
            return 0, 0
        s = min(self.k, union.size)
        cutoff = union[s - 1]
        common = np.intersect1d(mine, theirs, assume_unique=True)
        matches = int(np.count_nonzero(common <= cutoff))
        return matches, s

    def jaccard(self, other: "BottomKSketch") -> float:
        """Bottom-k Jaccard estimate (matches within the union's bottom-k, §IV-D)."""
        matches, s = self._matches_and_effective_k(other)
        if s == 0:
            return 0.0
        return float(minhash_jaccard(matches, s))

    def intersection_cardinality(
        self, other: "BottomKSketch", size_self: float | None = None, size_other: float | None = None
    ) -> float:
        """``|X∩Y|^{1H}`` — Eq. (5) on the 1-hash Jaccard estimate."""
        sx = self.exact_size if size_self is None else size_self
        sy = other.exact_size if size_other is None else size_other
        matches, s = self._matches_and_effective_k(other)
        if s == 0:
            return 0.0
        return float(minhash_intersection(matches, s, sx, sy))

    @property
    def storage_bits(self) -> int:
        return self.k * _WORD_BITS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BottomKSketch(k={self.k}, filled={self.filled()}, exact_size={self.exact_size})"


class BottomKNeighborhoodSketches(NeighborhoodSketches):
    """All per-vertex bottom-k sketches of a graph, as an ``(n, k)`` sorted uint64 matrix."""

    storage_schema = StorageSchema(
        arrays=(
            ArraySpec("values", "uint64", ROW_MATRIX),
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
        return int(self.values.size) * _WORD_BITS

    def cardinalities(self) -> np.ndarray:
        return self.exact_sizes.copy()

    @property
    def pair_scratch_bytes(self) -> int:
        """Per-pair scratch: the merged sorted row plus the repeat scan's temporaries.

        The merged row is ``2k`` uint64 values, built from two gathered
        ``k``-wide rows.  :func:`~repro.sketches.base.sorted_row_repeats` adds
        flat ``<`` and ``==`` masks (one byte per entry each) and a few int64
        counts per pair, plus int64 rows, columns and ranks per repeat (at
        most ``k`` per pair, usually far fewer).  The value is kept as it is
        because it sets the chunk boundaries.
        """
        return 2 * self.k * (8 + 8 + 3) + 32

    def pair_common(self, u: np.ndarray, v: np.ndarray, chunk: int = 65536) -> np.ndarray:
        """``|M¹_{N_u} ∩ M¹_{N_v}|`` for every pair, vectorized.

        Each row holds distinct sorted values, so the number of common values
        between two rows equals the number of repeats after merging and
        sorting the concatenation of the rows.  This avoids per-pair Python
        loops entirely; pairs are processed in chunks to bound peak memory.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(u.shape[0], dtype=np.int64)
        for start in range(0, u.shape[0], chunk):
            stop = min(start + chunk, u.shape[0])
            merged = np.concatenate([self.values[u[start:stop]], self.values[v[start:stop]]], axis=1)
            merged.sort(axis=1)
            out[start:stop] = sorted_row_repeats(merged, _EMPTY)[2]
        return out

    def _pair_matches_effective_k(
        self, u: np.ndarray, v: np.ndarray, chunk: int = 65536
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per pair: matches within the union's bottom-k and the effective sample size ``s``.

        Mirrors :meth:`BottomKSketch._matches_and_effective_k` but vectorized
        over many pairs: concatenate the two sorted rows and sort; a value in
        both sketches then repeats.  The union holds ``s' = filled - repeats``
        distinct values and ``s = min(k, s')``.  A repeated value counts as a
        match when its distinct rank is at most ``k``; a repeat's rank never
        exceeds ``s'``, so that is the same as ranking within the bottom ``s``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        matches = np.empty(u.shape[0], dtype=np.int64)
        eff_k = np.empty(u.shape[0], dtype=np.int64)
        for start in range(0, u.shape[0], chunk):
            stop = min(start + chunk, u.shape[0])
            merged = np.concatenate([self.values[u[start:stop]], self.values[v[start:stop]]], axis=1)
            merged.sort(axis=1)
            rows, ranks, repeats, filled = sorted_row_repeats(merged, _EMPTY)
            matches[start:stop] = np.bincount(rows[ranks <= self.k], minlength=stop - start)
            eff_k[start:stop] = np.minimum(self.k, filled - repeats)
        return matches, eff_k

    def pair_jaccard(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bottom-k Jaccard estimates for every (u, v) pair."""
        matches, eff_k = self._pair_matches_effective_k(u, v)
        out = np.zeros(matches.shape[0], dtype=np.float64)
        nonzero = eff_k > 0
        out[nonzero] = matches[nonzero] / eff_k[nonzero]
        return out

    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N_u ∩ N_v|^{1H}`` for every (u, v) pair (Eq. 5, exact degrees)."""
        jaccard = self.pair_jaccard(u, v)
        su = self.exact_sizes[np.asarray(u, dtype=np.int64)]
        sv = self.exact_sizes[np.asarray(v, dtype=np.int64)]
        return jaccard / (1.0 + jaccard) * (su + sv)

    # -- incremental maintenance -------------------------------------------
    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Merge the new neighbors' hashes into each row's bounded bottom-k heap.

        The retained values of a row are the ``k`` smallest hashes of its set;
        every dropped hash exceeds all retained ones, so the ``k`` smallest of
        (retained ∪ new hashes) equal the ``k`` smallest of the grown set —
        bit-identical to a rebuild.
        """
        vertices, delta_indptr, delta_indices, new_sizes = self._normalize_delta(
            vertices, delta_indptr, delta_indices, new_sizes
        )
        if vertices.size == 0:
            return
        self.promote_rows_writable()
        if delta_indices.size:
            hashes = splitmix64(delta_indices, self.seed)
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
            block = np.sort(splitmix64(indices[gather], self.seed), axis=1)
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
            [self.values, np.full((extra, self.k), _EMPTY, dtype=np.uint64)]
        )
        self.exact_sizes = np.concatenate([self.exact_sizes, np.zeros(extra, dtype=np.float64)])

    def sketch_of(self, v: int) -> BottomKSketch:
        """Materialize the standalone bottom-k sketch of vertex ``v`` (mostly for tests)."""
        sk = BottomKSketch(self.k, self.seed)
        sk.values = self.values[int(v)].copy()
        sk.exact_size = int(self.exact_sizes[int(v)])
        return sk


class BottomKFamily(SketchFamily):
    """Factory of compatible bottom-k (1-hash) sketches sharing ``(k, seed)``."""

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)

    @property
    def bits_per_set(self) -> int:
        return self.k * _WORD_BITS

    def sketch(self, elements: Iterable[int] | np.ndarray) -> BottomKSketch:
        return BottomKSketch.from_set(elements, self.k, self.seed)

    def sketch_neighborhoods(self, indptr: np.ndarray, indices: np.ndarray) -> BottomKNeighborhoodSketches:
        """Batch construction: ``O(m)`` hash evaluations + per-neighborhood partial sort (Table V)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        degrees = np.diff(indptr)
        values = np.full((n, self.k), _EMPTY, dtype=np.uint64)
        if indices.size:
            hashes = splitmix64(indices, self.seed)
            # Group vertices by degree so each group is a dense (count, degree)
            # matrix that can be sorted along axis=1 in one vectorized call.
            for group, d in iter_count_groups(degrees):
                gather = indptr[group][:, None] + np.arange(d)[None, :]
                block = np.sort(hashes[gather], axis=1)
                keep = min(self.k, d)
                values[group, :keep] = block[:, :keep]
        return BottomKNeighborhoodSketches(values, self.k, self.seed, degrees.astype(np.float64))
