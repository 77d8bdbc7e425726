"""HyperLogLog sketches — the fifth ProbGraph set representation (paper §X).

HyperLogLog is not evaluated in the paper, but the ProbGraph design explicitly
embraces additional probabilistic set representations and names HLL as the
concrete extension path.  The implementation follows Flajolet et al. (2007)
with the standard small- and large-range corrections.

HLL complements the value sketches (bottom-k, KMV): its accuracy depends only
on the register count ``m = 2**precision`` — *not* on the represented set's
size — so it can hold very large sets (multi-hop neighborhoods, unions across
whole partitions) at storage budgets where a bottom-k/KMV sketch would retain
only a handful of elements.  Unions are lossless (register-wise maximum),
which is what :func:`repro.algorithms.multihop_cardinalities` exploits.
Intersections go through inclusion–exclusion and are therefore noisier than
the paper's dedicated estimators; estimates are clamped into the feasible
``[0, min(|X|, |Y|)]`` interval so the noise cannot poison downstream Jaccard
values.

Storage accounting: a register stores a rank in ``[0, 64 - precision + 1]``,
which fits in 6 bits for every supported precision.  Like the other families
(whose ``storage_bits`` count the retained words, not NumPy container
overhead), the §V-A budget accounting charges the 6-bit packed size even
though the backing array is uint8.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.estimators import hll_intersection
from .base import (
    ROW_MATRIX,
    ROW_VECTOR,
    ArraySpec,
    NeighborhoodSketches,
    SetSketch,
    SketchFamily,
    StorageSchema,
    as_id_array,
    ragged_gather,
)
from .hashing import splitmix64

__all__ = [
    "HLL_REGISTER_BITS",
    "HyperLogLog",
    "HLLFamily",
    "HLLNeighborhoodSketches",
    "register_updates",
    "estimate_register_rows",
]

#: Packed bits per register used for the §V-A budget accounting.  The stored
#: rank never exceeds ``64 - 4 + 1 = 61 < 2**6`` at the minimum precision.
HLL_REGISTER_BITS = 6

#: Valid precision range (register count ``m = 2**precision``).
MIN_PRECISION = 4
MAX_PRECISION = 18

#: ``2**-r`` for every uint8 register value ``r``, the terms of the HLL sum.
#: Reading them from this table gives the same float64 values as computing
#: ``np.power(2.0, -r)`` per register, at the cost of one gather.
_INV_POW2 = np.power(2.0, -np.arange(256, dtype=np.float64))


def _alpha(m: int) -> float:
    """Bias-correction constant alpha_m of the HLL estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _check_precision(precision: int) -> int:
    precision = int(precision)
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise ValueError(
            f"precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], got {precision}"
        )
    return precision


def register_updates(elements: np.ndarray, precision: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-element register index and rank — the shared HLL insertion kernel.

    Splitting the 64-bit hash: the top ``precision`` bits select the register,
    the rank is the number of leading zeros of the remaining bits plus one
    (capped at ``64 - precision + 1`` when all remaining bits are zero).  Both
    the per-set sketch and the batch container insert through this function,
    which is what makes incremental maintenance bit-identical to rebuilds.
    """
    h = splitmix64(elements, seed)
    p = np.uint64(precision)
    idx = (h >> (np.uint64(64) - p)).astype(np.int64)
    with np.errstate(over="ignore"):
        rest = h << p  # remaining 64-p bits, shifted to the top of the word
    # Rank = number of leading zeros of `rest` + 1.  The MSB position is
    # recovered through frexp, which is exact because only the top bit matters.
    _, exponent = np.frexp(rest.astype(np.float64))
    leading_zeros = np.where(rest == 0, 64 - precision, 64 - exponent)
    rank = np.minimum(leading_zeros + 1, 64 - precision + 1).astype(np.uint8)
    return idx, rank


def estimate_register_rows(registers: np.ndarray) -> np.ndarray:
    """Vectorized HLL estimate for every row of an ``(..., m)`` register array.

    Applies the Flajolet et al. small-range (linear counting) and large-range
    corrections row-wise; the scalar :meth:`HyperLogLog.cardinality` and all
    batch-container estimates share this one code path.  ``registers`` holds
    uint8 ranks; each ``2**-r`` term is read from a 256-entry table (the
    values ``np.power(2.0, -r)`` gives) and the terms are summed along the row.

    A row whose raw estimate reaches ``2**64`` (e.g. 16 registers all at rank
    61) has no large-range correction and raises :class:`ValueError`.
    """
    registers = np.asarray(registers)
    m = registers.shape[-1]
    inv_sum = np.sum(_INV_POW2[registers], axis=-1)
    raw = _alpha(m) * m * m / inv_sum
    out = np.asarray(raw, dtype=np.float64).copy()
    zeros = np.count_nonzero(registers == 0, axis=-1)
    linear = (raw <= 2.5 * m) & (zeros > 0)
    if np.any(linear):
        out[linear] = m * np.log(m / zeros[linear])
    two64 = float(2**64)
    large = raw > two64 / 30.0
    if np.any(large):
        if np.any(raw[large] >= two64):
            # The large-range correction is log(1 - raw/2**64): undefined here.
            raise ValueError(
                "HLL raw estimate reaches 2**64, past the range of the 64-bit "
                "large-range correction; the registers have no estimate"
            )
        out[large] = -two64 * np.log1p(-raw[large] / two64)
    return out


class HyperLogLog(SetSketch):
    """HyperLogLog sketch of one set with ``2**precision`` registers."""

    __slots__ = ("precision", "seed", "registers")

    def __init__(self, precision: int = 10, seed: int = 0) -> None:
        self.precision = _check_precision(precision)
        self.seed = int(seed)
        self.registers = np.zeros(1 << self.precision, dtype=np.uint8)

    @classmethod
    def from_set(cls, elements: Iterable[int] | np.ndarray, precision: int = 10, seed: int = 0) -> "HyperLogLog":
        hll = cls(precision, seed)
        hll.add_many(elements)
        return hll

    @property
    def num_registers(self) -> int:
        return self.registers.shape[0]

    def add_many(self, elements: Iterable[int] | np.ndarray) -> "HyperLogLog":
        """Insert all ``elements`` (vectorized); returns ``self`` for chaining."""
        arr = as_id_array(elements)
        if arr.size == 0:
            return self
        idx, rank = register_updates(arr, self.precision, self.seed)
        np.maximum.at(self.registers, idx, rank)
        return self

    def add(self, element: int) -> "HyperLogLog":
        """Insert one element."""
        return self.add_many(np.asarray([element]))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Lossless union: register-wise maximum."""
        if not isinstance(other, HyperLogLog):
            raise TypeError(f"cannot merge HyperLogLog with {type(other).__name__}")
        if (self.precision, self.seed) != (other.precision, other.seed):
            raise ValueError("HyperLogLog sketches have incompatible parameters")
        merged = HyperLogLog(self.precision, self.seed)
        merged.registers = np.maximum(self.registers, other.registers)
        return merged

    def cardinality(self) -> float:
        """HLL estimate with small-range (linear counting) and large-range corrections."""
        return float(estimate_register_rows(self.registers[None, :])[0])

    def union_cardinality(self, other: "HyperLogLog") -> float:
        """``|X ∪ Y|`` from the merged (register-wise max) sketch."""
        return self.merge(other).cardinality()

    def intersection_cardinality(
        self, other: "HyperLogLog", size_self: float | None = None, size_other: float | None = None
    ) -> float:
        """Inclusion–exclusion intersection estimate, clamped to the feasible interval.

        The raw ``|X| + |Y| - |X∪Y|`` difference inherits the relative error of
        three HLL estimates, so it can stray outside ``[0, min(|X|, |Y|)]``;
        clamping keeps downstream Jaccard estimates sane.  Exact set sizes,
        when given, replace the estimated cardinalities (as the batched
        :meth:`HLLNeighborhoodSketches.pair_intersections` path does).
        """
        sx = self.cardinality() if size_self is None else size_self
        sy = other.cardinality() if size_other is None else size_other
        return float(hll_intersection(sx, sy, self.union_cardinality(other)))

    @property
    def storage_bits(self) -> int:
        return self.num_registers * HLL_REGISTER_BITS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HyperLogLog(precision={self.precision}, estimate={self.cardinality():.1f})"


class HLLNeighborhoodSketches(NeighborhoodSketches):
    """All per-vertex HLL sketches of a graph, as an ``(n, 2**precision)`` uint8 matrix."""

    storage_schema = StorageSchema(
        arrays=(
            ArraySpec("registers", "uint8", ROW_MATRIX),
            ArraySpec("exact_sizes", "float64", ROW_VECTOR),
        ),
        params=("precision", "seed"),
    )

    def __init__(self, registers: np.ndarray, precision: int, seed: int, exact_sizes: np.ndarray) -> None:
        self.registers = registers
        self.precision = int(precision)
        self.seed = int(seed)
        self.exact_sizes = exact_sizes.astype(np.float64, copy=False)

    @property
    def num_registers(self) -> int:
        return self.registers.shape[1]

    @property
    def num_sets(self) -> int:
        return self.registers.shape[0]

    @property
    def total_storage_bits(self) -> int:
        return int(self.registers.size) * HLL_REGISTER_BITS

    def cardinalities(self) -> np.ndarray:
        return estimate_register_rows(self.registers)

    @property
    def pair_scratch_bytes(self) -> int:
        """Per-pair scratch: two gathered rows, the merged row, and the estimate's temps.

        :func:`estimate_register_rows` materializes one ``(pairs, m)`` float64
        temporary per chunk (the ``2**-r`` terms read from the table) and one
        bool ``== 0`` mask, on top of the two gathered uint8 rows and their
        merged maximum.  The figure allows three float64 temporaries, so it
        overstates the peak; it is kept as it is because it sets the chunk
        boundaries, and with them the summation order of the triangle count.
        """
        return self.num_registers * (2 + 1 + 3 * 8) + 64

    def pair_union_estimates(self, u: np.ndarray, v: np.ndarray, chunk: int = 65536) -> np.ndarray:
        """``|N_u ∪ N_v|`` for every pair from the register-wise max of the two rows."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(u.shape[0], dtype=np.float64)
        for start in range(0, u.shape[0], chunk):
            stop = min(start + chunk, u.shape[0])
            merged = np.maximum(self.registers[u[start:stop]], self.registers[v[start:stop]])
            out[start:stop] = estimate_register_rows(merged)
        return out

    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N_u ∩ N_v|`` by inclusion–exclusion with exact degrees, clamped.

        Like KMV's Eq. (41) variant, the exact set sizes (degrees, known in
        CSR) replace two of the three estimates, leaving only the union
        estimate's noise; the result is clamped into ``[0, min(|N_u|, |N_v|)]``.
        """
        union_est = self.pair_union_estimates(u, v)
        su = self.exact_sizes[np.asarray(u, dtype=np.int64)]
        sv = self.exact_sizes[np.asarray(v, dtype=np.int64)]
        return np.asarray(hll_intersection(su, sv, union_est), dtype=np.float64)

    def pair_jaccards(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jaccard estimates per pair: clamped intersection over exact-size union."""
        inter = self.pair_intersections(u, v)
        su = self.exact_sizes[np.asarray(u, dtype=np.int64)]
        sv = self.exact_sizes[np.asarray(v, dtype=np.int64)]
        union = su + sv - inter
        out = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
        return np.clip(out, 0.0, 1.0)

    # -- incremental maintenance -------------------------------------------
    def _scatter_max(self, rows: np.ndarray, idx: np.ndarray, rank: np.ndarray) -> None:
        """Register-wise max insertion on the flat backing array."""
        m = np.int64(self.num_registers)
        flat = self.registers.reshape(-1)
        np.maximum.at(flat, rows * m + idx, rank)

    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Register-max insertion of each row's new neighbors (O(1) per element).

        A register holds the max rank over the row's elements; max is
        commutative, associative, and idempotent, so inserting only the new
        elements is bit-identical to a rebuild on the grown set.
        """
        vertices, delta_indptr, delta_indices, new_sizes = self._normalize_delta(
            vertices, delta_indptr, delta_indices, new_sizes
        )
        if vertices.size == 0:
            return
        self.promote_rows_writable()
        if delta_indices.size:
            idx, rank = register_updates(delta_indices, self.precision, self.seed)
            rows = np.repeat(vertices, np.diff(delta_indptr))
            self._scatter_max(rows, idx, rank)
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
        self.registers[vertices] = 0
        nonempty = degrees > 0
        rows = vertices[nonempty]
        if rows.size:
            neighbors = indices[ragged_gather(indptr[rows], degrees[nonempty])]
            idx, rank = register_updates(neighbors, self.precision, self.seed)
            self._scatter_max(np.repeat(rows, degrees[nonempty]), idx, rank)
        self.exact_sizes[vertices] = degrees.astype(np.float64)

    def grow(self, num_sets: int) -> None:
        extra = int(num_sets) - self.num_sets
        if extra < 0:
            raise ValueError("cannot shrink a sketch container")
        if extra == 0:
            return
        self.registers = np.concatenate(
            [self.registers, np.zeros((extra, self.num_registers), dtype=np.uint8)]
        )
        self.exact_sizes = np.concatenate([self.exact_sizes, np.zeros(extra, dtype=np.float64)])

    def sketch_of(self, v: int) -> HyperLogLog:
        """Materialize the standalone HLL sketch of vertex ``v`` (mostly for tests)."""
        hll = HyperLogLog(self.precision, self.seed)
        hll.registers = self.registers[int(v)].copy()
        return hll


class HLLFamily(SketchFamily):
    """Factory of compatible HyperLogLog sketches sharing ``(precision, seed)``."""

    def __init__(self, precision: int, seed: int = 0) -> None:
        self.precision = _check_precision(precision)
        self.seed = int(seed)

    @property
    def num_registers(self) -> int:
        return 1 << self.precision

    @property
    def bits_per_set(self) -> int:
        return self.num_registers * HLL_REGISTER_BITS

    def sketch(self, elements: Iterable[int] | np.ndarray) -> HyperLogLog:
        return HyperLogLog.from_set(elements, self.precision, self.seed)

    def sketch_neighborhoods(self, indptr: np.ndarray, indices: np.ndarray) -> HLLNeighborhoodSketches:
        """Batch construction: one hash pass plus a flat scatter-max (O(m) total)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        degrees = np.diff(indptr)
        registers = np.zeros((n, self.num_registers), dtype=np.uint8)
        sketches = HLLNeighborhoodSketches(
            registers, self.precision, self.seed, degrees.astype(np.float64)
        )
        if indices.size:
            idx, rank = register_updates(indices, self.precision, self.seed)
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            sketches._scatter_max(rows, idx, rank)
        return sketches
