"""Abstract interfaces shared by every probabilistic set representation.

The paper treats each representation (Bloom filter, k-hash MinHash, 1-hash
MinHash, KMV) as a black box exposing two capabilities:

* estimate the cardinality of the represented set, ``|X|``; and
* estimate the cardinality of the intersection with another sketch of the same
  kind and parameters, ``|X ∩ Y|``.

Graph algorithms (``repro.algorithms``) only ever talk to sketches through
these two operations, which is exactly the plug-in design of §V.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..graph.csr import ragged_gather

__all__ = [
    "ROW_MATRIX",
    "ROW_VECTOR",
    "ArraySpec",
    "StorageSchema",
    "SetSketch",
    "SketchFamily",
    "SketchContainer",
    "as_id_array",
    "ragged_gather",
    "iter_count_groups",
    "sorted_row_repeats",
    "concat_sketch_rows",
]

#: Shape role of a schema array: one sketch row per set, ``(num_sets, width)``.
ROW_MATRIX = "matrix"
#: Shape role of a schema array: one scalar per set, ``(num_sets,)``.
ROW_VECTOR = "vector"


@dataclass(frozen=True)
class ArraySpec:
    """Declared layout of one per-row backing array of a sketch container.

    ``name`` is the attribute holding the array, ``dtype`` its exact numpy
    dtype (a canonical string such as ``"uint64"``), and ``role`` whether the
    array is a ``(num_sets, width)`` matrix (:data:`ROW_MATRIX`) or a
    ``(num_sets,)`` vector (:data:`ROW_VECTOR`).  The first axis is always the
    sketch row, which is what makes row scatter-gather and per-array
    persistence family-agnostic.
    """

    name: str
    dtype: str
    role: str = ROW_MATRIX

    def __post_init__(self) -> None:
        if self.role not in (ROW_MATRIX, ROW_VECTOR):
            raise ValueError(f"unknown array role {self.role!r}")
        # Canonicalize eagerly so a typo fails at class-definition time, not
        # at the first save/load.
        canonical = np.dtype(self.dtype).name
        if canonical != self.dtype:
            raise ValueError(f"dtype must be canonical ({canonical!r}), got {self.dtype!r}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class StorageSchema:
    """Explicit, introspectable storage contract of a sketch container class.

    ``arrays`` declares every per-row backing array (first axis = sketch row);
    ``params`` names the scalar family parameters two containers must share
    for their rows to be comparable (sizes and hash seeds).  The schema drives
    :meth:`NeighborhoodSketches.take_rows`, :func:`concat_sketch_rows` and the
    versioned on-disk format of ``repro.storage`` — one declaration per
    family instead of per-family serializers.
    """

    arrays: tuple[ArraySpec, ...] = ()
    params: tuple[str, ...] = ()

    @property
    def row_arrays(self) -> tuple[str, ...]:
        """Attribute names of the per-row arrays, in declaration order."""
        return tuple(spec.name for spec in self.arrays)

    def spec(self, name: str) -> ArraySpec:
        for spec in self.arrays:
            if spec.name == name:
                return spec
        raise KeyError(f"schema declares no array named {name!r}")

    def validate(self, container: "NeighborhoodSketches") -> None:
        """Check that ``container``'s arrays match the declared dtypes/shapes."""
        n = int(container.num_sets)
        for spec in self.arrays:
            arr = getattr(container, spec.name, None)
            if not isinstance(arr, np.ndarray):
                raise TypeError(
                    f"{type(container).__name__}.{spec.name} is not an ndarray"
                )
            if arr.dtype != spec.np_dtype:
                raise TypeError(
                    f"{type(container).__name__}.{spec.name} has dtype {arr.dtype}, "
                    f"schema declares {spec.dtype}"
                )
            want_ndim = 2 if spec.role == ROW_MATRIX else 1
            if arr.ndim != want_ndim:
                raise ValueError(
                    f"{type(container).__name__}.{spec.name} has ndim {arr.ndim}, "
                    f"role {spec.role!r} requires {want_ndim}"
                )
            if arr.shape[0] != n:
                raise ValueError(
                    f"{type(container).__name__}.{spec.name} has {arr.shape[0]} rows, "
                    f"container holds {n} sets"
                )


def as_id_array(elements: Iterable[int] | np.ndarray) -> np.ndarray:
    """Normalize an element collection into a 1-D ``int64`` array.

    Vertex IDs in the graph substrate are non-negative integers; sketches accept
    any integer iterable for generality (the paper's §IV results hold for
    arbitrary sets).
    """
    arr = np.asarray(list(elements) if not isinstance(elements, np.ndarray) else elements)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D collection of elements, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"set elements must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def iter_count_groups(counts: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """Yield ``(positions, count)`` groups of equal positive counts.

    Value-sketch construction and maintenance (bottom-k, KMV) sort each
    neighborhood's hashes; grouping rows by equal length turns the ragged
    per-row work into dense ``(rows, count)`` blocks that one vectorized
    ``np.sort`` call handles.  Zero-count rows are skipped.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    boundaries = np.flatnonzero(np.diff(sorted_counts)) + 1
    for group in np.split(order, boundaries):
        if group.size == 0:
            continue
        count = int(counts[group[0]])
        if count == 0:
            continue
        yield group, count


def sorted_row_repeats(
    merged: np.ndarray, empty: Any
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each row of ``merged`` repeats a value, visiting only those positions.

    The value-sketch pair kernels (bottom-k, KMV) concatenate two sorted rows
    of distinct values and sort the result, so a value held by both rows sits
    twice, side by side, and the ``empty`` sentinel (the largest value) pads
    each row's tail.  A *repeat* is a position ``j > 0`` with
    ``merged[r, j] == merged[r, j - 1] < empty``.  One flat ``==`` over the
    rows finds the repeats; after that only they, and a few counts per row,
    are touched.  Returns ``(rows, ranks, repeats, filled)``:

    * ``rows``: the row of every repeat, in row-major order;
    * ``ranks``: the 1-based rank of each repeated value among its row's
      distinct non-empty values;
    * ``repeats``: the number of repeats per row;
    * ``filled``: the number of non-empty entries per row, so a row holds
      ``filled - repeats`` distinct values.
    """
    pairs, width = merged.shape
    flat = merged.ravel()
    valid = flat < empty
    filled = np.count_nonzero(valid.reshape(pairs, width), axis=1)
    same = flat[1:] == flat[:-1]
    same &= valid[1:]
    same[width - 1 :: width] = False  # a row's first entry repeats nothing
    rows, cols = np.divmod(np.flatnonzero(same) + 1, width)
    repeats = np.bincount(rows, minlength=pairs)
    before = np.cumsum(repeats) - repeats  # index of each row's first repeat
    # Distinct values up to column c: c + 1 entries minus the repeats among them.
    ranks = cols - (np.arange(rows.shape[0]) - before[rows])
    return rows, ranks, repeats, filled


class SetSketch(abc.ABC):
    """A probabilistic representation of one set."""

    @abc.abstractmethod
    def cardinality(self) -> float:
        """Estimate ``|X|`` for the represented set ``X``."""

    @abc.abstractmethod
    def intersection_cardinality(self, other: "SetSketch") -> float:
        """Estimate ``|X ∩ Y|`` where ``other`` represents ``Y``.

        Both sketches must come from the same :class:`SketchFamily` (same size
        parameters and hash seeds); implementations raise ``ValueError``
        otherwise.
        """

    @property
    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Number of bits this sketch occupies (used for the budget accounting of §V-A)."""


class SketchFamily(abc.ABC):
    """A factory producing compatible sketches for many sets at once.

    ProbGraph sketches *every* vertex neighborhood of a graph with identical
    parameters so that intersections are over same-sized representations — the
    load-balancing property highlighted in Fig. 1 (panel 5).  The family object
    owns those shared parameters (sizes, hash seeds) and offers a batch
    constructor that sketches all neighborhoods of a CSR graph in one
    vectorized pass.
    """

    @abc.abstractmethod
    def sketch(self, elements: Iterable[int] | np.ndarray) -> SetSketch:
        """Sketch a single set."""

    @abc.abstractmethod
    def sketch_neighborhoods(self, indptr: np.ndarray, indices: np.ndarray) -> "NeighborhoodSketches":
        """Sketch every neighborhood of a CSR adjacency structure in one pass."""

    @property
    @abc.abstractmethod
    def bits_per_set(self) -> int:
        """Storage (bits) used per sketched set; constant across sets by design."""


@runtime_checkable
class SketchContainer(Protocol):
    """Structural contract of a per-vertex sketch container.

    This is the formal statement of what every family's ``NeighborhoodSketches``
    subclass provides and what the engine/dynamic layers may rely on: batch
    estimation (``cardinalities`` / ``pair_intersections`` and its chunked,
    memory-bounded variant), budget accounting, row scatter-gather identity
    (``family_key`` / ``take_rows``), and bit-identical incremental maintenance
    (``apply_delta`` / ``resketch_rows`` / ``grow`` / ``update_many``).

    All five families (Bloom, k-hash MinHash, bottom-k, KMV, HLL) are checked
    against this Protocol statically (see ``repro.sketches``'s conformance
    tuple) and at runtime via ``isinstance`` — the Protocol is
    ``runtime_checkable``, which verifies member presence only, so the static
    check is the authoritative one.  The semantic half of the contract is
    checked by the conformance test in ``tests/test_reprolint.py``, over every
    subclass that declares a :class:`StorageSchema`: the schema names its
    params, the maintenance methods are overridden with the parameter names
    of :class:`NeighborhoodSketches`, and a built container passes
    :meth:`StorageSchema.validate`.
    """

    storage_schema: ClassVar[StorageSchema]

    @property
    def num_sets(self) -> int: ...

    @property
    def total_storage_bits(self) -> int: ...

    @property
    def pair_scratch_bytes(self) -> int: ...

    def family_key(self) -> tuple: ...

    def storage_arrays(self) -> dict[str, np.ndarray]: ...

    def storage_params(self) -> dict[str, Any]: ...

    def promote_rows_writable(self) -> bool: ...

    def cardinalities(self) -> np.ndarray: ...

    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    def pair_intersections_chunked(
        self, u: np.ndarray, v: np.ndarray, max_chunk_pairs: int, **kwargs: Any
    ) -> np.ndarray: ...

    def take_rows(self, rows: np.ndarray) -> "SketchContainer": ...

    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None: ...

    def resketch_rows(
        self, vertices: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> None: ...

    def grow(self, num_sets: int) -> None: ...

    def update_many(self, vertex: int, new_neighbors: Iterable[int] | np.ndarray) -> None: ...


class NeighborhoodSketches(abc.ABC):
    """Per-vertex sketches for a whole graph, stored contiguously.

    Provides vectorized pairwise estimation: given arrays ``u`` and ``v`` of
    vertex IDs, return the estimated ``|N_u ∩ N_v|`` for every pair — the inner
    operation of Listings 1–5.
    """

    #: Fallback per-pair scratch-memory estimate (bytes) used for chunk sizing
    #: when a subclass does not override :attr:`pair_scratch_bytes`.
    _DEFAULT_PAIR_SCRATCH_BYTES = 64

    #: Declared storage contract: per-row backing arrays (name, dtype, shape
    #: role) plus the scalar family parameters.  Subclasses declare it to opt
    #: into :meth:`take_rows` / :func:`concat_sketch_rows` — the row assembly
    #: of the sharded build — and into the versioned on-disk
    #: format of ``repro.storage``.  An empty schema opts out of both.
    storage_schema: ClassVar[StorageSchema] = StorageSchema()

    def storage_arrays(self) -> dict[str, np.ndarray]:
        """The schema-declared row arrays by name, in schema order (no copies)."""
        return {name: getattr(self, name) for name in self.storage_schema.row_arrays}

    def storage_params(self) -> dict[str, Any]:
        """The schema-declared scalar family parameters by name."""
        return {name: getattr(self, name) for name in self.storage_schema.params}

    @classmethod
    def from_storage(
        cls, arrays: Mapping[str, np.ndarray], params: Mapping[str, Any]
    ) -> "NeighborhoodSketches":
        """Reconstruct a container from schema-shaped arrays and parameters.

        The inverse of :meth:`storage_arrays` / :meth:`storage_params`: every
        family's constructor takes exactly the schema arrays and params by
        their declared names, so one generic ``cls(**arrays, **params)`` call
        replaces five per-family deserializers.  Arrays are installed as
        given — pass ``np.memmap`` views for zero-copy loading; the first
        mutating operation promotes them via :meth:`promote_rows_writable`.
        """
        schema = cls.storage_schema
        if not schema.arrays:
            raise NotImplementedError(f"{cls.__name__} does not declare a storage schema")
        missing = [s.name for s in schema.arrays if s.name not in arrays]
        missing += [p for p in schema.params if p not in params]
        if missing:
            raise ValueError(f"{cls.__name__}.from_storage is missing {missing}")
        kwargs: dict[str, Any] = {spec.name: arrays[spec.name] for spec in schema.arrays}
        kwargs.update({name: params[name] for name in schema.params})
        container = cls(**kwargs)
        schema.validate(container)
        return container

    def promote_rows_writable(self) -> bool:
        """Replace read-only row arrays with in-memory writable copies.

        Containers loaded zero-copy from a sketch store hold read-only
        ``np.memmap`` views; the first in-place mutation (``apply_delta`` /
        ``resketch_rows``) calls this to promote them.
        Promotion copies each read-only array once, wholesale — subsequent
        patches then write in place — and never touches arrays that are
        already writable.  Returns whether anything was promoted.
        """
        promoted = False
        for name in self.storage_schema.row_arrays:
            arr = getattr(self, name)
            if not arr.flags.writeable:
                setattr(self, name, np.array(arr, copy=True))
                promoted = True
        return promoted

    def family_key(self) -> tuple:
        """Hashable compatibility identity: container type + family parameters.

        Two containers with equal keys sketch sets under the same hash family
        and sizes, so rows taken from either may be intersected against each
        other (the invariant behind :func:`concat_sketch_rows`).
        """
        return (type(self).__name__,) + tuple(
            getattr(self, name) for name in self.storage_schema.params
        )

    def take_rows(self, rows: np.ndarray) -> "NeighborhoodSketches":
        """A new container holding ``rows`` (in the given order), same family.

        Row ``i`` of the result is a copy of row ``rows[i]`` of this container;
        repeated and arbitrarily-ordered rows are allowed (this is a gather,
        not a subset).  The result answers every query bit-identically to this
        container for the corresponding rows — rows are self-contained by
        design (the load-balancing property of Fig. 1).
        """
        if not self.storage_schema.row_arrays:
            raise NotImplementedError(
                f"{type(self).__name__} does not declare its row arrays"
            )
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_sets):
            raise IndexError("row index out of range")
        clone = copy.copy(self)
        for name in self.storage_schema.row_arrays:
            setattr(clone, name, getattr(self, name)[rows])
        return clone

    @abc.abstractmethod
    def pair_intersections(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Estimate ``|N_u ∩ N_v|`` element-wise for vertex arrays ``u``, ``v``."""

    @property
    def pair_scratch_bytes(self) -> int:
        """Estimated peak temporary bytes *per pair* of one ``pair_intersections`` call.

        The batch-query engine divides its memory budget by this number to pick
        ``max_chunk_pairs`` (the chunk contract below).  Subclasses override it
        with a representation-specific estimate (gathered rows, masks, partial
        reductions); the base default is deliberately conservative for sketches
        that do not report one.
        """
        return self._DEFAULT_PAIR_SCRATCH_BYTES

    def pair_intersections_chunked(
        self, u: np.ndarray, v: np.ndarray, max_chunk_pairs: int, **kwargs: Any
    ) -> np.ndarray:
        """Chunk contract: evaluate ``pair_intersections`` in fixed-size slices.

        Streams the pair list through ``max_chunk_pairs``-sized windows so peak
        extra memory is bounded by roughly ``max_chunk_pairs *
        pair_scratch_bytes`` regardless of how many pairs are queried.  Results
        are bit-identical to a single unchunked call: every estimator here is a
        pure element-wise function of the two gathered sketch rows, so slicing
        the inputs cannot change any output value.

        Extra keyword arguments (e.g. the Bloom ``estimator=``) are forwarded
        verbatim to every underlying :meth:`pair_intersections` call.
        """
        if max_chunk_pairs < 1:
            raise ValueError("max_chunk_pairs must be at least 1")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        total = u.shape[0]
        if total == 0:
            return np.empty(0, dtype=np.float64)
        if total <= max_chunk_pairs:
            return np.asarray(self.pair_intersections(u, v, **kwargs), dtype=np.float64)
        out = np.empty(total, dtype=np.float64)
        for start in range(0, total, max_chunk_pairs):
            stop = min(start + max_chunk_pairs, total)
            out[start:stop] = self.pair_intersections(u[start:stop], v[start:stop], **kwargs)
        return out

    # ------------------------------------------------------ incremental updates
    def _normalize_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Validate and normalize the arguments of :meth:`apply_delta`."""
        vertices = np.asarray(vertices, dtype=np.int64).ravel()
        delta_indptr = np.asarray(delta_indptr, dtype=np.int64).ravel()
        delta_indices = np.asarray(delta_indices, dtype=np.int64).ravel()
        new_sizes = np.asarray(new_sizes, dtype=np.float64).ravel()
        if delta_indptr.shape[0] != vertices.shape[0] + 1:
            raise ValueError("delta_indptr length must be len(vertices) + 1")
        if delta_indptr[0] != 0 or delta_indptr[-1] != delta_indices.shape[0]:
            raise ValueError("delta_indptr must start at 0 and end at len(delta_indices)")
        if new_sizes.shape[0] != vertices.shape[0]:
            raise ValueError("new_sizes must have one entry per vertex")
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.num_sets):
            raise IndexError("delta vertex out of range")
        if np.unique(vertices).size != vertices.size:
            # Value-based containers write each row once per delta; a repeated
            # vertex would silently lose all but its last segment's elements.
            raise ValueError("delta vertices must be unique (merge repeated vertices' segments)")
        return vertices, delta_indptr, delta_indices, new_sizes

    def apply_delta(
        self,
        vertices: np.ndarray,
        delta_indptr: np.ndarray,
        delta_indices: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Incrementally insert new elements into the sketched sets, in place.

        Vertex ``vertices[i]`` gains the elements
        ``delta_indices[delta_indptr[i]:delta_indptr[i+1]]`` (which must not
        already belong to its set) and its tracked set size becomes
        ``new_sizes[i]``.  Vertices must be unique — one segment per touched
        set (enforced; repeated rows would otherwise lose elements).  Implementations guarantee **bit-identical** results
        to rebuilding the touched rows from scratch on the grown sets: Bloom
        filters OR the new bit positions, MinHash signatures lower the
        per-permutation minima, bottom-k/KMV merge into the bounded value
        heap — all in ``O(k)`` per new element, never touching other rows.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental maintenance"
        )

    def resketch_rows(self, vertices: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Rebuild the sketch rows of ``vertices`` from a full CSR adjacency, in place.

        Used for changes incremental insertion cannot express (edge deletions,
        reshaped oriented neighborhoods).  Row results are bit-identical to a
        fresh :meth:`SketchFamily.sketch_neighborhoods` pass over the same
        adjacency; rows outside ``vertices`` are untouched.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental maintenance"
        )

    def grow(self, num_sets: int) -> None:
        """Append empty sketch rows until the container holds ``num_sets`` sets."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental maintenance"
        )

    def update_many(self, vertex: int, new_neighbors: Iterable[int] | np.ndarray) -> None:
        """Incrementally insert ``new_neighbors`` into one vertex's sketched set.

        Single-vertex convenience over :meth:`apply_delta` (the O(k) update
        path of SNIPPETS' permutation-based MinHash maintenance, generalized to
        every family).  ``new_neighbors`` must be distinct elements not already
        in the set; the tracked set size grows by ``len(new_neighbors)``.
        """
        nbrs = as_id_array(new_neighbors)
        if nbrs.size == 0:
            return
        v = int(vertex)
        sizes = getattr(self, "exact_sizes", None)
        if sizes is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not track set sizes; use apply_delta directly"
            )
        new_size = float(sizes[v]) + nbrs.size
        self.apply_delta(
            np.asarray([v], dtype=np.int64),
            np.asarray([0, nbrs.size], dtype=np.int64),
            nbrs,
            np.asarray([new_size], dtype=np.float64),
        )

    @abc.abstractmethod
    def cardinalities(self) -> np.ndarray:
        """Estimate ``|N_v|`` for every vertex ``v``."""

    @property
    @abc.abstractmethod
    def num_sets(self) -> int:
        """Number of sketched neighborhoods (``n`` for a graph)."""

    @property
    @abc.abstractmethod
    def total_storage_bits(self) -> int:
        """Total storage of all sketches, in bits."""


def concat_sketch_rows(parts: Sequence[NeighborhoodSketches]) -> NeighborhoodSketches:
    """Stack compatible containers row-wise into one container (the gather step).

    All ``parts`` must be the same container type with identical family
    parameters (:meth:`NeighborhoodSketches.family_key`); the result holds
    their rows concatenated in order and is bit-identical, row for row, to the
    inputs.  This is how the sharded engine joins the row ranges its threads
    build into one full sketch set.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("concat_sketch_rows needs at least one container")
    first = parts[0]
    if not first.storage_schema.row_arrays:
        raise NotImplementedError(
            f"{type(first).__name__} does not declare its row arrays"
        )
    for other in parts[1:]:
        if other.family_key() != first.family_key():
            raise ValueError(
                "cannot concatenate sketch containers of different families: "
                f"{first.family_key()} vs {other.family_key()}"
            )
    clone = copy.copy(first)
    if len(parts) == 1:
        # Single-part concat is the identity: share the backing arrays instead
        # of paying an np.concatenate copy (which would also promote mmap-backed
        # rows to heap memory for no reason).
        return clone
    for name in first.storage_schema.row_arrays:
        setattr(clone, name, np.concatenate([getattr(p, name) for p in parts], axis=0))
    return clone
