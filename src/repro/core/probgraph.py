"""The user-facing :class:`ProbGraph` representation (§V, Listing 6).

A :class:`ProbGraph` wraps a CSR graph with probabilistic sketches of every
vertex neighborhood.  Users pick a representation (``"bloom"``, ``"khash"``,
``"1hash"``/``"bottomk"``, ``"kmv"``, or ``"hll"``) and a storage budget
``s``; the class resolves the concrete sketch parameters (Bloom filter bits
``B``, number of hash functions ``b``, MinHash size ``k``, HLL precision
``p``), builds all sketches in one
vectorized pass, and exposes estimated neighborhood-intersection cardinalities
through the same call shape the exact CSR graph offers.

Graph-mining algorithms in :mod:`repro.algorithms` accept either a plain
:class:`~repro.graph.csr.CSRGraph` (exact execution) or a :class:`ProbGraph`
(approximate execution) — the plug-in design of §V.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

import numpy as np

from ..graph.csr import CSRGraph, check_vertex_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports core)
    from ..dynamic.graph import GraphDelta
    from ..engine.lsh import LSHIndex
from ..sketches.base import NeighborhoodSketches, SketchFamily, concat_sketch_rows
from ..sketches.bloom import BloomFamily, BloomNeighborhoodSketches
from ..sketches.hll import HLLFamily
from ..sketches.kmv import KMVFamily
from ..sketches.minhash import BottomKFamily, KHashFamily
from .budget import BudgetResolution, resolve_bloom_bits, resolve_hll_precision, resolve_minhash_k
from .estimators import EstimatorKind, intersection_to_jaccard

__all__ = [
    "Representation",
    "ProbGraph",
    "SketchParams",
    "resolve_sketch_params",
    "check_estimator_kind",
]

#: Adjacency slots per build thread.  A build hashes its rows in one range per
#: this many slots of the sketched base, capped by the caller's CPUs, so a
#: second thread starts at ``2 * _SLOTS_PER_RANGE`` (~1M) slots: below that,
#: two ranges measured slower than one.
_SLOTS_PER_RANGE = 1 << 19


class Representation(str, Enum):
    """Available probabilistic set representations."""

    BLOOM = "bloom"
    KHASH = "khash"
    ONEHASH = "1hash"
    KMV = "kmv"
    HLL = "hll"

    @classmethod
    def parse(cls, value: "Representation | str") -> "Representation":
        """Accept a few intuitive aliases (``"bf"``, ``"mh"``, ``"bottomk"``)."""
        if isinstance(value, Representation):
            return value
        aliases = {
            "bf": cls.BLOOM,
            "bloomfilter": cls.BLOOM,
            "mh": cls.ONEHASH,
            "minhash": cls.ONEHASH,
            "bottomk": cls.ONEHASH,
            "onehash": cls.ONEHASH,
            "kh": cls.KHASH,
            "k-hash": cls.KHASH,
            "1-hash": cls.ONEHASH,
            "hyperloglog": cls.HLL,
        }
        key = str(value).lower()
        if key in aliases:
            return aliases[key]
        return cls(key)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Estimator kinds each representation's sketches can evaluate.
_SUPPORTED_ESTIMATORS = {
    Representation.BLOOM: frozenset(
        {EstimatorKind.BF_AND, EstimatorKind.BF_LIMIT, EstimatorKind.BF_OR}
    ),
    Representation.KHASH: frozenset({EstimatorKind.MINHASH_K}),
    Representation.ONEHASH: frozenset({EstimatorKind.MINHASH_1}),
    Representation.KMV: frozenset({EstimatorKind.KMV}),
    Representation.HLL: frozenset({EstimatorKind.HLL}),
}


def check_estimator_kind(
    representation: Representation, estimator: EstimatorKind | str
) -> EstimatorKind:
    """Validate that ``estimator`` is evaluable on ``representation``'s sketches.

    Every estimator reads representation-specific observables (set bits,
    signature slots, retained values, registers), so a mismatched kind cannot
    be evaluated — it raises ``ValueError`` instead of silently answering with
    a different formula than the caller asked for.
    """
    kind = EstimatorKind(estimator)
    if kind not in _SUPPORTED_ESTIMATORS[representation]:
        raise ValueError(
            f"estimator {kind.value!r} is not supported by the "
            f"{representation.value!r} representation"
        )
    return kind


@dataclass(frozen=True)
class SketchParams:
    """Fully-resolved sketch parameters for one ``(graph, representation)`` choice.

    Produced by :func:`resolve_sketch_params`, which applies the §V-A budget
    resolution exactly as :class:`ProbGraph` does.  The :meth:`key` tuple is
    canonical — two parametrizations that resolve to the same concrete sketch
    family yield equal keys — which is what the engine's
    :class:`~repro.engine.PGSession` uses to deduplicate construction passes.
    """

    representation: Representation
    default_estimator: EstimatorKind
    num_bits: int | None = None
    num_hashes: int | None = None
    k: int | None = None
    resolution: BudgetResolution | None = None
    precision: int | None = None

    def key(self) -> tuple:
        """Hashable canonical identity of the concrete sketch family."""
        return (self.representation.value, self.num_bits, self.num_hashes, self.k, self.precision)

    def make_family(self, seed: int) -> SketchFamily:
        """Instantiate the concrete :class:`~repro.sketches.base.SketchFamily`."""
        if self.representation is Representation.BLOOM:
            assert self.num_bits is not None and self.num_hashes is not None
            return BloomFamily(self.num_bits, self.num_hashes, seed)
        if self.representation is Representation.HLL:
            assert self.precision is not None
            return HLLFamily(self.precision, seed)
        assert self.k is not None
        if self.representation is Representation.KHASH:
            return KHashFamily(self.k, seed)
        if self.representation is Representation.ONEHASH:
            return BottomKFamily(self.k, seed)
        return KMVFamily(self.k, seed)


def resolve_sketch_params(
    graph: CSRGraph,
    representation: Representation | str = Representation.BLOOM,
    storage_budget: float = 0.25,
    num_hashes: int = 2,
    num_bits: int | None = None,
    k: int | None = None,
    precision: int | None = None,
) -> SketchParams:
    """Resolve the generic budget knob ``s`` into concrete sketch parameters (§V-A).

    This is the single source of truth shared by :class:`ProbGraph` and the
    engine session cache: explicit ``num_bits`` / ``k`` / ``precision`` win
    over the budget, otherwise the §V-A resolvers pick them from the graph's
    size.
    """
    representation = Representation.parse(representation)
    resolution: BudgetResolution | None = None
    if representation is Representation.BLOOM:
        if num_bits is None:
            resolution = resolve_bloom_bits(graph, float(storage_budget))
            num_bits = resolution.bits_per_vertex
        return SketchParams(
            representation, EstimatorKind.BF_AND, int(num_bits), int(num_hashes), None, resolution
        )
    if representation is Representation.HLL:
        if precision is None:
            precision, resolution = resolve_hll_precision(graph, float(storage_budget))
        return SketchParams(
            representation, EstimatorKind.HLL, None, None, None, resolution, int(precision)
        )
    if k is None:
        resolution = resolve_minhash_k(graph, float(storage_budget))
        k = resolution.bits_per_vertex // 64
        if representation is Representation.KMV:
            k = max(k, 2)
    default = {
        Representation.KHASH: EstimatorKind.MINHASH_K,
        Representation.ONEHASH: EstimatorKind.MINHASH_1,
        Representation.KMV: EstimatorKind.KMV,
    }[representation]
    return SketchParams(representation, default, None, None, int(k), resolution)


def _build_rows(
    params: SketchParams, seed: int, base: CSRGraph, blocks: int
) -> tuple[NeighborhoodSketches, int]:
    """Build ``base``'s sketch rows as ``blocks`` contiguous row ranges, one thread each.

    A row depends only on its neighborhood and the seed, so the ranges,
    concatenated in order, are exactly the rows of one whole-graph build.
    The cuts balance adjacency slots; empty ranges are dropped, and a single
    range builds in the calling thread.  NumPy's hashing kernels release the
    GIL, so the block threads hash in parallel.  Returns the rows and the
    number of ranges hashed.
    """
    indptr, indices = base.indptr, base.indices
    targets = np.arange(1, blocks) * (indices.shape[0] / blocks)
    bounds = np.unique(np.concatenate(([0], np.searchsorted(indptr, targets), [base.num_vertices])))
    if bounds.shape[0] <= 2:
        return params.make_family(seed).sketch_neighborhoods(indptr, indices), 1
    with ThreadPoolExecutor(bounds.shape[0] - 1) as executor:
        futures = [
            executor.submit(_build_range, params, seed, indptr, indices, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return concat_sketch_rows([future.result() for future in futures]), len(futures)


def _build_range(
    params: SketchParams, seed: int, indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> NeighborhoodSketches:
    """The sketch rows of rows ``[lo, hi)``, built from a view of their adjacency."""
    first, last = indptr[lo], indptr[hi]
    return params.make_family(seed).sketch_neighborhoods(
        indptr[lo:hi + 1] - first, indices[first:last]
    )


class ProbGraph:
    """Probabilistic graph representation: sketched neighborhoods plus estimators.

    The sketch rows are hashed in contiguous row ranges of about equal
    adjacency, one thread each: one range per ``2**19`` adjacency slots of the
    sketched graph, at most one per CPU the calling thread may run on, and
    never fewer than one (which hashes in the calling thread).  A row depends
    only on its neighborhood and the seed, so the rows are bit-identical
    whatever the range count; :attr:`build_threads` records it.

    Parameters
    ----------
    graph:
        The input CSR graph.
    representation:
        Which sketch family to use (``"bloom"``, ``"khash"``, ``"1hash"``,
        ``"kmv"``, ``"hll"``).
    storage_budget:
        The generic budget knob ``s ∈ (0, 1]`` of §V-A.  Ignored for a given
        parameter when ``num_bits`` / ``k`` is passed explicitly.
    num_hashes:
        Bloom-filter hash count ``b`` (the paper uses 1–4, default 2).
    num_bits:
        Explicit Bloom-filter length in bits (overrides the budget).
    k:
        Explicit MinHash / KMV sketch size (overrides the budget).
    precision:
        Explicit HyperLogLog register precision ``p`` — ``2**p`` registers per
        neighborhood (overrides the budget).
    oriented:
        Sketch the degree-order oriented neighborhoods ``N+`` instead of the
        full neighborhoods ``N`` (what Listings 1–2 intersect).  Triangle- and
        clique-counting use this; similarity/clustering use the full ``N``.
    seed:
        Hash seed; the whole representation is deterministic given the seed.
    estimator:
        Default intersection estimator for Bloom filters (AND, L, or OR).
    """

    def __init__(
        self,
        graph: CSRGraph,
        representation: Representation | str = Representation.BLOOM,
        storage_budget: float = 0.25,
        num_hashes: int = 2,
        num_bits: int | None = None,
        k: int | None = None,
        precision: int | None = None,
        oriented: bool = False,
        seed: int = 0,
        estimator: EstimatorKind | str | None = None,
    ) -> None:
        self.graph = graph
        self.representation = Representation.parse(representation)
        self.storage_budget = float(storage_budget)
        self.num_hashes = int(num_hashes)
        self.oriented = bool(oriented)
        self.seed = int(seed)
        self._base = graph.oriented() if oriented else graph

        params = resolve_sketch_params(
            graph, self.representation, self.storage_budget, self.num_hashes, num_bits, k, precision
        )
        self.sketch_params = params
        self.family = params.make_family(self.seed)
        self.num_bits = params.num_bits
        self.k = params.k
        self.precision = params.precision
        self.estimator = (
            check_estimator_kind(self.representation, estimator)
            if estimator is not None
            else params.default_estimator
        )
        self.budget_resolution = params.resolution

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ranges = min(cpus or 1, max(1, self._base.indices.shape[0] // _SLOTS_PER_RANGE))
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        self.sketches, self.build_threads = _build_rows(params, self.seed, self._base, ranges)
        self.construction_seconds = time.perf_counter() - start  # reprolint: allow[determinism] -- timing stat only
        self.deltas_applied = 0
        self.rows_patched = 0
        self.patch_seconds = 0.0
        self._start_registries()

    @classmethod
    def from_sketches(
        cls,
        graph: CSRGraph,
        sketches: NeighborhoodSketches,
        params: "SketchParams",
        oriented: bool = False,
        seed: int = 0,
        estimator: EstimatorKind | str | None = None,
        storage_budget: float = 0.25,
        base: CSRGraph | None = None,
        construction_seconds: float = 0.0,
    ) -> "ProbGraph":
        """Wrap an already-built sketch container into a :class:`ProbGraph`.

        The entry point of every path that hashes no rows: sketch-store loads,
        :meth:`ShardedEngine.open <repro.engine.ShardedEngine.open>` and
        :meth:`ShardedEngine.to_probgraph <repro.engine.ShardedEngine.to_probgraph>`.
        The caller guarantees that ``sketches`` is exactly what
        ``params.make_family(seed).sketch_neighborhoods`` would produce on
        ``base`` (the oriented graph when ``oriented``); every query path then
        behaves bit-identically to a directly-constructed ProbGraph.
        :attr:`build_threads` is 0.
        """
        pg = cls.__new__(cls)
        pg.graph = graph
        pg.representation = params.representation
        pg.storage_budget = float(storage_budget)
        pg.num_hashes = int(params.num_hashes) if params.num_hashes is not None else 2
        pg.oriented = bool(oriented)
        pg.seed = int(seed)
        pg._base = base if base is not None else (graph.oriented() if oriented else graph)
        if sketches.num_sets != pg._base.num_vertices:
            raise ValueError(
                f"sketch container holds {sketches.num_sets} rows for a graph "
                f"with {pg._base.num_vertices} vertices"
            )
        pg.sketch_params = params
        pg.family = params.make_family(pg.seed)
        pg.num_bits = params.num_bits
        pg.k = params.k
        pg.precision = params.precision
        pg.estimator = (
            check_estimator_kind(pg.representation, estimator)
            if estimator is not None
            else params.default_estimator
        )
        pg.budget_resolution = params.resolution
        pg.sketches = sketches
        pg.build_threads = 0
        pg.construction_seconds = float(construction_seconds)
        pg.deltas_applied = 0
        pg.rows_patched = 0
        pg.patch_seconds = 0.0
        pg._start_registries()
        return pg

    # ------------------------------------------------------- shared-row registry
    def _start_registries(self) -> None:
        """Start the weak registries :meth:`apply_delta` advances."""
        # Every ProbGraph holding these sketch rows: this one and its shallow
        # copies (a PGSession's views with another default estimator).
        self._peers: weakref.WeakSet[ProbGraph] = weakref.WeakSet((self,))
        # Live LSH indexes over these rows; an engine's register on its ProbGraph.
        self._lsh_indexes: weakref.WeakSet[LSHIndex] = weakref.WeakSet()

    def __copy__(self) -> ProbGraph:
        """A shallow copy shares the sketch rows, so a delta through either advances both."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        self._peers.add(clone)
        return clone

    def __getstate__(self) -> dict[str, Any]:
        # Weak references neither pickle nor deep-copy; such a copy owns its rows.
        state = dict(self.__dict__)
        del state["_peers"], state["_lsh_indexes"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._start_registries()

    # ------------------------------------------------------------------ sizes
    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the underlying graph."""
        return self.graph.num_edges

    @property
    def base(self) -> CSRGraph:
        """The graph the sketches represent (read-only): ``graph.oriented()`` when
        oriented, else ``graph``; :meth:`apply_delta` keeps it in step."""
        return self._base

    @property
    def base_degrees(self) -> np.ndarray:
        """Degrees of the **sketched base**: ``|N+_v|`` when oriented, ``|N_v|`` otherwise.

        Every Jaccard-style union denominator must use these degrees — the
        sketches represent the base's neighborhoods, so mixing in the full
        graph's degrees on an oriented ProbGraph silently changes the measure
        (``int / (d_u + d_v - int)`` with mismatched ``d``).  This is the
        single public source of the degree-semantics contract shared by
        :meth:`jaccard`, the engine's ``batched_pair_jaccard``, and
        ``algorithms.similarity``.
        """
        return self.base.degrees

    @property
    def sketch_storage_bits(self) -> int:
        """Total storage of all neighborhood sketches."""
        return self.sketches.total_storage_bits

    @property
    def relative_memory(self) -> float:
        """Sketch storage relative to the CSR storage (the memory axis of Figs. 4–7)."""
        return self.sketch_storage_bits / self.graph.storage_bits if self.graph.storage_bits else 0.0

    # ------------------------------------------------------------- estimation
    def int_card(self, u: int, v: int, estimator: EstimatorKind | str | None = None) -> float:
        """Estimate ``|N_u ∩ N_v|`` for one vertex pair (Listing 6's ``int_BF_AND`` etc.)."""
        return float(
            self.pair_intersections(np.asarray([u]), np.asarray([v]), estimator=estimator)[0]
        )

    def pair_intersections(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Estimate ``|N_u ∩ N_v|`` for arrays of vertex pairs — the PG inner kernel.

        Raises ``ValueError`` for a vertex ID outside ``[0, n)``.
        """
        kind = (
            check_estimator_kind(self.representation, estimator)
            if estimator is not None
            else self.estimator
        )
        u = check_vertex_ids(u, self.num_vertices, "u")
        v = check_vertex_ids(v, self.num_vertices, "v")
        if isinstance(self.sketches, BloomNeighborhoodSketches):
            return self.sketches.pair_intersections(u, v, estimator=kind)
        return self.sketches.pair_intersections(u, v)

    def pair_intersections_chunked(
        self,
        u: np.ndarray,
        v: np.ndarray,
        max_chunk_pairs: int,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Chunk-contract variant of :meth:`pair_intersections` (bit-identical).

        Delegates to
        :meth:`repro.sketches.base.NeighborhoodSketches.pair_intersections_chunked`,
        resolving the estimator kwarg and checking vertex IDs exactly like
        :meth:`pair_intersections`.  The batch engine's sequential path runs
        through here.
        """
        kind = (
            check_estimator_kind(self.representation, estimator)
            if estimator is not None
            else self.estimator
        )
        u = check_vertex_ids(u, self.num_vertices, "u")
        v = check_vertex_ids(v, self.num_vertices, "v")
        if isinstance(self.sketches, BloomNeighborhoodSketches):
            return self.sketches.pair_intersections_chunked(u, v, max_chunk_pairs, estimator=kind)
        return self.sketches.pair_intersections_chunked(u, v, max_chunk_pairs)

    def jaccard(self, u: int, v: int, estimator: EstimatorKind | str | None = None) -> float:
        """Approximate Jaccard similarity of ``N_u`` and ``N_v`` (Listing 6, lines 13–15)."""
        inter = self.int_card(u, v, estimator=estimator)
        du = float(self._base.degree(u))
        dv = float(self._base.degree(v))
        return float(intersection_to_jaccard(np.asarray([inter]), du, dv)[0])

    def neighborhood_cardinalities(self) -> np.ndarray:
        """Estimated (or exact, for MinHash) ``|N_v|`` for every vertex."""
        return self.sketches.cardinalities()

    def exact_int_card(self, u: int, v: int) -> int:
        """Exact ``|N_u ∩ N_v|`` on the underlying CSR graph (Listing 6's ``int_card``)."""
        return self._base.common_neighbors(u, v)

    # ------------------------------------------------------ dynamic maintenance
    def apply_delta(self, delta: "GraphDelta") -> "ProbGraph":
        """Patch this ProbGraph in place to represent ``delta.graph``.

        The delta must start at this object's current graph
        (``delta.old_fingerprint`` is checked).  Only the touched sketch rows
        are updated:

        * pure insertions go through the containers'
          :meth:`~repro.sketches.base.NeighborhoodSketches.apply_delta`
          (Bloom: set bits; MinHash: per-permutation minima; bottom-k/KMV:
          bounded-heap merge) — ``O(k)`` per new endpoint;
        * deletion-touched vertices are resketched from the new adjacency
          (sketches cannot forget elements);
        * for *oriented* sketch sets the degree-order orientation is recomputed
          and exactly the rows whose ``N+`` changed are resketched.

        In every case the patched container is **bit-identical** to a fresh
        build on ``delta.graph`` with the same parameters, so all query paths
        (including the engine's batched/chunked ones) run unchanged on top.

        Every live :class:`~repro.engine.lsh.LSHIndex` over these rows has
        the patched rows marked and re-keys them at its next read, and a
        session's views of this object with another default estimator
        advance with it.

        If this object lives in a :class:`~repro.engine.PGSession` cache,
        advance it through :meth:`PGSession.apply_delta <repro.engine.PGSession.apply_delta>`
        instead of calling this method directly — the session patches the
        object *and* moves its cache key to the new fingerprint (a direct call
        leaves the entry keyed under the old graph; the session detects and
        re-keys such entries on the next lookup rather than serving them for
        the wrong graph).
        """
        if delta.old_fingerprint != self.graph.fingerprint():
            raise ValueError(
                "delta does not start at this ProbGraph's graph "
                f"(expected fingerprint {self.graph.fingerprint()[:12]}..., "
                f"got {delta.old_fingerprint[:12]}...)"
            )
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        new_graph = delta.graph
        old_n = self.sketches.num_sets
        if new_graph.num_vertices > old_n:
            self.sketches.grow(new_graph.num_vertices)
        if self.oriented:
            new_base, patched = delta.oriented_update(self._base)
            if patched.size:
                self.sketches.resketch_rows(patched, new_base.indptr, new_base.indices)
        else:
            new_base = new_graph
            dirty = delta.dirty_vertices
            vertices, delta_indptr, delta_indices = delta.insertions_excluding(dirty)
            if vertices.size:
                new_sizes = (
                    new_graph.indptr[vertices + 1] - new_graph.indptr[vertices]
                ).astype(np.float64)
                self.sketches.apply_delta(vertices, delta_indptr, delta_indices, new_sizes)
            if dirty.size:
                self.sketches.resketch_rows(dirty, new_graph.indptr, new_graph.indices)
            patched = np.concatenate([vertices, dirty])
        elapsed = time.perf_counter() - start  # reprolint: allow[determinism] -- timing stat only
        for pg in self._peers:
            pg.graph, pg._base = new_graph, new_base
            pg.deltas_applied += 1
            pg.rows_patched += int(patched.size)
            pg.patch_seconds += elapsed
        if self._lsh_indexes:
            grown = np.arange(old_n, new_graph.num_vertices, dtype=np.int64)
            rows = np.concatenate([patched, grown])
            for index in list(self._lsh_indexes):
                index._mark(rows)
        return self

    # ------------------------------------------------------------------ misc
    def cache_key(self) -> tuple:
        """Hashable identity of this sketch set: graph structure + resolved params.

        Two ProbGraphs with equal cache keys hold bit-identical sketches (the
        whole construction is deterministic given the seed), so engine sessions
        may serve one in place of the other.  The default ``estimator`` is
        deliberately *not* part of the key: it only selects a query-time
        formula and does not affect the stored sketches.
        """
        return (self.graph.fingerprint(), self.sketch_params.key(), self.oriented, self.seed)

    def describe(self) -> dict:
        """A small summary dict used by the experiment harness and examples."""
        params: dict[str, object] = {
            "representation": self.representation.value,
            "estimator": self.estimator.value,
            "storage_budget": self.storage_budget,
            "relative_memory": round(self.relative_memory, 4),
            "construction_seconds": round(self.construction_seconds, 6),
            "oriented": self.oriented,
            "n": self.num_vertices,
            "m": self.num_edges,
        }
        if self.representation is Representation.BLOOM:
            params["num_bits"] = self.num_bits
            params["num_hashes"] = self.num_hashes
        elif self.representation is Representation.HLL:
            params["precision"] = self.precision
        else:
            params["k"] = self.k
        return params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.representation is Representation.BLOOM:
            detail = f"B={self.num_bits}, b={self.num_hashes}"
        elif self.representation is Representation.HLL:
            detail = f"p={self.precision}"
        else:
            detail = f"k={self.k}"
        return (
            f"ProbGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"representation={self.representation.value}, {detail}, s={self.storage_budget})"
        )
