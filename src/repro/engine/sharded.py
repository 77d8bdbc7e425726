"""Sharded multiprocess query engine — real multi-core execution (§VIII-F).

:mod:`repro.parallel.distributed` *models* the paper's distributed claim
(shipping fixed-size sketches instead of CSR neighborhoods cuts communication
~4×), and threads are capped by the GIL for anything that is not one huge
NumPy call.  This module executes the same idea for real on one machine:
vertices are partitioned into shards
(:mod:`repro.graph.partition`), each shard's neighborhood sketches are built in
a separate **process** of a :class:`concurrent.futures.ProcessPoolExecutor`,
and queries are served by routing every pair to the shard owning its sketch
rows and scatter-gathering the results.

These contracts make this safe to use everywhere the single-process engine is:

* **Bit-identity.**  A sketch row is a pure function of the neighborhood
  elements and the family seed — it does not depend on the row's position or
  on any other row.  Every shard therefore builds with the *session* seed
  (no per-shard salt is needed for reproducibility: the row hashes already
  are deterministic), over horizontal row blocks of the full adjacency (never
  induced subgraphs), so the union of shard containers is bit-identical to a
  whole-graph build and every routed query returns exactly the floats the
  single-process :class:`~repro.engine.PGSession` path returns.
* **Shipment accounting.**  For a cut pair the lower-degree endpoint's row is
  shipped to the other endpoint's shard, deduplicated per
  ``(vertex, destination shard)`` within a query — exactly the point-to-point
  model of :func:`repro.parallel.distributed.communication_volume`, whose
  shipment counts and sketch bytes the engine's :class:`ShardCommStats` are
  validated against in the test suite.
* **Worker transport.**  Workers receive the CSR arrays either through
  pickled row-block views (``transport="pickle"``) or zero-copy through
  :mod:`multiprocessing.shared_memory` (``transport="shm"``, the default when
  available): the parent publishes the full ``(indptr, indices)`` arrays once
  and each worker slices out its own rows.
* **Delta routing.**  A :class:`~repro.dynamic.graph.GraphDelta` is split by
  ``partition.owners`` into per-shard sub-deltas (a cut edge touches both
  endpoints' shards) and each shard's container is patched **in place** with
  the same family ``apply_delta``/``grow`` machinery the single-process path
  uses — bit-identical to a fresh sharded rebuild, at the cost of only the
  touched rows (:meth:`ShardedEngine.apply_delta`).  Engines built over a
  :class:`~repro.dynamic.graph.DynamicGraph` additionally guard every query
  entry point: if the source graph moved without a routed delta, the engine
  raises :class:`StaleShardError` instead of silently serving stale rows.
* **One LSH table.**  :meth:`ShardedEngine.lsh_index` is an ordinary
  :class:`~repro.engine.lsh.LSHIndex` with one table of global vertex IDs:
  a routed delta only marks its touched rows (the next read re-keys them),
  and :meth:`ShardedEngine.repartition` leaves the table alone.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..analysis import runtime as _san
from ..core.estimators import EstimatorKind, intersection_to_jaccard
from ..core.probgraph import (
    ProbGraph,
    Representation,
    SketchParams,
    check_estimator_kind,
    resolve_sketch_params,
)
from ..dynamic.graph import DynamicGraph, GraphDelta
from ..graph.csr import CSRGraph, ragged_gather
from ..graph.partition import ShardPartition, partition_graph, slice_row_block
from ..parallel.distributed import CommunicationVolume, communication_volume
from ..parallel.executor import chunked_ranges
from ..sketches.base import NeighborhoodSketches, concat_sketch_rows
from ..sketches.bloom import BloomNeighborhoodSketches
from ..storage import (
    StoreFormatError,
    StoreHandle,
    load_graph,
    load_partition,
    load_sketches,
    save_graph,
    save_partition,
    save_sketches,
    sketch_params_from_meta,
    sketch_params_meta,
)
from .batch import check_vertex_ids, record_query, record_topk, resolve_chunk_pairs
from .lsh import LSHIndex
from .topk import TopKResult
from ..core.budget import DEFAULT_LSH_THRESHOLD

__all__ = [
    "ShardCommStats",
    "ShardSkewStats",
    "ShardedEngine",
    "StaleShardError",
    "build_probgraph_sharded",
]


class StaleShardError(RuntimeError):
    """The engine's source graph changed without a delta being routed to the shards.

    Raised by every :class:`ShardedEngine` query entry point when the
    :class:`~repro.dynamic.graph.DynamicGraph` the engine was built over has
    applied batches the shards never saw.  Serving would silently return
    results for the *old* graph; instead, route each
    :class:`~repro.dynamic.graph.GraphDelta` through
    :meth:`ShardedEngine.apply_delta` (or rebuild the engine).
    """


@dataclass
class ShardCommStats:
    """Bytes and rows the sharded engine actually moved between shards.

    ``shipments`` counts unique ``(vertex, destination shard)`` row transfers —
    the same dedup unit as
    :attr:`repro.parallel.distributed.CommunicationVolume.shipments` — and
    ``sketch_bytes`` the corresponding sketch payload, so a pair query over a
    graph's edge list is directly comparable to the §VIII-F model.
    """

    queries: int = 0
    routed_pairs: int = 0
    cut_pairs: int = 0
    shipments: int = 0
    sketch_bytes: float = 0.0

    def reset(self) -> None:
        """Zero all counters (per-experiment accounting)."""
        self.queries = 0
        self.routed_pairs = 0
        self.cut_pairs = 0
        self.shipments = 0
        self.sketch_bytes = 0.0


@dataclass(frozen=True)
class ShardSkewStats:
    """Per-shard load snapshot of a :class:`ShardedEngine` under a stream.

    ``vertices[s]`` / ``edges[s]`` describe the static placement (owned rows
    and their directed adjacency slots — ``edges.sum() == 2m``); ``updates[s]``
    counts the sketch rows :meth:`ShardedEngine.apply_delta` patched on shard
    ``s`` since the build (or the last repartition), i.e. where the *stream*
    is landing.  Imbalance ratios are ``max / mean`` — 1.0 is perfectly
    balanced, and :meth:`needs_repartition` is the documented trigger for
    :meth:`ShardedEngine.repartition`.
    """

    vertices: np.ndarray
    edges: np.ndarray
    updates: np.ndarray

    @property
    def num_shards(self) -> int:
        """Number of shards described."""
        return int(self.vertices.shape[0])

    @staticmethod
    def _imbalance(counts: np.ndarray) -> float:
        mean = float(counts.mean()) if counts.size else 0.0
        if mean <= 0.0:
            return 1.0
        return float(counts.max()) / mean

    @property
    def vertex_imbalance(self) -> float:
        """``max / mean`` of per-shard vertex counts (1.0 = balanced)."""
        return self._imbalance(self.vertices)

    @property
    def edge_imbalance(self) -> float:
        """``max / mean`` of per-shard adjacency-slot counts (1.0 = balanced)."""
        return self._imbalance(self.edges)

    @property
    def update_imbalance(self) -> float:
        """``max / mean`` of per-shard patched-row counts (1.0 = balanced)."""
        return self._imbalance(self.updates)

    @property
    def max_imbalance(self) -> float:
        """The worst of the vertex/edge imbalance ratios (the placement skew)."""
        return max(self.vertex_imbalance, self.edge_imbalance)

    def needs_repartition(self, threshold: float = 1.5) -> bool:
        """Whether placement skew crossed ``threshold`` (the repartition trigger).

        The sharded engine's wall clock is gated by its most loaded shard, so
        once one shard holds ``threshold×`` the mean vertex or adjacency load,
        redistributing ownership (:meth:`ShardedEngine.repartition` — a pure
        row shuffle, no sketch is rebuilt) wins back the difference.  Update
        skew is reported but not part of the trigger: a hot vertex keeps its
        shard hot under any balanced placement.
        """
        return self.max_imbalance > float(threshold)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _attach_shared_memory(name: str) -> "SharedMemory":
    """Attach an existing shared-memory block; the parent owns and unlinks it.

    Fork-started workers (the Linux default this engine targets) share the
    parent's resource-tracker process, and registrations are per-name, so the
    parent's single ``unlink()`` after the build cleans the segment up exactly
    once — no per-child tracker bookkeeping is needed.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _build_shard_sketches(spec: tuple) -> NeighborhoodSketches:
    """Worker entry point: build one shard's sketch rows from its CSR row block.

    ``spec`` is ``(params, seed, payload)`` where ``payload`` is either
    ``("arrays", local_indptr, local_indices)`` (pickled row-block views) or
    ``("shm", indptr_name, indptr_len, indices_name, indices_len, owned)``
    (attach the full CSR via shared memory and slice the owned rows here).
    The returned container's row ``i`` is bit-identical to row ``owned[i]`` of
    a whole-graph build with the same family parameters and seed.
    """
    params, seed, payload = spec
    family = params.make_family(int(seed))
    if payload[0] == "arrays":
        _, local_indptr, local_indices = payload
        return family.sketch_neighborhoods(local_indptr, local_indices)
    _, indptr_name, indptr_len, indices_name, indices_len, owned = payload
    shm_indptr = _attach_shared_memory(indptr_name)
    try:
        shm_indices = _attach_shared_memory(indices_name)
    except BaseException:
        # A failed second attach (segment vanished, fd limit) must not leak
        # the first segment's mapping for the worker's lifetime.
        shm_indptr.close()
        raise
    try:
        indptr = np.ndarray((indptr_len,), dtype=np.int64, buffer=shm_indptr.buf)
        indices = np.ndarray((indices_len,), dtype=np.int64, buffer=shm_indices.buf)
        local_indptr, local_indices = slice_row_block(indptr, indices, owned)
        return family.sketch_neighborhoods(local_indptr, local_indices)
    finally:
        shm_indptr.close()
        shm_indices.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class ShardedEngine:
    """Per-shard sketch sets built in a process pool, served by routed queries.

    Parameters mirror :class:`~repro.core.ProbGraph` (representation, budget,
    explicit sizes, ``oriented``, ``seed``, default ``estimator``), plus:

    num_shards:
        Number of vertex shards (= per-shard sketch containers).
    partition:
        ``"hash"`` (random balanced, default) or ``"locality"`` (BFS chunks) —
        see :func:`repro.graph.partition.partition_graph`.
    partition_seed:
        Seed of the partitioner's RNG (defaults to ``seed``).  Only the
        *ownership* of rows depends on it — never the sketch contents, which
        are built with the session ``seed`` so that results stay bit-identical
        to the single-process path for any partitioning.
    pool:
        An existing :class:`~concurrent.futures.ProcessPoolExecutor` to reuse
        across builds (it is not shut down); when ``None``, a private pool of
        ``max_workers`` (default ``num_shards``) processes is created for the
        construction pass and torn down afterwards.
    transport:
        ``"shm"`` ships the full CSR through shared memory and lets each
        worker slice its rows, ``"pickle"`` sends per-shard row-block arrays,
        ``"auto"`` (default) tries shared memory and falls back to pickling.

    Queries are safe to issue from concurrent threads: evaluation state is
    per-call (shard containers are only read), and the :attr:`comm` counters
    are updated under a lock.

    ``graph`` may also be a :class:`~repro.dynamic.graph.DynamicGraph`: the
    engine shards its current snapshot and remembers the source, and every
    query entry point then verifies the source has not applied batches the
    shards never saw (raising :class:`StaleShardError` otherwise — route each
    delta through :meth:`apply_delta` to keep serving).  The freshness check
    is ``O(1)`` (a version counter) unless the source actually moved.
    """

    def __init__(
        self,
        graph: CSRGraph | DynamicGraph,
        num_shards: int,
        representation: Representation | str = Representation.BLOOM,
        storage_budget: float = 0.25,
        num_hashes: int = 2,
        num_bits: int | None = None,
        k: int | None = None,
        precision: int | None = None,
        oriented: bool = False,
        seed: int = 0,
        estimator: EstimatorKind | str | None = None,
        partition: str = "hash",
        partition_seed: int | None = None,
        pool: ProcessPoolExecutor | None = None,
        max_workers: int | None = None,
        transport: str = "auto",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if transport not in ("auto", "shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}; expected 'auto', 'shm', or 'pickle'")
        if isinstance(graph, DynamicGraph):
            self._source: DynamicGraph | None = graph
            self._source_version = graph.version
            graph = graph.snapshot()
        else:
            self._source = None
            self._source_version = -1
        self.graph = graph
        self.storage_budget = float(storage_budget)
        self.oriented = bool(oriented)
        self.seed = int(seed)
        self.params: SketchParams = resolve_sketch_params(
            graph, representation, storage_budget, num_hashes, num_bits, k, precision
        )
        self.estimator = (
            check_estimator_kind(self.params.representation, estimator)
            if estimator is not None
            else self.params.default_estimator
        )
        self._base = graph.oriented() if oriented else graph
        self.partition: ShardPartition = partition_graph(
            graph, num_shards, method=partition,
            seed=self.seed if partition_seed is None else int(partition_seed),
        )
        self.family = self.params.make_family(self.seed)
        self.comm = ShardCommStats()
        # Instrumented under reprosan: the comm lock guards the stats
        # counters, the patch lock serializes the structural mutators
        # (apply_delta / repartition) whose row-array scatters are
        # write-epoch stamped against it.
        self._comm_lock = _san.make_rlock("ShardedEngine.comm")
        self._patch_lock = _san.make_rlock("ShardedEngine.patch")
        self._closed = False
        self._handles: list[StoreHandle] = []
        self._update_counts = np.zeros(self.num_shards, dtype=np.int64)
        self._lsh_indexes: "weakref.WeakSet[LSHIndex]" = weakref.WeakSet()
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        self._shards: list[NeighborhoodSketches] = self._build(pool, max_workers, transport)
        self.construction_seconds = time.perf_counter() - start  # reprolint: allow[determinism] -- timing stat only

    # ------------------------------------------------------------ construction
    def _shard_specs(self, transport: str) -> tuple[list[tuple], object | None]:
        """Build the per-shard worker specs; returns (specs, shm_handles)."""
        base = self._base
        if transport == "pickle":
            specs = []
            for s in range(self.num_shards):
                local_indptr, local_indices = self.partition.row_block(
                    base.indptr, base.indices, s
                )
                specs.append((self.params, self.seed, ("arrays", local_indptr, local_indices)))
            return specs, None
        indptr = np.ascontiguousarray(base.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(base.indices, dtype=np.int64)
        # Segments go through the sanitizer's tracked allocator: under
        # reprosan each carries its allocation site and must be released by
        # engine close/build teardown; in production this is a plain
        # SharedMemory(create=True).
        shm_indptr = _san.create_segment(
            indptr.nbytes, owner=self, purpose="CSR indptr transport"
        )
        try:
            shm_indices = _san.create_segment(
                indices.nbytes, owner=self, purpose="CSR indices transport"
            )
        except BaseException:
            _san.release_segment(shm_indptr)
            raise
        try:
            np.ndarray(indptr.shape, dtype=np.int64, buffer=shm_indptr.buf)[:] = indptr
            np.ndarray(indices.shape, dtype=np.int64, buffer=shm_indices.buf)[:] = indices
        except BaseException:
            for shm in (shm_indptr, shm_indices):
                _san.release_segment(shm)
            raise
        specs = [
            (
                self.params,
                self.seed,
                (
                    "shm",
                    shm_indptr.name,
                    indptr.shape[0],
                    shm_indices.name,
                    indices.shape[0],
                    self.partition.shard_vertices[s],
                ),
            )
            for s in range(self.num_shards)
        ]
        return specs, (shm_indptr, shm_indices)

    def _build(
        self,
        pool: ProcessPoolExecutor | None,
        max_workers: int | None,
        transport: str,
    ) -> list[NeighborhoodSketches]:
        if self.num_shards == 1:
            # Nothing to fan out — build the single row block in-process.
            return [
                _build_shard_sketches(self._shard_specs("pickle")[0][0])
            ]
        if transport == "auto":
            try:
                specs, handles = self._shard_specs("shm")
            except (OSError, ImportError):
                # Shared memory unavailable (no /dev/shm, size limits, or no
                # _posixshmem) — pickled row blocks are always possible.
                specs, handles = self._shard_specs("pickle")
        else:
            specs, handles = self._shard_specs(transport)
        try:
            if pool is not None:
                return list(pool.map(_build_shard_sketches, specs))
            with ProcessPoolExecutor(max_workers=max_workers or self.num_shards) as owned:
                return list(owned.map(_build_shard_sketches, specs))
        finally:
            if handles is not None:
                for shm in handles:
                    _san.release_segment(shm)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the engine: the well-defined end of its resource lifetime.

        Idempotent.  Shared-memory transport segments are already released by
        the build's ``finally`` teardown, and store handles attached by
        :meth:`open` are closed here; ``close()`` is then where the reprosan
        lifecycle tracker audits that nothing owned by this engine is still
        live — a transport segment leaked by an error path or a store-opened
        mmap handle left unreleased becomes a ``SAN601`` finding here, with
        its acquisition site.  After close, query and patch entry points
        raise :class:`RuntimeError`.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        _san.check_owner_segments(self)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this ShardedEngine is closed; build a new engine (or query "
                "before leaving the `with` block)"
            )

    # ------------------------------------------------------------ persistence
    def save(self, root: str | os.PathLike[str]) -> str:
        """Persist the engine into directory ``root`` for :meth:`open`.

        Layout: ``manifest.json`` (session parameters and the graph
        fingerprint), ``graph.pgsk`` (CSR adjacency), ``partition.pgsk``
        (vertex ownership), and one ``shard_<i>.pgsk`` per shard container —
        each a checksummed versioned block file
        (:mod:`repro.storage.format`).  Saving is read-only with respect to
        the engine and serialized against concurrent delta patches; the files
        are byte-deterministic for a given engine state.  Returns ``root``.
        """
        self._ensure_open()
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        with self._patch_lock:
            fingerprint = self.graph.fingerprint()
            save_graph(os.path.join(root, "graph.pgsk"), self.graph)
            save_partition(os.path.join(root, "partition.pgsk"), self.partition)
            for s, shard in enumerate(self._shards):
                save_sketches(
                    os.path.join(root, f"shard_{s}.pgsk"),
                    shard,
                    meta={
                        "shard": s,
                        "num_shards": self.num_shards,
                        "fingerprint": fingerprint,
                    },
                )
            manifest = {
                "format": 1,
                "kind": "sharded-engine",
                "num_shards": self.num_shards,
                "oriented": bool(self.oriented),
                "seed": int(self.seed),
                "storage_budget": float(self.storage_budget),
                "estimator": self.estimator.value,
                "sketch_params": sketch_params_meta(self.params),
                "fingerprint": fingerprint,
                "construction_seconds": float(self.construction_seconds),
            }
            tmp = os.path.join(root, "manifest.json.tmp")
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, os.path.join(root, "manifest.json"))
        return root

    @classmethod
    def open(
        cls,
        root: str | os.PathLike[str],
        mode: str = "mmap",
        estimator: EstimatorKind | str | None = None,
    ) -> "ShardedEngine":
        """Attach an engine to a directory written by :meth:`save`.

        The cold-start counterpart of building: no process pool, no hashing —
        the CSR adjacency and every shard container come straight from the
        saved block files, zero-copy in ``"mmap"`` mode (``"eager"`` reads
        them into process memory).  The opened engine answers every query
        bit-identically to the engine that saved it; delta patches promote
        the touched shard's mmap rows to writable copies lazily.  All store
        handles are owned by the engine and released by :meth:`close`, where
        the reprosan ledger audits them like shared-memory segments.

        ``estimator`` overrides the saved default estimator; everything else
        (representation, resolved sketch parameters, orientation, seed,
        partition) is restored from the manifest and verified against the
        per-file metadata and graph fingerprint
        (:class:`~repro.storage.StoreFormatError` on any mismatch).
        """
        root = os.fspath(root)
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("kind") != "sharded-engine" or manifest.get("format") != 1:
            raise StoreFormatError(
                f"{manifest_path}: not a v1 sharded-engine manifest "
                f"(kind={manifest.get('kind')!r}, format={manifest.get('format')!r})"
            )
        num_shards = int(manifest["num_shards"])
        fingerprint = str(manifest["fingerprint"])
        engine = cls.__new__(cls)
        engine._source = None
        engine._source_version = -1
        engine._closed = False
        engine._handles = []
        try:
            graph, graph_handle = load_graph(
                os.path.join(root, "graph.pgsk"), mode=mode, owner=engine
            )
            engine._handles.append(graph_handle)
            if graph.fingerprint() != fingerprint:
                raise StoreFormatError(
                    f"{root}: stored adjacency fingerprint does not match the "
                    f"manifest ({graph.fingerprint()[:12]}... != {fingerprint[:12]}...)"
                )
            partition = load_partition(os.path.join(root, "partition.pgsk"))
            if partition.num_shards != num_shards:
                raise StoreFormatError(
                    f"{root}: partition has {partition.num_shards} shards, "
                    f"manifest says {num_shards}"
                )
            if partition.owners.shape[0] != graph.num_vertices:
                raise StoreFormatError(
                    f"{root}: partition covers {partition.owners.shape[0]} "
                    f"vertices, adjacency has {graph.num_vertices}"
                )
            shards: list[NeighborhoodSketches] = []
            for s in range(num_shards):
                shard, handle = load_sketches(
                    os.path.join(root, f"shard_{s}.pgsk"), mode=mode, owner=engine
                )
                engine._handles.append(handle)
                if (
                    int(handle.meta.get("shard", -1)) != s
                    or handle.meta.get("fingerprint") != fingerprint
                ):
                    raise StoreFormatError(
                        f"{root}/shard_{s}.pgsk: shard metadata does not match "
                        "the manifest (wrong shard index or graph fingerprint)"
                    )
                expected_rows = partition.shard_vertices[s].shape[0]
                if shard.num_sets != expected_rows:
                    raise StoreFormatError(
                        f"{root}/shard_{s}.pgsk: {shard.num_sets} rows stored, "
                        f"partition owns {expected_rows}"
                    )
                shards.append(shard)
        except Exception:
            engine._closed = True
            for handle in engine._handles:
                handle.close()
            raise
        engine.graph = graph
        engine.storage_budget = float(manifest["storage_budget"])
        engine.oriented = bool(manifest["oriented"])
        engine.seed = int(manifest["seed"])
        engine.params = sketch_params_from_meta(manifest["sketch_params"])
        engine.estimator = (
            check_estimator_kind(engine.params.representation, estimator)
            if estimator is not None
            else EstimatorKind(manifest["estimator"])
        )
        engine._base = graph.oriented() if engine.oriented else graph
        engine.partition = partition
        engine.family = engine.params.make_family(engine.seed)
        engine.comm = ShardCommStats()
        engine._comm_lock = _san.make_rlock("ShardedEngine.comm")
        engine._patch_lock = _san.make_rlock("ShardedEngine.patch")
        engine._update_counts = np.zeros(num_shards, dtype=np.int64)
        engine._lsh_indexes = weakref.WeakSet()
        engine._shards = shards
        engine.construction_seconds = time.perf_counter() - start  # reprolint: allow[determinism] -- timing stat only
        return engine

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        """Number of vertex shards."""
        return self.partition.num_shards

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.num_vertices

    @property
    def owners(self) -> np.ndarray:
        """Shard owning each vertex (the partitioning the queries route by)."""
        return self.partition.owners

    @property
    def base(self) -> CSRGraph:
        """The sketched base graph — see :attr:`repro.core.ProbGraph.base`."""
        return self._base

    @property
    def base_degrees(self) -> np.ndarray:
        """Degrees of the sketched base (oriented ``N+`` when oriented) — see
        :attr:`repro.core.ProbGraph.base_degrees`."""
        return self.base.degrees

    @property
    def bits_per_set(self) -> int:
        """Fixed sketch size per vertex — the shipment payload of §VIII-F."""
        return self.family.bits_per_set

    @property
    def representation(self) -> Representation:
        """The sketch family served by this engine."""
        return self.params.representation

    # ---------------------------------------------------------------- routing
    def _route(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Home shard, cut mask, and shipped endpoint of every queried pair.

        Mirrors :func:`repro.parallel.distributed.communication_volume`: a
        same-shard pair is evaluated where it lives; a cut pair ships the
        lower-degree endpoint's sketch row to the other endpoint's shard
        (ties ship the first endpoint), so the evaluation happens at the
        receiving shard.
        """
        owners = self.partition.owners
        ou = owners[u]
        ov = owners[v]
        degs = self.graph.degrees
        ship_u = degs[u] <= degs[v]
        home = np.where(ou == ov, ou, np.where(ship_u, ov, ou))
        shipped = np.where(ship_u, u, v)
        return home, ou != ov, shipped

    def _eval_container(
        self, shard: int, local_vertices: np.ndarray, ship_vertices: np.ndarray
    ) -> tuple[NeighborhoodSketches, np.ndarray]:
        """A container over exactly the rows one routed evaluation touches.

        ``local_vertices`` (unique global IDs owned by ``shard``) stay put;
        ``ship_vertices`` (unique global IDs owned by *other* shards) are
        gathered from their owners' containers — each gather is one counted
        shipment of ``bits_per_set`` bits — and appended after them.  Only the
        referenced rows are copied (never the whole shard), and when the query
        touches every owned row with nothing shipped, the shard's container is
        returned as-is.  The returned lookup is a fresh per-call array (queries
        are safe to issue concurrently) mapping every referenced global ID to
        its row in the returned container.
        """
        owned = self.partition.shard_vertices[shard]
        lookup = np.empty(self.graph.num_vertices, dtype=np.int64)
        if ship_vertices.size == 0 and local_vertices.shape[0] == owned.shape[0]:
            # local_vertices is a unique subset of owned, so equal sizes mean
            # the query touches the whole shard: serve the container in place.
            lookup[owned] = np.arange(owned.shape[0], dtype=np.int64)
            return self._shards[shard], lookup
        parts = [self._shards[shard].take_rows(self.partition.local_index[local_vertices])]
        lookup[local_vertices] = np.arange(local_vertices.shape[0], dtype=np.int64)
        if ship_vertices.size:
            src = self.partition.owners[ship_vertices]
            order = np.argsort(src, kind="stable")
            grouped = ship_vertices[order]
            src_sorted = src[order]
            for t in np.unique(src_sorted):
                rows_t = grouped[src_sorted == t]
                parts.append(
                    self._shards[int(t)].take_rows(self.partition.local_index[rows_t])
                )
            lookup[grouped] = local_vertices.shape[0] + np.arange(
                grouped.shape[0], dtype=np.int64
            )
            with self._comm_lock:
                self.comm.shipments += int(ship_vertices.size)
                self.comm.sketch_bytes += float(ship_vertices.size) * self.bits_per_set / 8.0
        return concat_sketch_rows(parts), lookup

    def _container_pairs(
        self,
        container: NeighborhoodSketches,
        lu: np.ndarray,
        lv: np.ndarray,
        kind: EstimatorKind,
    ) -> np.ndarray:
        if isinstance(container, BloomNeighborhoodSketches):
            return np.asarray(container.pair_intersections(lu, lv, estimator=kind), dtype=np.float64)
        return np.asarray(container.pair_intersections(lu, lv), dtype=np.float64)

    def _resolve_estimator(self, estimator: EstimatorKind | str | None) -> EstimatorKind:
        if estimator is None:
            return self.estimator
        return check_estimator_kind(self.params.representation, estimator)

    # ------------------------------------------------------------ freshness
    def _check_fresh(self) -> None:
        """Raise :class:`StaleShardError` if the source graph moved out-of-band.

        ``O(1)`` when the source's version counter matches the one recorded at
        build/patch time; on a mismatch the fingerprints decide (no-op batches
        bump nothing, and a structurally identical graph re-syncs the version
        instead of raising).
        """
        self._ensure_open()
        source = self._source
        if source is None or source.version == self._source_version:
            return
        if source.snapshot().fingerprint() != self.graph.fingerprint():
            raise StaleShardError(
                "the source DynamicGraph applied batch(es) this engine never "
                f"saw (source version {source.version}, engine saw "
                f"{self._source_version}); route each GraphDelta through "
                "ShardedEngine.apply_delta instead of querying stale shards"
            )
        self._source_version = source.version

    # ---------------------------------------------------------------- patching
    def apply_delta(self, delta: GraphDelta) -> int:
        """Route one :class:`~repro.dynamic.graph.GraphDelta` to the owning shards.

        The sharded counterpart of :meth:`repro.core.ProbGraph.apply_delta` —
        the delta is split by ``partition.owners`` into per-shard sub-deltas
        (a cut edge's endpoints patch *both* owning shards), global vertex IDs
        are translated to local container rows, and each shard's container is
        patched **in place**:

        * new vertices are assigned to the smallest shards
          (:meth:`ShardPartition.assign_balanced`), the partition's ID maps
          are extended, and the owning containers grow;
        * pure insertions go through the containers' incremental
          ``apply_delta`` (the delta's global set elements need no
          translation — only the *row* addressing is shard-local);
        * deletion-touched (and, when oriented, orientation-changed) rows are
          rebuilt from the new adjacency with the reference row builder and
          scattered over the owners' ``_row_arrays``.

        The patched shards are bit-identical to a fresh sharded rebuild on
        ``delta.graph`` (asserted across all five families × shard counts ×
        orientations in the test suite).  Shard objects are patched, never
        replaced, so live :meth:`lsh_index` indexes stay valid — each one has
        the touched rows marked and re-keys them on its next read (so a burst
        of deltas pays one table splice, not one per delta).  Per-shard patch
        activity accumulates in :meth:`skew_stats`.  Returns the number of
        patched rows.

        Note the single-process caveat applies here too: budget-derived
        parameters re-resolve against the *grown* graph on a fresh build, so
        pass explicit ``num_bits``/``k``/``precision`` when bit-identity with
        later rebuilds matters.
        """
        self._ensure_open()
        with self._patch_lock:
            return self._apply_delta_locked(delta)

    def _apply_delta_locked(self, delta: GraphDelta) -> int:
        if delta.old_fingerprint != self.graph.fingerprint():
            raise ValueError(
                "delta does not start at this engine's graph (expected "
                f"fingerprint {self.graph.fingerprint()[:12]}..., got "
                f"{delta.old_fingerprint[:12]}...)"
            )
        new_graph = delta.graph
        grown = np.arange(
            self.graph.num_vertices, new_graph.num_vertices, dtype=np.int64
        )
        if grown.size:
            self.partition = self.partition.extend(
                self.partition.assign_balanced(grown.shape[0])
            )
            for s in range(self.num_shards):
                self._shards[s].grow(self.partition.shard_vertices[s].shape[0])
        if self.oriented:
            new_base, touched = delta.oriented_update(self._base)
            self._patch_resketch(touched, new_base)
            self._base = new_base
        else:
            dirty = delta.dirty_vertices
            ins_vertices, ins_indptr, ins_indices = delta.insertions_excluding(dirty)
            self._patch_insert(new_graph, ins_vertices, ins_indptr, ins_indices)
            self._patch_resketch(dirty, new_graph)
            touched = np.union1d(ins_vertices, dirty)
            self._base = new_graph
        self.graph = new_graph
        touched = np.union1d(touched, grown)
        if touched.size:
            self._update_counts += np.bincount(
                self.partition.owners[touched], minlength=self.num_shards
            )
        if self._source is not None and (
            self._source.snapshot() is new_graph
            or self._source.snapshot().fingerprint() == new_graph.fingerprint()
        ):
            self._source_version = self._source.version
        for index in list(self._lsh_indexes):
            index._mark(touched)
        return int(touched.size)

    def _patch_insert(
        self,
        new_graph: CSRGraph,
        ins_vertices: np.ndarray,
        ins_indptr: np.ndarray,
        ins_indices: np.ndarray,
    ) -> None:
        """Apply the pure-insertion sub-delta of each owning shard in place."""
        if ins_vertices.size == 0:
            return
        _san.stamp_write(self._patch_lock, "ShardedEngine._row_arrays")
        counts = np.diff(ins_indptr)
        owners = self.partition.owners[ins_vertices]
        for s in np.unique(owners):
            sel = owners == s
            vs = ins_vertices[sel]
            flat = ragged_gather(ins_indptr[:-1][sel], counts[sel])
            sub_indptr = np.concatenate([[0], np.cumsum(counts[sel])]).astype(np.int64)
            new_sizes = (
                new_graph.indptr[vs + 1] - new_graph.indptr[vs]
            ).astype(np.float64)
            self._shards[int(s)].apply_delta(
                self.partition.local_index[vs], sub_indptr, ins_indices[flat], new_sizes
            )

    def _patch_resketch(self, rows: np.ndarray, base: CSRGraph) -> None:
        """Rebuild the given global rows from ``base`` and scatter them in place.

        The containers' ``resketch_rows`` indexes its CSR arguments by the
        container's own row IDs, which are shard-*local* here while the
        adjacency is global — so instead, slice the global row block
        (:func:`~repro.graph.partition.slice_row_block`), rebuild it with the
        reference builder (``family.sketch_neighborhoods``, the same pure
        function a fresh shard build runs), and scatter the ``_row_arrays``
        payload — the complete per-row state — into the owners' containers.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        _san.stamp_write(self._patch_lock, "ShardedEngine._row_arrays")
        owners = self.partition.owners[rows]
        for s in np.unique(owners):
            vs = rows[owners == s]
            local_indptr, local_indices = slice_row_block(base.indptr, base.indices, vs)
            fresh = self.family.sketch_neighborhoods(local_indptr, local_indices)
            shard = self._shards[int(s)]
            shard.promote_rows_writable()
            local = self.partition.local_index[vs]
            for name in shard._row_arrays:
                getattr(shard, name)[local] = getattr(fresh, name)

    # ------------------------------------------------------------ skew / balance
    def skew_stats(self) -> ShardSkewStats:
        """Current per-shard placement and patch-activity counts."""
        edges = np.bincount(
            self.partition.owners,
            weights=self.graph.degrees.astype(np.float64),
            minlength=self.num_shards,
        ).astype(np.int64)
        return ShardSkewStats(
            vertices=self.partition.shard_sizes(),
            edges=edges,
            updates=self._update_counts.copy(),
        )

    def repartition(self, method: str = "hash", seed: int | None = None) -> ShardSkewStats:
        """Re-balance vertex ownership by redistributing the existing sketch rows.

        Sketch rows are position-independent, so rebalancing never rebuilds a
        sketch: the shard containers are concatenated, reordered into the new
        ownership, and re-split with ``take_rows`` — an ``O(n · k)`` row
        shuffle with no hashing.  LSH indexes need no work: their table is
        keyed by global vertex ID, and band keys do not depend on which shard
        holds a row.  Call when :meth:`skew_stats` reports
        ``needs_repartition()`` (streams that grow the graph unevenly, or a
        locality partition whose regions drifted).  Resets the update
        counters and returns the fresh stats.
        """
        self._check_fresh()
        with self._patch_lock:
            merged = concat_sketch_rows(self._shards)
            order = np.concatenate(self.partition.shard_vertices)
            inverse = np.empty(self.graph.num_vertices, dtype=np.int64)
            inverse[order] = np.arange(self.graph.num_vertices, dtype=np.int64)
            self.partition = partition_graph(
                self.graph, self.num_shards, method=method,
                seed=self.seed if seed is None else int(seed),
            )
            _san.stamp_write(self._patch_lock, "ShardedEngine._row_arrays")
            self._shards = [
                merged.take_rows(inverse[self.partition.shard_vertices[s]])
                for s in range(self.num_shards)
            ]
            self._update_counts = np.zeros(self.num_shards, dtype=np.int64)
            return self.skew_stats()

    # ----------------------------------------------------------------- queries
    def pair_intersections(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Estimate ``|N_u ∩ N_v|`` per pair by routed scatter-gather.

        Bit-identical to the single-process
        :meth:`repro.engine.PGSession.pair_intersections` for the same
        parameters and seed: each pair is evaluated from the same two sketch
        rows by the same pure estimator, merely *where* the rows live.
        """
        self._check_fresh()
        kind = self._resolve_estimator(estimator)
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        u = check_vertex_ids(u, self.num_vertices)
        v = check_vertex_ids(v, self.num_vertices)
        total = u.shape[0]
        if total == 0:
            with self._comm_lock:
                self.comm.queries += 1
            return np.empty(0, dtype=np.float64)
        home, cut, shipped = self._route(u, v)
        with self._comm_lock:
            self.comm.queries += 1
            self.comm.routed_pairs += total
            self.comm.cut_pairs += int(np.count_nonzero(cut))
        out = np.empty(total, dtype=np.float64)
        homes = np.unique(home)
        record_query(total, len(homes))
        for s in homes:
            idx = np.flatnonzero(home == s)
            endpoints = np.unique(np.concatenate([u[idx], v[idx]]))
            owned_here = self.partition.owners[endpoints] == s
            container, lookup = self._eval_container(
                int(s), endpoints[owned_here], endpoints[~owned_here]
            )
            out[idx] = self._container_pairs(container, lookup[u[idx]], lookup[v[idx]], kind)
        return out

    def pair_jaccard(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Approximate Jaccard per pair — routed intersections over base degrees."""
        inter = self.pair_intersections(u, v, estimator=estimator)
        degrees = self.base_degrees.astype(np.float64)
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        return intersection_to_jaccard(inter, degrees[u], degrees[v])

    def sum_pair_intersections(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> float:
        """``Σ |N_u ∩ N_v|`` over all pairs (the sharded triangle-count kernel)."""
        return float(self.pair_intersections(u, v, estimator=estimator).sum())

    def top_k_similar_batch(
        self,
        sources: np.ndarray,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        exclude_self: bool = True,
    ) -> TopKResult:
        """Per-source top-k retrieval, scattered over shards and gathered.

        Each source's sketch row is broadcast once per candidate-owning shard
        (counted shipments); every shard scores the sources against its *own*
        candidates and selects a local top-k; the per-shard selections are
        merged under the canonical order (score descending, candidate ID
        ascending on ties).  Bit-identical to
        :meth:`repro.engine.PGSession.top_k_similar_batch` with the same
        ``measure`` (``"jaccard"`` or ``"intersection"``/``"common_neighbors"``).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if measure not in ("jaccard", "intersection", "common_neighbors"):
            raise ValueError(
                f"unknown measure {measure!r}; expected 'jaccard', 'intersection', "
                "or 'common_neighbors'"
            )
        self._check_fresh()
        kind = self._resolve_estimator(estimator)
        sources = check_vertex_ids(sources, self.num_vertices, "sources")
        if candidates is None:
            candidates = np.arange(self.num_vertices, dtype=np.int64)
        else:
            candidates = np.unique(check_vertex_ids(candidates, self.num_vertices, "candidates"))
        num_sources = sources.shape[0]
        k = min(int(k), candidates.shape[0])
        record_topk()
        with self._comm_lock:
            self.comm.queries += 1
        if num_sources == 0 or k == 0:
            return TopKResult(
                np.empty((num_sources, k), dtype=np.int64),
                np.empty((num_sources, k), dtype=np.float64),
            )
        degrees = self.base_degrees.astype(np.float64)
        best_idx = np.full((num_sources, k), -1, dtype=np.int64)
        best_scores = np.full((num_sources, k), -np.inf, dtype=np.float64)
        cand_owner = self.partition.owners[candidates]
        for s in np.unique(cand_owner):
            cand_s = candidates[cand_owner == s]
            source_owners = self.partition.owners[sources]
            local_needed = np.unique(
                np.concatenate([cand_s, sources[source_owners == s]])
            )
            ship = np.unique(sources[source_owners != s])
            container, lookup = self._eval_container(int(s), local_needed, ship)
            local_sources = lookup[sources]
            shard_idx, shard_scores = self._shard_topk(
                container, lookup, local_sources, sources, cand_s, k, measure,
                kind, degrees, exclude_self,
            )
            # Canonical cross-shard merge: candidate IDs are disjoint across
            # shards, so sorting by ID then stably by descending score yields
            # exactly the materialized reference's tie order.
            merged_idx = np.concatenate([best_idx, shard_idx], axis=1)
            merged_scores = np.concatenate([best_scores, shard_scores], axis=1)
            by_id = np.argsort(merged_idx, axis=1, kind="stable")
            merged_idx = np.take_along_axis(merged_idx, by_id, axis=1)
            merged_scores = np.take_along_axis(merged_scores, by_id, axis=1)
            by_score = np.argsort(-merged_scores, axis=1, kind="stable")[:, :k]
            best_idx = np.take_along_axis(merged_idx, by_score, axis=1)
            best_scores = np.take_along_axis(merged_scores, by_score, axis=1)
        invalid = ~np.isfinite(best_scores)
        best_idx[invalid] = -1
        best_scores[invalid] = 0.0
        return TopKResult(best_idx, best_scores)

    def _shard_topk(
        self,
        container: NeighborhoodSketches,
        lookup: np.ndarray,
        local_sources: np.ndarray,
        sources: np.ndarray,
        cand_s: np.ndarray,
        k: int,
        measure: str,
        kind: EstimatorKind,
        degrees: np.ndarray,
        exclude_self: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's local top-k over its owned candidates, window-streamed."""
        num_sources = sources.shape[0]
        kk = min(k, cand_s.shape[0])
        best_idx = np.full((num_sources, kk), -1, dtype=np.int64)
        best_scores = np.full((num_sources, kk), -np.inf, dtype=np.float64)
        window = max(resolve_chunk_pairs(container) // max(num_sources, 1), 1)
        for start, stop in chunked_ranges(cand_s.shape[0], window):
            cw = cand_s[start:stop]
            width = cw.shape[0]
            uu = np.repeat(local_sources, width)
            vv = np.tile(lookup[cw], num_sources)
            inter = self._container_pairs(container, uu, vv, kind).reshape(num_sources, width)
            if measure == "jaccard":
                du = np.repeat(degrees[sources], width).reshape(num_sources, width)
                dv = np.broadcast_to(degrees[cw], (num_sources, width))
                scores = intersection_to_jaccard(inter.ravel(), du.ravel(), dv.ravel())
                scores = scores.reshape(num_sources, width)
            else:
                scores = inter
            if exclude_self:
                scores = np.where(sources[:, None] == cw[None, :], -np.inf, scores)
            # Candidates arrive in ascending ID order, so the stable sort of
            # [running | window] breaks score ties by ascending candidate ID
            # (the same invariant repro.engine.topk relies on).
            merged_scores = np.concatenate([best_scores, scores], axis=1)
            merged_idx = np.concatenate(
                [best_idx, np.broadcast_to(cw, (num_sources, width))], axis=1
            )
            order = np.argsort(-merged_scores, axis=1, kind="stable")[:, :kk]
            best_scores = np.take_along_axis(merged_scores, order, axis=1)
            best_idx = np.take_along_axis(merged_idx, order, axis=1)
        return best_idx, best_scores

    def top_k_similar(
        self,
        u: int,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-source convenience over :meth:`top_k_similar_batch`."""
        result = self.top_k_similar_batch(
            np.asarray([u], dtype=np.int64), k, measure=measure,
            candidates=candidates, estimator=estimator,
        )
        return result.indices[0], result.scores[0]

    def lsh_index(
        self,
        num_bands: int | None = None,
        rows_per_band: int | None = None,
        threshold: float = DEFAULT_LSH_THRESHOLD,
    ) -> LSHIndex:
        """An :class:`~repro.engine.lsh.LSHIndex` over this engine's shards."""
        return LSHIndex(
            self, num_bands=num_bands, rows_per_band=rows_per_band, threshold=threshold
        )

    # -------------------------------------------------------------- validation
    def communication_model(
        self, sketch_bits_per_vertex: int | None = None
    ) -> CommunicationVolume:
        """The §VIII-F communication model evaluated on *this* partitioning.

        Uses the engine's own ``owners`` and (by default) its actual
        ``bits_per_set``, so after one ``pair_intersections`` query over the
        graph's edge array the model's ``shipments`` and ``sketch_bytes``
        equal what :attr:`comm` just measured — the model is validated against
        the bytes the engine really moves.
        """
        return communication_volume(
            self.graph,
            num_partitions=self.num_shards,
            sketch_bits_per_vertex=(
                self.bits_per_set if sketch_bits_per_vertex is None else sketch_bits_per_vertex
            ),
            owners=self.partition.owners,
        )

    # ------------------------------------------------------------------ gather
    def to_probgraph(self, estimator: EstimatorKind | str | None = None) -> ProbGraph:
        """Assemble the shard containers into one full-graph :class:`ProbGraph`.

        The per-shard rows are scattered back into global row order; the
        result is bit-identical to ``ProbGraph(graph, ...)`` with the same
        parameters and seed (asserted by the test suite), so it can serve
        every single-process engine path — including being cached in a
        :class:`~repro.engine.PGSession` (the ``shards=`` build option).
        """
        self._check_fresh()
        merged = concat_sketch_rows(self._shards)
        order = np.concatenate(self.partition.shard_vertices)
        inverse = np.empty(self.graph.num_vertices, dtype=np.int64)
        inverse[order] = np.arange(self.graph.num_vertices, dtype=np.int64)
        return ProbGraph.from_sketches(
            self.graph,
            merged.take_rows(inverse),
            self.params,
            oriented=self.oriented,
            seed=self.seed,
            estimator=estimator if estimator is not None else self.estimator,
            storage_budget=self.storage_budget,
            base=self._base,
            construction_seconds=self.construction_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(n={self.num_vertices}, shards={self.num_shards}, "
            f"representation={self.params.representation.value}, seed={self.seed})"
        )


#: Former name of an engine-backed :class:`~repro.engine.lsh.LSHIndex`; kept
#: as an alias so existing imports and instrumentation keep resolving.
ShardedLSHIndex = LSHIndex


def build_probgraph_sharded(
    graph: CSRGraph,
    num_shards: int,
    representation: Representation | str = Representation.BLOOM,
    storage_budget: float = 0.25,
    num_hashes: int = 2,
    num_bits: int | None = None,
    k: int | None = None,
    precision: int | None = None,
    oriented: bool = False,
    seed: int = 0,
    estimator: EstimatorKind | str | None = None,
    partition: str = "hash",
    pool: ProcessPoolExecutor | None = None,
    max_workers: int | None = None,
    transport: str = "auto",
) -> ProbGraph:
    """Build a :class:`~repro.core.ProbGraph` with a multiprocess sharded pass.

    Construction cost is split over ``num_shards`` worker processes; the
    merged result is bit-identical to the in-process constructor.  This is
    what :meth:`repro.engine.PGSession.probgraph` uses when the session is
    created with ``shards=``.
    """
    engine = ShardedEngine(
        graph,
        num_shards,
        representation=representation,
        storage_budget=storage_budget,
        num_hashes=num_hashes,
        num_bits=num_bits,
        k=k,
        precision=precision,
        oriented=oriented,
        seed=seed,
        estimator=estimator,
        partition=partition,
        pool=pool,
        max_workers=max_workers,
        transport=transport,
    )
    return engine.to_probgraph(estimator=estimator)
