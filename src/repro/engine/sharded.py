"""Sharded engine — one served container, queries priced over shards (§VIII-F).

:mod:`repro.parallel.distributed` *models* the paper's distributed claim
(shipping fixed-size sketches instead of CSR neighborhoods cuts communication
~4×).  This module serves that model's queries on one machine: the engine
builds one :class:`~repro.core.ProbGraph`, whose constructor hashes its rows
in as many threads as the graph's size and the caller's CPUs justify, and
that container serves every query and delta through the single-process code
(:mod:`repro.engine.batch`, :mod:`repro.engine.topk`,
:meth:`repro.core.ProbGraph.apply_delta`).  Vertices are partitioned into
shards (:mod:`repro.graph.partition`), and the partition only prices the
queries in shipments.

These contracts make this safe to use everywhere the single-process engine is:

* **Bit-identity.**  A sketch row is a pure function of the neighborhood
  elements and the family seed — it does not depend on the row's position,
  on any other row or on the shard that owns it.  The container is therefore
  the one a :class:`~repro.core.ProbGraph` with the same parameters holds,
  whatever the partition, and every query returns exactly the floats the
  single-process :class:`~repro.engine.PGSession` path returns.
* **Shipment accounting.**  Ownership alone decides which sketch rows a query
  would move between shards, so :class:`ShardCommStats` counts them without
  copying any row.  A pair query follows
  :func:`repro.parallel.distributed.pair_shipments`, the routing rule
  :func:`~repro.parallel.distributed.communication_volume` models, so the
  counted and the modeled shipments cannot drift apart.  A top-k query ships
  each source once to every other shard that owns a candidate.
* **Deltas.**  :meth:`ShardedEngine.apply_delta` patches the container with
  :meth:`~repro.core.ProbGraph.apply_delta` and assigns new vertices to the
  smallest shards; :meth:`ShardedEngine.repartition` swaps the ownership and
  moves no rows.  Engines built over a
  :class:`~repro.dynamic.graph.DynamicGraph` additionally guard every query
  entry point: if the source graph moved without a routed delta, the engine
  raises :class:`StaleShardError` instead of silently serving stale rows.
* **One LSH table.**  :meth:`ShardedEngine.lsh_index` is an ordinary
  :class:`~repro.engine.lsh.LSHIndex` over :attr:`ShardedEngine.sketches`:
  a delta only marks its touched rows (the next read re-keys them), and
  :meth:`ShardedEngine.repartition` leaves the table alone.  A saved engine
  stores its default-split table, so an opened engine maps it instead of
  hashing every row again.  While a k-hash index with one slot per band is
  alive over the rows, :meth:`ShardedEngine.top_k_similar_batch` answers
  from its table, bit-identical to the full scan it runs otherwise (and
  when the table's winner re-check fails), and priced the same.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..analysis import runtime as _san
from ..core.estimators import EstimatorKind, intersection_to_jaccard
from ..core.probgraph import ProbGraph, Representation, SketchParams, check_estimator_kind
from ..dynamic.graph import DynamicGraph, GraphDelta
from ..graph.csr import CSRGraph
from ..graph.partition import ShardPartition, partition_graph
from ..parallel.distributed import CommunicationVolume, communication_volume, pair_shipments
from ..sketches.base import NeighborhoodSketches
from ..storage import (
    StoreFormatError,
    StoreHandle,
    load_graph,
    load_partition,
    load_sketch_entry,
    save_graph,
    save_partition,
    save_sketch_entry,
    sketch_params_from_meta,
    sketch_params_meta,
)
from .batch import batched_pair_intersections, check_vertex_ids, sum_pair_intersections
from .lsh import LSHIndex, _resolve_band_split
from .topk import TopKResult, topk_per_source
from ..core.budget import DEFAULT_LSH_THRESHOLD, resolve_lsh_params

__all__ = [
    "ShardCommStats",
    "ShardSkewStats",
    "ShardedEngine",
    "StaleShardError",
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
    """Rows and bytes a distributed run of the engine's queries moves between shards.

    ``shipments`` counts unique ``(vertex, destination shard)`` row transfers —
    the same dedup unit as
    :attr:`repro.parallel.distributed.CommunicationVolume.shipments` — and
    ``sketch_bytes`` the corresponding sketch payload, so a pair query over a
    graph's edge list is directly comparable to the §VIII-F model.  The
    counts follow from vertex ownership alone; the engine copies no rows.
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
        redistributing ownership (:meth:`ShardedEngine.repartition`, which
        moves no rows and rebuilds no sketch) wins back the difference.  Update
        skew is reported but not part of the trigger: a hot vertex keeps its
        shard hot under any balanced placement.
        """
        return self.max_imbalance > float(threshold)


class ShardedEngine:
    """One :class:`~repro.core.ProbGraph`'s rows, serving queries priced over vertex shards.

    Parameters mirror :class:`~repro.core.ProbGraph` (representation, budget,
    explicit sizes, ``oriented``, ``seed``, default ``estimator``), plus:

    num_shards:
        Number of vertex shards the queries are priced over.  It sets the
        partition only: the rows are built by
        :class:`~repro.core.ProbGraph`, which picks its own build threads
        from the graph's size and the caller's CPUs.  :attr:`build_threads`
        records how many it ran (0 for an engine from :meth:`open`, which
        builds no rows).
    partition:
        ``"hash"`` (random balanced, default) or ``"locality"`` (BFS chunks) —
        see :func:`repro.graph.partition.partition_graph`.  Its RNG is seeded
        with ``seed``; only the *ownership* of rows depends on it, never a
        sketch row (:meth:`repartition` takes another seed).
    pool, transport:
        Deprecated and ignored: passing either emits a
        :class:`DeprecationWarning`.  They chose the process pool and the row
        transport of an earlier, multiprocess build.  Both go once the
        repository benchmark (``perfbench``) stops passing them.

    Queries are safe to issue from concurrent threads: the container is only
    read, and the :attr:`comm` counters are updated under a lock.

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
        pool: object = None,
        transport: str | None = None,
    ) -> None:
        if pool is not None or transport is not None:
            warnings.warn(
                "ShardedEngine ignores pool= and transport=; its rows build in threads",
                DeprecationWarning, stacklevel=2,
            )
        if isinstance(graph, DynamicGraph):
            self._source: DynamicGraph | None = graph
            self._source_version = graph.version
            graph = graph.snapshot()
        else:
            self._source = None
            self._source_version = -1
        shards = partition_graph(graph, num_shards, method=partition, seed=int(seed))
        pg = ProbGraph(
            graph, representation=representation, storage_budget=storage_budget,
            num_hashes=num_hashes, num_bits=num_bits, k=k, precision=precision,
            oriented=oriented, seed=seed, estimator=estimator,
        )
        self._closed = False
        self._handles: list[StoreHandle] = []
        self._serve(pg, shards)

    def _serve(self, pg: ProbGraph, partition: ShardPartition) -> None:
        """Install the served container and the ownership its queries are priced by."""
        self._pg = pg
        self.partition = partition
        self.build_threads = pg.build_threads
        self.params: SketchParams = pg.sketch_params
        self.estimator = pg.estimator
        self.storage_budget = pg.storage_budget
        self.oriented = pg.oriented
        self.seed = pg.seed
        self.family = pg.family
        self.construction_seconds = pg.construction_seconds
        self.comm = ShardCommStats()
        # Instrumented under reprosan: the comm lock guards the stats
        # counters, the patch lock serializes the mutators (apply_delta /
        # repartition), whose container writes are stamped against it.
        self._comm_lock = _san.make_rlock("ShardedEngine.comm")
        self._patch_lock = _san.make_rlock("ShardedEngine.patch")
        self._update_counts = np.zeros(partition.num_shards, dtype=np.int64)
        # (path, mode) of the bucket tables an opened engine may map; the
        # first delta drops it, as the tables then describe older rows.
        self._saved_lsh: tuple[str, str] | None = None

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the engine: the well-defined end of its resource lifetime.

        Idempotent.  Store handles attached by :meth:`open` (and by
        :meth:`lsh_index`) are closed here; ``close()`` is then where the
        reprosan lifecycle tracker audits that nothing owned by this engine
        is still live — a store-opened mmap handle left unreleased becomes a
        ``SAN601`` finding here, with its acquisition site.  After close,
        query and patch entry points raise :class:`RuntimeError`.
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

        Layout: ``manifest.json`` (format 2: session parameters and the graph
        fingerprint), ``graph.pgsk`` (CSR adjacency), ``partition.pgsk``
        (vertex ownership), ``sketches.pgsk`` (the sketch rows in global
        vertex order, headed by the identity
        :func:`~repro.storage.load_sketch_entry` checks), and, for the
        families with a signature matrix (k-hash, 1-hash, KMV), ``lsh.pgsk``:
        the bucket tables of the default band split, written by
        :meth:`LSHIndex.save <repro.engine.lsh.LSHIndex.save>` for
        :meth:`lsh_index` to map after :meth:`open`.  Each is a checksummed
        versioned block file (:mod:`repro.storage.format`); the manifest is
        written last.  Saving is read-only with respect to the engine and
        serialized against concurrent delta patches; the files are
        byte-deterministic for a given engine state.  Returns ``root``.
        """
        self._ensure_open()
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        with self._patch_lock:
            fingerprint = self.graph.fingerprint()
            save_graph(os.path.join(root, "graph.pgsk"), self.graph)
            save_partition(os.path.join(root, "partition.pgsk"), self.partition)
            save_sketch_entry(
                os.path.join(root, "sketches.pgsk"), self.sketches, fingerprint,
                self.params, self.oriented, self.seed, self.construction_seconds,
            )
            lsh_path = os.path.join(root, "lsh.pgsk")
            index = LSHIndex(self)
            if index.banded:
                index.save(lsh_path)
            elif os.path.exists(lsh_path):
                os.remove(lsh_path)  # left by an earlier save of a banded family
            manifest = {
                "format": 2,
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

        The cold-start counterpart of building: no hashing — the CSR
        adjacency and the sketch rows come straight from the saved block
        files, zero-copy in ``"mmap"`` mode (``"eager"`` reads them into
        process memory).  The opened engine answers every query
        bit-identically to the engine that saved it; delta patches promote
        the mmap rows to writable copies lazily.  ``open`` only notes whether
        the directory holds ``lsh.pgsk``; :meth:`lsh_index` maps it later, in
        the same ``mode``.  All store handles are owned by the engine and
        released by :meth:`close`, where the reprosan ledger audits them.

        ``estimator`` overrides the saved default estimator; everything else
        (representation, resolved sketch parameters, orientation, seed,
        partition) is restored from the manifest and verified against the
        graph fingerprint and the sketch file's header
        (:class:`~repro.storage.StoreFormatError` on any mismatch, and for a
        manifest of any format but 2).
        """
        root = os.fspath(root)
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("kind") != "sharded-engine" or manifest.get("format") != 2:
            raise StoreFormatError(
                f"{manifest_path}: not a format-2 sharded-engine manifest "
                f"(kind={manifest.get('kind')!r}, format={manifest.get('format')!r})"
            )
        fingerprint = str(manifest["fingerprint"])
        params = sketch_params_from_meta(manifest["sketch_params"])
        engine = cls.__new__(cls)
        engine._source = None
        engine._source_version = -1
        engine._closed = False
        engine._handles = []
        try:
            graph, handle = load_graph(
                os.path.join(root, "graph.pgsk"), mode=mode, owner=engine
            )
            engine._handles.append(handle)
            if graph.fingerprint() != fingerprint:
                raise StoreFormatError(
                    f"{root}: stored adjacency fingerprint does not match the "
                    f"manifest ({graph.fingerprint()[:12]}... != {fingerprint[:12]}...)"
                )
            partition = load_partition(os.path.join(root, "partition.pgsk"))
            shape = (int(manifest["num_shards"]), graph.num_vertices)
            if (partition.num_shards, partition.num_vertices) != shape:
                raise StoreFormatError(
                    f"{root}: partition covers {partition.num_shards} shards x "
                    f"{partition.num_vertices} vertices; manifest and adjacency say {shape}"
                )
            sketches, handle = load_sketch_entry(
                os.path.join(root, "sketches.pgsk"), fingerprint, params,
                bool(manifest["oriented"]), int(manifest["seed"]), mode=mode, owner=engine,
            )
            engine._handles.append(handle)
            pg = ProbGraph.from_sketches(
                graph, sketches, params, oriented=bool(manifest["oriented"]),
                seed=int(manifest["seed"]),
                estimator=manifest["estimator"] if estimator is None else estimator,
                storage_budget=float(manifest["storage_budget"]),
                construction_seconds=time.perf_counter() - start,  # reprolint: allow[determinism] -- timing stat only
            )
        except Exception:
            engine._closed = True
            for handle in engine._handles:
                handle.close()
            raise
        engine._serve(pg, partition)
        lsh_path = os.path.join(root, "lsh.pgsk")
        if os.path.exists(lsh_path):
            engine._saved_lsh = (lsh_path, mode)
        return engine

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        """Number of vertex shards."""
        return self.partition.num_shards

    @property
    def graph(self) -> CSRGraph:
        """The served graph (advanced by :meth:`apply_delta`)."""
        return self._pg.graph

    @property
    def sketches(self) -> NeighborhoodSketches:
        """The served sketch rows in global vertex order (read-only) — see
        :attr:`repro.core.ProbGraph.sketches`."""
        return self._pg.sketches

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.num_vertices

    @property
    def owners(self) -> np.ndarray:
        """Shard owning each vertex (the partitioning shipments are counted by)."""
        return self.partition.owners

    @property
    def base(self) -> CSRGraph:
        """The sketched base graph — see :attr:`repro.core.ProbGraph.base`."""
        return self._pg.base

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
    def _record(self, shipments: int, pairs: int = 0, cut_pairs: int = 0) -> None:
        """Add one query's routing to :attr:`comm`."""
        with self._comm_lock:
            self.comm.queries += 1
            self.comm.routed_pairs += pairs
            self.comm.cut_pairs += cut_pairs
            self.comm.shipments += shipments
            self.comm.sketch_bytes += shipments * self.bits_per_set / 8.0

    def _pair_query(
        self, kernel: Callable[..., Any], u: np.ndarray, v: np.ndarray,
        estimator: EstimatorKind | str | None,
    ) -> Any:
        """Run a :mod:`repro.engine.batch` pair kernel on the served container,
        then count the pairs it routes and the rows it ships (no row moves)."""
        self._check_fresh()
        out = kernel(self._pg, u, v, estimator=self._resolve_estimator(estimator))
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        cut, shipped = pair_shipments(u, v, self.partition.owners, self.graph.degrees)
        self._record(int(shipped.shape[0]), u.shape[0], int(np.count_nonzero(cut)))
        return out

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
        """Patch the served container to ``delta.graph``; extend ownership to new vertices.

        The sharded counterpart of :meth:`repro.core.ProbGraph.apply_delta`,
        and literally it: the container is patched in place (insertions
        incrementally, deletion-touched and orientation-changed rows
        resketched), bit-identical to a fresh sharded rebuild on
        ``delta.graph`` (asserted across all five families × shard counts ×
        orientations in the test suite).  New vertices are assigned to the
        smallest shards (:meth:`ShardPartition.assign_balanced`).  Live
        :meth:`lsh_index` indexes have the touched rows marked, by the
        :class:`~repro.core.ProbGraph` patch, and re-key them on their next
        read (so a burst of deltas pays one table splice, not one per delta).
        Patched rows accumulate per owning shard in :meth:`skew_stats`.
        Returns the number of patched rows.

        Note the single-process caveat applies here too: budget-derived
        parameters re-resolve against the *grown* graph on a fresh build, so
        pass explicit ``num_bits``/``k``/``precision`` when bit-identity with
        later rebuilds matters.
        """
        self._ensure_open()
        with self._patch_lock:
            old_base, old_n = self.base, self.num_vertices
            _san.stamp_write(self._patch_lock, "ShardedEngine.sketches")
            self._pg.apply_delta(delta)
            if self.oriented:
                touched = delta.oriented_update(old_base)[1]
            else:
                touched = np.union1d(delta.ins_vertices, delta.dirty_vertices)
            grown = np.arange(old_n, self.num_vertices, dtype=np.int64)
            if grown.size:
                self.partition = self.partition.extend(
                    self.partition.assign_balanced(grown.shape[0])
                )
            touched = np.union1d(touched, grown).astype(np.int64)
            self._update_counts += np.bincount(
                self.partition.owners[touched], minlength=self.num_shards
            )
            new_graph = delta.graph
            if self._source is not None and (
                self._source.snapshot() is new_graph
                or self._source.snapshot().fingerprint() == new_graph.fingerprint()
            ):
                self._source_version = self._source.version
            self._saved_lsh = None
            return int(touched.size)

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
        """Re-balance vertex ownership; no sketch row moves or is rebuilt.

        The rows live in one global-order container, so a new partition only
        changes which shipments later queries count.  LSH indexes need no
        work either: their table is keyed by global vertex ID.  Call when
        :meth:`skew_stats` reports ``needs_repartition()`` (streams that grow
        the graph unevenly, or a locality partition whose regions drifted).
        Resets the update counters and returns the fresh stats.
        """
        self._check_fresh()
        with self._patch_lock:
            self.partition = partition_graph(
                self.graph, self.num_shards, method=method,
                seed=self.seed if seed is None else int(seed),
            )
            self._update_counts = np.zeros(self.num_shards, dtype=np.int64)
            return self.skew_stats()

    # ----------------------------------------------------------------- queries
    def pair_intersections(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Estimate ``|N_u ∩ N_v|`` per pair, counting the shipments it routes.

        Evaluated by :func:`repro.engine.batch.batched_pair_intersections` on
        the served container, so bit-identical to the single-process
        :meth:`repro.engine.PGSession.pair_intersections` for the same
        parameters and seed; :attr:`comm` records what a distributed run
        would ship (:func:`repro.parallel.distributed.pair_shipments`).
        """
        return self._pair_query(batched_pair_intersections, u, v, estimator)

    def pair_jaccard(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Approximate Jaccard per pair — counted intersections over base degrees."""
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
        """``Σ |N_u ∩ N_v|`` over all pairs (the sharded triangle-count kernel).

        The streaming reduction of :func:`repro.engine.batch.sum_pair_intersections`,
        counted in :attr:`comm` like :meth:`pair_intersections`.
        """
        return float(self._pair_query(sum_pair_intersections, u, v, estimator))

    def top_k_similar_batch(
        self,
        sources: np.ndarray,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        exclude_self: bool = True,
    ) -> TopKResult:
        """Per-source top-k retrieval, counting the sources it would broadcast.

        Bit-identical to :func:`repro.engine.topk.topk_per_source` on the
        served container, and so to
        :meth:`repro.engine.PGSession.top_k_similar_batch` with the same
        ``measure`` (``"jaccard"`` or ``"intersection"``/``"common_neighbors"``).
        While a k-hash :class:`~repro.engine.lsh.LSHIndex` with one slot per
        band (the default split, e.g. the one :meth:`lsh_index` returns) is
        alive over these rows, its band tables answer: the probe's re-checked
        winners, then the pool's lowest-ID vertices at score 0.0.  Otherwise,
        or when the re-check fails, every pool member is scored.
        :attr:`comm` counts the same either way: one query, and each unique
        source once per *other* shard that owns a candidate — the broadcast a
        distributed run would make.
        """
        if measure not in ("jaccard", "intersection", "common_neighbors"):
            raise ValueError(
                f"unknown measure {measure!r}; expected 'jaccard', 'intersection', "
                "or 'common_neighbors'"
            )
        if k < 0:
            raise ValueError("k must be non-negative")
        self._check_fresh()
        estimator = self._resolve_estimator(estimator)
        sources = check_vertex_ids(sources, self.num_vertices, "sources")
        if candidates is not None:
            candidates = np.unique(check_vertex_ids(candidates, self.num_vertices, "candidates"))
        with self._patch_lock:  # indexes over an engine register under it
            indexes = list(self._pg._lsh_indexes)
        result = None
        for index in indexes:
            if index._hits_are_matches():
                result = index._exact_topk(
                    sources, k, measure, candidates, estimator, exclude_self, None
                )
                break
        if result is None:
            result = topk_per_source(
                self._pg, sources, k, candidates=candidates, score=measure,
                estimator=estimator, exclude_self=exclude_self,
            )
        shipments = 0
        if result.indices.size:  # at least one source and k > 0
            owners = self.partition.owners
            held = (
                np.flatnonzero(self.partition.shard_sizes()) if candidates is None
                else np.unique(owners[candidates])
            )
            homes = owners[np.unique(sources)]
            shipments = homes.size * held.size - int(np.count_nonzero(np.isin(homes, held)))
        self._record(int(shipments))
        return result

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
        """An :class:`~repro.engine.lsh.LSHIndex` over this engine's sketch rows.

        An engine from :meth:`open` that has applied no delta maps the saved
        ``lsh.pgsk`` when the requested band split is the default one it
        holds: :meth:`LSHIndex.open <repro.engine.lsh.LSHIndex.open>` checks
        family, row count and signature checksum
        (:class:`~repro.storage.StoreFormatError` on a stale or foreign file),
        and :meth:`close` releases the mapping.  Every other call builds the
        tables in memory.  Either way the tables equal
        ``LSHIndex(engine.to_probgraph())``'s, and later deltas re-key them
        into fresh arrays, never into the file.
        """
        self._ensure_open()
        with self._patch_lock:
            if self._saved_lsh is not None and self.params.k is not None:
                requested = _resolve_band_split(self.params.k, num_bands, rows_per_band, threshold)
                saved = resolve_lsh_params(self.params.k, DEFAULT_LSH_THRESHOLD)
                split = (requested.num_bands, requested.rows_per_band)
                if split == (saved.num_bands, saved.rows_per_band):
                    path, mode = self._saved_lsh
                    index = LSHIndex.open(path, self, mode=mode)
                    if (index.num_bands, index.rows_per_band) != split:
                        index.close()
                        raise StoreFormatError(
                            f"{path}: tables use band split "
                            f"({index.num_bands}, {index.rows_per_band}), not the "
                            f"default {split} a save writes"
                        )
                    assert index._handle is not None
                    self._handles.append(index._handle)
                    return index
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
        equal what :attr:`comm` just counted — both apply
        :func:`~repro.parallel.distributed.pair_shipments`.
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
        """An independent :class:`ProbGraph` copy of the served container.

        Bit-identical to ``ProbGraph(graph, ...)`` with the same parameters
        and seed (asserted by the test suite), so it can serve every
        single-process engine path; later deltas to the engine do not reach
        the copy.
        """
        self._check_fresh()
        return ProbGraph.from_sketches(
            self.graph,
            self.sketches.take_rows(np.arange(self.num_vertices, dtype=np.int64)),
            self.params,
            oriented=self.oriented,
            seed=self.seed,
            estimator=estimator if estimator is not None else self.estimator,
            storage_budget=self.storage_budget,
            base=self.base,
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
