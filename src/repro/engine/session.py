"""`PGSession` — sketch-set caching across queries, algorithms, and experiments.

Building the per-vertex sketches is the expensive part of ProbGraph (Table V:
``O(b·m)`` hash evaluations for Bloom filters, sorting for bottom-k/KMV).  The
seed code rebuilt them from scratch on every :class:`~repro.core.ProbGraph`
construction, even when the same graph was queried repeatedly with the same
parameters — the common shape of production query traffic, and of the
evaluation harness itself (the Bloom AND and L estimators share one sketch
set; only the query-time formula differs).

A :class:`PGSession` keys built sketch sets by

``(graph fingerprint, resolved sketch params, oriented, seed)``

where the fingerprint is :meth:`repro.graph.CSRGraph.fingerprint` (structural
digest) and the params come from :func:`repro.core.probgraph.resolve_sketch_params`
(so ``storage_budget=0.25`` and the explicit ``num_bits`` it resolves to hit
the *same* entry).  Entries are kept in a bounded LRU; construction/hit/miss
counters make cache behaviour observable and testable.

The cache is **delta-aware**: when the underlying graph evolves
(:class:`repro.dynamic.DynamicGraph` emits a
:class:`~repro.dynamic.GraphDelta` per edge batch), :meth:`PGSession.apply_delta`
patches the touched rows of every matching cached sketch set in place and
advances its key to the new fingerprint instead of evicting it — streaming
workloads never go cold.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.budget import DEFAULT_LSH_THRESHOLD
from ..core.estimators import EstimatorKind
from ..analysis import runtime as _san
from ..core.probgraph import (
    ProbGraph,
    Representation,
    check_estimator_kind,
    resolve_sketch_params,
)
from ..graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from ..dynamic.graph import GraphDelta
    from ..storage import SketchStore, StoreHandle
    from .lsh import LSHIndex
from .batch import (
    EngineConfig,
    batched_pair_intersections,
    batched_pair_jaccard,
    record_patch,
    sum_pair_intersections,
)
from .topk import TopKResult, topk_per_source

__all__ = ["PGSession", "SessionStats", "default_session"]


@dataclass
class SessionStats:
    """Observable cache behaviour of one :class:`PGSession`."""

    constructions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    delta_patches: int = 0
    store_hits: int = 0
    store_saves: int = 0
    lsh_constructions: int = 0
    lsh_hits: int = 0
    lsh_patches: int = 0
    lsh_invalidations: int = 0


class PGSession:
    """A reusable query session: cached sketch construction + bounded batch queries.

    Parameters
    ----------
    max_entries:
        LRU capacity (number of distinct sketch sets kept alive).  Each entry
        holds a full :class:`~repro.core.ProbGraph`; with the default ``s=25%``
        budget that is roughly a quarter of the CSR size per entry.
    config:
        Default :class:`~repro.engine.EngineConfig` applied to queries issued
        through this session (chunk sizing, memory budget).
    store:
        Optional :class:`~repro.storage.SketchStore` (or a directory path) of
        persisted sketch sets.  A cache miss whose key has a store entry is
        answered by *loading* it — zero-copy via ``np.memmap`` under the
        default ``store_mode="mmap"`` — instead of rebuilding; results are
        bit-identical either way.  Delta patches on a store-loaded entry
        promote its mmap rows to writable copies lazily (first patch copies,
        later patches write in place).  Built entries are persisted back to
        the store automatically; the mmap handles of loaded entries are
        closed when their entry leaves the cache.
    store_mode:
        ``"mmap"`` (zero-copy views, default) or ``"eager"`` (fresh writable
        arrays, every block checksum verified at load).

    Thread safety: all cache operations (lookup/insert, :meth:`apply_delta`,
    :meth:`clear`) hold an internal :class:`threading.RLock`, so one session
    may be shared by concurrent query threads without losing entries or
    corrupting the LRU order.
    A cache *miss* builds its sketch set while holding the lock (single-flight
    per session: concurrent misses for the same key never build twice), which
    means other cache operations wait out an in-progress construction — share
    pre-built entries or use per-worker sessions when construction latency
    under the lock matters.  The :class:`~repro.core.ProbGraph` a miss builds
    picks its own hashing threads from the graph's size and the caller's CPUs.

    Example
    -------
    >>> session = PGSession()
    >>> pg = session.probgraph(g, representation="bloom", storage_budget=0.25)
    >>> ests = session.pair_intersections(pg, u, v)          # chunk-streamed
    >>> pg2 = session.probgraph(g, representation="bloom", storage_budget=0.25)
    >>> pg2 is pg                                            # warm cache: no rebuild
    True
    """

    def __init__(
        self,
        max_entries: int = 8,
        config: EngineConfig | None = None,
        store: "SketchStore | str | os.PathLike[str] | None" = None,
        store_mode: str = "mmap",
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if store_mode not in ("mmap", "eager"):
            raise ValueError(f"store_mode must be 'mmap' or 'eager', got {store_mode!r}")
        self.max_entries = int(max_entries)
        self.config = config or EngineConfig()
        if store is not None and not hasattr(store, "load"):
            from ..storage import SketchStore as _SketchStore

            store = _SketchStore(store)
        self.store: "SketchStore | None" = store  # type: ignore[assignment]
        self.store_mode = store_mode
        self.stats = SessionStats()
        #: Open mmap handles of store-loaded entries, keyed by id(ProbGraph);
        #: closed when the entry leaves the cache (eviction, clear, displaced
        #: re-key).  Closing is ownership accounting only — live array views
        #: stay valid — so callers holding evicted objects are unaffected.
        self._handles: dict[int, "StoreHandle"] = {}
        # Under reprosan the lock is instrumented (lock-order graph) and the
        # caches are write-epoch guarded; in production both are the plain
        # threading/OrderedDict objects.
        self._lock = _san.make_rlock("PGSession")
        self._cache: OrderedDict[tuple, ProbGraph] = _san.guard_mapping(
            OrderedDict(), self._lock, "PGSession._cache"
        )
        self._lsh_cache: OrderedDict[tuple, "LSHIndex"] = _san.guard_mapping(
            OrderedDict(), self._lock, "PGSession._lsh_cache"
        )

    # ------------------------------------------------------------ construction
    def probgraph(
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
    ) -> ProbGraph:
        """Build-or-reuse a :class:`~repro.core.ProbGraph` for ``graph``.

        A cache hit returns the previously built object itself — no sketch
        reconstruction happens (observable through ``stats.constructions``).
        The requested ``estimator`` only selects the query-time default formula
        and is *not* part of the cache key; when a hit requests a different
        default than the cached object carries, a shallow view sharing the same
        sketches is returned with the requested default applied (still no
        reconstruction).  The view advances with the entry on
        :meth:`apply_delta`.
        """
        params = resolve_sketch_params(
            graph, representation, storage_budget, num_hashes, num_bits, k, precision
        )
        key = (graph.fingerprint(), params.key(), bool(oriented), int(seed))
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None and cached.graph.fingerprint() != key[0]:
                # The object was patched out-of-band (ProbGraph.apply_delta called
                # directly instead of session.apply_delta): it now represents a
                # *different* graph than its key claims.  Re-key it under its real
                # identity instead of serving wrong-graph results, and fall through
                # to a miss for the requested graph.
                del self._cache[key]
                real_key = cached.cache_key()
                if real_key in self._cache:
                    self.stats.evictions += 1  # the re-key displaces an equivalent entry
                self._cache[real_key] = cached
                cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.stats.cache_hits += 1
                wanted = (
                    check_estimator_kind(params.representation, estimator)
                    if estimator is not None
                    else params.default_estimator
                )
                if wanted != cached.estimator:
                    view = copy.copy(cached)  # shares the rows; follows the entry's deltas
                    view.estimator = wanted
                    return view
                return cached
            self.stats.cache_misses += 1
            if self.store is not None:
                loaded = self.store.load(
                    graph,
                    params,
                    oriented=oriented,
                    seed=seed,
                    estimator=estimator,
                    storage_budget=storage_budget,
                    mode=self.store_mode,
                    owner=self,
                )
                if loaded is not None:
                    pg, handle = loaded
                    if handle.mode == "mmap":
                        self._handles[id(pg)] = handle
                    else:  # eager loads own their memory; nothing to release
                        handle.close()
                    self.stats.store_hits += 1
                    self._cache[key] = pg
                    while len(self._cache) > self.max_entries:
                        _, evicted = self._cache.popitem(last=False)
                        self._release_handle(evicted)
                        self.stats.evictions += 1
                    return pg
            pg = ProbGraph(
                graph,
                representation=params.representation,
                storage_budget=storage_budget,
                num_hashes=num_hashes,
                num_bits=params.num_bits,
                k=params.k,
                precision=params.precision,
                oriented=oriented,
                seed=seed,
                estimator=estimator,
            )
            self.stats.constructions += 1
            if self.store is not None:
                self.store.put(pg)
                self.stats.store_saves += 1
            self._cache[key] = pg
            while len(self._cache) > self.max_entries:
                _, evicted = self._cache.popitem(last=False)
                self._release_handle(evicted)
                self.stats.evictions += 1
            return pg

    def persist(self, pg: ProbGraph) -> str:
        """Persist ``pg``'s sketch set to this session's store; returns the path."""
        if self.store is None:
            raise ValueError("this session has no sketch store attached")
        path = self.store.put(pg)
        with self._lock:
            self.stats.store_saves += 1
        return path

    def _release_handle(self, pg: ProbGraph) -> None:
        """Close the store handle of an entry leaving the cache (if it has one)."""
        with self._lock:  # reentrant: callers already hold it
            handle = self._handles.pop(id(pg), None)
        if handle is not None:
            handle.close()

    def _sweep_handles(self) -> None:
        """Close handles whose entries are no longer cached (bulk re-key paths)."""
        with self._lock:  # reentrant: callers already hold it
            live = {id(pg) for pg in self._cache.values()}
            stale = [self._handles.pop(i) for i in list(self._handles) if i not in live]
        for handle in stale:
            handle.close()

    def lsh_index(
        self,
        pg: ProbGraph,
        num_bands: int | None = None,
        rows_per_band: int | None = None,
        threshold: float = DEFAULT_LSH_THRESHOLD,
    ) -> "LSHIndex":
        """Build-or-reuse an :class:`~repro.engine.lsh.LSHIndex` over ``pg``.

        Indexes are cached alongside the sketch sets, keyed by the sketch
        set's identity (:meth:`ProbGraph.cache_key
        <repro.core.ProbGraph.cache_key>`) plus the resolved ``(num_bands,
        rows_per_band)`` split — a ``threshold`` and the explicit split it
        resolves to hit the *same* entry.  Cached indexes ride along with
        :meth:`apply_delta`: when the underlying sketch set is patched, the
        index's bucket tables are patched too (bit-identical to a fresh
        build); an index whose sketch set was evicted before the delta is
        invalidated instead.  After ``pg.apply_delta`` outside the session,
        the lookup re-keys ``pg``'s cached index under ``pg``'s new key and
        returns it (the patch marked its rows) rather than building another.  Families without signature matrices (Bloom /
        HLL) cache one full-scan-fallback index per sketch set.
        """
        from .lsh import LSHIndex, _resolve_band_split, _signature_view

        sig = _signature_view(pg.sketches)
        if sig is None:
            if num_bands is not None or rows_per_band is not None:
                raise ValueError(
                    f"{type(pg.sketches).__name__} stores no signature matrix; "
                    "banding parameters are not applicable"
                )
            split: tuple[int, int] = (0, 0)
        else:
            resolution = _resolve_band_split(sig.shape[1], num_bands, rows_per_band, threshold)
            split = (resolution.num_bands, resolution.rows_per_band)
        key = (pg.cache_key(), split)
        with self._lock:
            cached = self._lsh_cache.get(key)
            if cached is not None and cached.source.graph.fingerprint() != key[0][0]:
                # Patched out-of-band (ProbGraph.apply_delta called directly):
                # the tables no longer describe the keyed graph.  Drop it.
                del self._lsh_cache[key]
                self.stats.lsh_invalidations += 1
                cached = None
            if cached is not None:
                self._lsh_cache.move_to_end(key)
                self.stats.lsh_hits += 1
                return cached
            # Patched out-of-band, pg is keyed anew, but its index still sits
            # under the old key with the patched rows marked: re-key it.
            stranded = next(
                (old for old, index in self._lsh_cache.items()
                 if index.source is pg and old[1] == split),
                None,
            )
            if stranded is not None:
                self._lsh_cache[key] = self._lsh_cache.pop(stranded)
                self.stats.lsh_hits += 1
                return self._lsh_cache[key]
            index = LSHIndex(
                pg, num_bands=num_bands, rows_per_band=rows_per_band,
                threshold=threshold,
            )
            self.stats.lsh_constructions += 1
            self._lsh_cache[key] = index
            while len(self._lsh_cache) > self.max_entries:
                self._lsh_cache.popitem(last=False)
                self.stats.evictions += 1
            return index

    def apply_delta(self, delta: "GraphDelta") -> int:
        """Patch every cached sketch set of the delta's source graph, in place.

        Entries keyed by ``delta.old_fingerprint`` are advanced to
        ``delta.new_fingerprint`` instead of being evicted: the cached
        :class:`~repro.core.ProbGraph` objects are patched through
        :meth:`~repro.core.ProbGraph.apply_delta` (only the touched vertex
        rows change; results stay bit-identical to a fresh build on the new
        graph) and re-keyed under the new fingerprint, preserving LRU order.
        Callers holding references to the cached objects see them advance too.
        An entry whose rows were hashed in several threads is an ordinary
        :class:`~repro.core.ProbGraph`, so it is patched like any other, not
        rebuilt (a long-lived :class:`~repro.engine.sharded.ShardedEngine` is
        patched through its own ``apply_delta``).

        Returns the number of entries patched.  Note that budget-derived
        parameters are resolved against the graph a lookup passes in, so after
        the graph grows a ``storage_budget`` lookup may resolve to different
        concrete parameters than the patched entry carries; pass explicit
        ``num_bits`` / ``k`` / ``precision`` for stable keys across deltas.
        """
        old_fingerprint = delta.old_fingerprint
        new_fingerprint = delta.new_fingerprint
        with self._lock:
            patched = 0
            remapped: OrderedDict[tuple, ProbGraph] = OrderedDict()
            for key, pg in self._cache.items():
                if key[0] == old_fingerprint:
                    rows_before = pg.rows_patched
                    pg.apply_delta(delta)
                    record_patch(pg.rows_patched - rows_before)
                    key = (new_fingerprint,) + key[1:]
                    patched += 1
                remapped[key] = pg
            # A patched entry can land on the key of an entry already built for the
            # new graph (bit-identical sketches); the displaced one counts as evicted.
            self.stats.evictions += len(self._cache) - len(remapped)
            self._cache = _san.guard_mapping(remapped, self._lock, "PGSession._cache")
            self._sweep_handles()
            self.stats.delta_patches += patched
            # LSH indexes ride along: their sketch sets were just patched above,
            # so re-keying the touched rows' bucket entries keeps each index
            # bit-identical to a fresh build.  An index whose sketch set did not
            # advance (evicted before the delta) would serve stale tables — drop it.
            lsh_remapped: OrderedDict[tuple, object] = OrderedDict()
            invalidated = 0
            for key, index in self._lsh_cache.items():
                if key[0][0] == old_fingerprint:
                    if index.source.graph.fingerprint() != new_fingerprint:
                        invalidated += 1
                        continue
                    index.apply_delta(delta)
                    key = ((new_fingerprint,) + key[0][1:], key[1])
                    self.stats.lsh_patches += 1
                lsh_remapped[key] = index
            # Key collisions (a patched index landing on one already built for
            # the new graph) count as evictions, like the sketch cache above.
            self.stats.evictions += len(self._lsh_cache) - invalidated - len(lsh_remapped)
            self.stats.lsh_invalidations += invalidated
            self._lsh_cache = _san.guard_mapping(
                lsh_remapped, self._lock, "PGSession._lsh_cache"
            )
            return patched

    def cached(self, pg: ProbGraph) -> bool:
        """Whether ``pg``'s sketch set currently lives in this session's cache."""
        with self._lock:
            return pg.cache_key() in self._cache

    def clear(self) -> None:
        """Drop every cached sketch set and LSH index (stats are kept).

        Store handles of mmap-loaded entries are closed; objects callers still
        hold keep answering queries (their array views outlive the handle).
        """
        with self._lock:
            self._cache.clear()
            self._lsh_cache.clear()
            self._sweep_handles()

    def close(self) -> None:
        """Release the session: drop every cached entry and close every store handle.

        Idempotent.  This is :meth:`clear` plus the reprosan lifecycle audit
        of :meth:`ShardedEngine.close <repro.engine.sharded.ShardedEngine.close>`:
        a store handle this session opened and left unreleased becomes a
        ``SAN601`` finding here.  Objects callers still hold keep answering
        queries, and a later lookup loads or builds afresh.
        """
        self.clear()
        _san.check_owner_segments(self)

    def __enter__(self) -> "PGSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    # ----------------------------------------------------------------- queries
    def pair_intersections(
        self,
        pg: ProbGraph,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
        config: EngineConfig | None = None,
    ) -> np.ndarray:
        """Batched ``|N_u ∩ N_v|`` estimates, streamed under this session's config."""
        return batched_pair_intersections(pg, u, v, estimator=estimator, config=config or self.config)

    def pair_jaccard(
        self,
        pg: ProbGraph,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
        config: EngineConfig | None = None,
    ) -> np.ndarray:
        """Batched approximate Jaccard similarities, streamed under this session's config."""
        return batched_pair_jaccard(pg, u, v, estimator=estimator, config=config or self.config)

    def sum_pair_intersections(
        self,
        pg: ProbGraph,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
        config: EngineConfig | None = None,
    ) -> float:
        """Streaming ``Σ |N_u ∩ N_v|`` reduction (never materializes all estimates)."""
        return sum_pair_intersections(pg, u, v, estimator=estimator, config=config or self.config)

    def top_k_similar(
        self,
        pg: ProbGraph,
        u: int,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        config: EngineConfig | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` most similar vertices to ``u`` — the serving retrieval query.

        Streams the candidate set (default: all vertices, excluding ``u``)
        through the engine's top-k reduction (:mod:`repro.engine.topk`): only
        an ``O(k)`` running selection is kept, never the full score array.
        Returns ``(vertices, scores)`` in canonical order (score descending,
        vertex ID ascending on ties); ``measure`` is ``"jaccard"`` or
        ``"intersection"``/``"common_neighbors"``.
        """
        result = topk_per_source(
            pg, np.asarray([u], dtype=np.int64), k, candidates=candidates,
            score=measure, estimator=estimator, config=config or self.config,
        )
        return result.indices[0], result.scores[0]

    def top_k_similar_batch(
        self,
        pg: ProbGraph,
        sources: np.ndarray,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        config: EngineConfig | None = None,
    ) -> "TopKResult":
        """Batched :meth:`top_k_similar` for many sources in one streamed pass.

        Returns a :class:`~repro.engine.topk.TopKResult` holding
        ``(len(sources), k)`` candidate-ID and score arrays (``-1`` padded).
        """
        return topk_per_source(
            pg, sources, k, candidates=candidates, score=measure,
            estimator=estimator, config=config or self.config,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PGSession(entries={len(self._cache)}/{self.max_entries}, "
            f"constructions={self.stats.constructions}, cache_hits={self.stats.cache_hits})"
        )


_DEFAULT_SESSION: PGSession | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> PGSession:
    """The process-wide session used when callers do not manage their own.

    Race-free: concurrent first calls agree on one session (double-checked
    lazy init under a module lock) instead of each thread constructing and
    publishing its own instance.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        with _DEFAULT_SESSION_LOCK:
            if _DEFAULT_SESSION is None:
                _DEFAULT_SESSION = PGSession()
    return _DEFAULT_SESSION
