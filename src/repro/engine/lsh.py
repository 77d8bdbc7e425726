"""MinHash LSH banding index — sublinear candidate generation for top-k/kNN.

Every serving-path retrieval (`top_k_similar`, `top_k_similar_batch`,
`knn_graph`) streams *all* ``n`` candidates of a query through the ``O(k)``
selector, so per-query cost is linear in the vertex count no matter how few
vertices are actually similar.  This module adds the classic Broder-style
band/row construction on top of the signature matrices the sketch containers
already store:

* the ``(n, k)`` signature matrix (k-hash MinHash signatures, or the sorted
  retained values of bottom-k / KMV sketches) is sliced into ``b`` bands of
  ``r`` rows (``b·r ≤ k``);
* each band of each vertex is hashed to a 64-bit bucket key; two vertices are
  *candidates* for each other iff they share at least one band key.  For
  k-hash signatures the slots are independent permutations, so a pair with
  Jaccard similarity ``s`` collides with probability exactly
  ``1 − (1 − s^r)^b`` — the tunable S-curve of
  :func:`repro.core.budget.resolve_lsh_params`.  Two hard guarantees follow:
  a pair whose signatures agree on *every* used slot always collides, and by
  pigeonhole any pair with fewer than ``b`` mismatched slots collides too;
* a query probes its own ``b`` bucket keys and scores **only the colliding
  candidates** through the existing pure estimators — identical floats to the
  full scan, restricted to the candidate set — then selects under the same
  canonical order (score descending, ID ascending on ties) as
  :mod:`repro.engine.topk`.

The rows come from the ``sketches`` container of a
:class:`~repro.core.ProbGraph` or a
:class:`~repro.engine.sharded.ShardedEngine`, both in global vertex order, so
either fills **one** ``(key, vertex)`` table of global vertex IDs — an
engine's table is bit-identical to ``engine.to_probgraph()``'s, and
re-partitioning the engine needs no LSH work.  One probe returns every
source's candidates with their hit counts.  On a k-hash index with one slot
per band, a candidate's hits are its agreeing signature slots, so it is scored
from them, and only the winners are re-scored through the source's own
``pair_intersections`` (counted in shipments for an engine) to confirm the
answer; other families and splits score every candidate that way.

The same tables answer the *exact* top-k (``exact=True``, and
:meth:`ShardedEngine.top_k_similar_batch
<repro.engine.sharded.ShardedEngine.top_k_similar_batch>` when such an index
over its rows is alive) for that k-hash split and a built-in measure: a vertex
the probe misses agrees with the source on no non-empty slot, so Eq. 5 scores
it exactly 0, and the re-checked winners are followed by the lowest-ID
zero-score vertices of the pool — :func:`~repro.engine.topk.topk_per_source`'s
answer bit for bit.  Other families, splits and measures, and a batch whose
winner re-check fails, run the full scan.

Bloom and HyperLogLog containers store no per-element values, so no banding
index can be built over them: the index transparently **falls back to the
source's own full scan**.

The index is delta-aware through one mechanism: rows a delta touched are
*marked*, and the next read re-keys exactly those rows' bucket entries,
producing tables bit-identical to a fresh build on the new graph.
:meth:`LSHIndex.apply_delta` (the :meth:`repro.engine.PGSession.apply_delta`
path) marks and re-keys at once; ``ShardedEngine.apply_delta`` only marks,
so a burst of deltas pays one table splice at the next query.

A re-key costs what changed, not what the table holds.  The index keeps the
``(n, b)`` band-key matrix and validity mask its build computes (9 bytes per
``(row, band)`` cell), so :meth:`LSHIndex.rekey_rows` hashes only the marked
rows, compares their keys with the matrix cell by cell, and moves only the
entries whose key changed: each is found by ``searchsorted`` on the sorted
keys plus a binary search on the vertex IDs inside its run of equal keys, and
one assembly pass writes the new tables.  A MinHash slot moves only when a new
neighbour beats its minimum, so most cells of a touched row keep their key.
"""

from __future__ import annotations

import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..analysis import runtime as _san
from ..core.budget import DEFAULT_LSH_THRESHOLD, LSHResolution, resolve_lsh_params
from ..core.estimators import EstimatorKind, intersection_to_jaccard
from ..core.probgraph import ProbGraph, check_estimator_kind
from ..parallel.executor import chunked_ranges
from ..sketches.base import NeighborhoodSketches, ragged_gather
from ..sketches.hashing import splitmix64
from ..sketches.kmv import KMVNeighborhoodSketches
from ..sketches.minhash import BottomKNeighborhoodSketches, KHashNeighborhoodSketches
from ..storage import StoreFormatError, StoreHandle, open_blocks, write_blocks
from .batch import (
    EngineConfig,
    check_vertex_ids,
    record_query,
    record_topk,
    resolve_chunk_pairs,
)
from .topk import (
    ScoreFn,
    TopKResult,
    _chunk_topk_positions,
    _resolve_score_fn,
    topk_per_source,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dynamic.graph import GraphDelta
    from .sharded import ShardedEngine

__all__ = [
    "DEFAULT_LSH_THRESHOLD",
    "LSHIndexStats",
    "LSHIndex",
    "signature_matrix",
    "select_topk_rows",
]

#: Base seed of the band-key hash chain (any fixed constant works; band and
#: column offsets below make every chain step a distinct hash function).
_KEY_SEED = 0x1517

_U64_EMPTY = np.uint64(np.iinfo(np.uint64).max)

#: Rows hashed per block by :meth:`LSHIndex.band_keys`: 4,096 rows of a
#: 16-slot signature are 512 KiB, small enough to stay in cache.
_KEY_BLOCK_ROWS = 4096


def signature_matrix(
    sketches: NeighborhoodSketches,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The bandable ``(n, k)`` uint64 signature view of a container, or ``None``.

    Returns ``(matrix, empty_mask)``: k-hash containers expose their MinHash
    signatures directly; bottom-k and KMV containers expose their sorted
    retained values (KMV's unit-interval floats are viewed as raw uint64 bits
    — equality of positive IEEE doubles is equality of their bit patterns).
    Bloom filters and HyperLogLog registers hold no per-element values that
    survive into bands, so they return ``None`` and callers fall back to the
    full scan.

    The view aliases the container's live arrays — recompute it after the
    container is patched or grown rather than holding on to it.
    """
    matrix = _signature_view(sketches)
    if matrix is None:
        return None
    return matrix, _empty_slots(sketches, matrix)


def _signature_view(sketches: NeighborhoodSketches) -> np.ndarray | None:
    """The matrix half of :func:`signature_matrix`, without the O(n·k) empty mask."""
    if isinstance(sketches, KHashNeighborhoodSketches):
        return sketches.signatures
    if isinstance(sketches, BottomKNeighborhoodSketches):
        return sketches.values
    if isinstance(sketches, KMVNeighborhoodSketches):
        return np.ascontiguousarray(sketches.values).view(np.uint64)
    return None


def _rows_owner(source: "ProbGraph | ShardedEngine") -> ProbGraph:
    """The :class:`ProbGraph` holding ``source``'s rows; its deltas mark an index's rows."""
    return source if isinstance(source, ProbGraph) else source._pg


def _empty_slots(sketches: NeighborhoodSketches, rows: np.ndarray) -> np.ndarray:
    """Which slots of ``rows`` (gathered from :func:`_signature_view`) are empty."""
    if isinstance(sketches, KMVNeighborhoodSketches):
        return rows.view(np.float64) >= 2.0
    return rows == _U64_EMPTY


@dataclass
class LSHIndexStats:
    """Observable probe behaviour of one :class:`LSHIndex`."""

    queries: int = 0
    probed_sources: int = 0
    candidates_scored: int = 0
    #: Queries the tables could not answer, so the source's full scan ran.
    full_scan_fallbacks: int = 0
    #: Batches scored from band collision counts whose re-scored winners
    #: differed, so the batch was scored again from the signatures (or, for
    #: an exact answer, by the full scan).
    count_mismatches: int = 0

    @property
    def mean_candidates(self) -> float:
        """Average candidates found per probed source — the sublinearity measure."""
        if self.probed_sources == 0:
            return 0.0
        return self.candidates_scored / self.probed_sources


def select_topk_rows(
    sources: np.ndarray,
    candidate_lists: list[np.ndarray],
    flat_scores: np.ndarray,
    k: int,
    exclude_self: bool = True,
) -> TopKResult:
    """Canonical per-source selection over ragged candidate lists.

    ``candidate_lists[i]`` holds source ``i``'s sorted unique candidate IDs and
    ``flat_scores`` their scores, concatenated in the same order.  Each row is
    selected by the streaming top-k's partition-based selector, which equals
    :func:`repro.engine.topk.materialized_topk` — score
    descending, candidate ID ascending on ties — padded with ``-1`` (score
    ``0.0``) to width ``k``, so a result row equals the full-scan
    :func:`~repro.engine.topk.topk_per_source` row whenever the candidate list
    covers that row's winners.
    """
    if not np.all(np.isfinite(flat_scores)):
        raise ValueError(
            "top-k scores must be finite (-inf/nan are reserved as the "
            "padding/exclusion sentinel)"
        )
    num_sources = sources.shape[0]
    best_idx = np.full((num_sources, k), -1, dtype=np.int64)
    best_scores = np.zeros((num_sources, k), dtype=np.float64)
    offset = 0
    for i in range(num_sources):
        cand = candidate_lists[i]
        scores = flat_scores[offset:offset + cand.shape[0]]
        offset += cand.shape[0]
        if exclude_self:
            scores = np.where(cand == sources[i], -np.inf, scores)
        positions = _chunk_topk_positions(scores, min(k, cand.shape[0]))
        values = scores[positions]
        keep = np.isfinite(values)
        positions, values = positions[keep], values[keep]
        best_idx[i, : positions.shape[0]] = cand[positions]
        best_scores[i, : positions.shape[0]] = values
    return TopKResult(best_idx, best_scores)


class LSHIndex:
    """Band/row MinHash-LSH bucket tables over one row source.

    Parameters
    ----------
    source:
        A :class:`~repro.core.ProbGraph` or a
        :class:`~repro.engine.sharded.ShardedEngine`; reads of an engine
        whose source graph moved without a routed delta raise
        :class:`~repro.engine.sharded.StaleShardError`.
    num_bands, rows_per_band:
        Explicit band/row split (``num_bands · rows_per_band ≤ k``).  When
        omitted, :func:`repro.core.budget.resolve_lsh_params` picks the split
        whose S-curve midpoint is closest to ``threshold``.
    threshold:
        Target similarity for the parameter resolution (ignored when both
        ``num_bands`` and ``rows_per_band`` are given).

    For Bloom/HLL containers no tables are built (:attr:`banded` is False) and
    every query transparently takes the source's full-scan path.
    """

    def __init__(
        self,
        source: "ProbGraph | ShardedEngine",
        num_bands: int | None = None,
        rows_per_band: int | None = None,
        threshold: float = DEFAULT_LSH_THRESHOLD,
    ) -> None:
        from .sharded import ShardedEngine

        if not isinstance(source, (ProbGraph, ShardedEngine)):
            raise TypeError(
                f"expected a ProbGraph or ShardedEngine, got {type(source).__name__}"
            )
        self.source = source
        self.threshold = float(threshold)
        self.stats = LSHIndexStats()
        self._handle: StoreHandle | None = None
        # Bucket tables are rebuilt/spliced, and touched rows marked, under
        # this lock; reads (probe) are lock-free against the immutable sorted
        # arrays.  Under reprosan the lock feeds the lock-order graph and
        # every table write is epoch-stamped against it.
        self._table_lock = _san.make_rlock("LSHIndex.tables")
        self._dirty = np.empty(0, dtype=np.int64)
        # The (n, b) band keys and validity mask of every (row, band) cell, as
        # the tables hold them; None until a build (or an open index's first
        # re-key).
        self._key_matrix: tuple[np.ndarray, np.ndarray] | None = None
        # ProbGraph.apply_delta marks the rows it patched on every live index
        # over them (a weak registration that ends with the index).  An engine
        # index builds and registers under the engine's patch lock, so a
        # concurrent delta lands either before the build or on the index.
        with nullcontext() if isinstance(source, ProbGraph) else source._patch_lock:
            sig = _signature_view(source.sketches)
            if sig is None:
                if num_bands is not None or rows_per_band is not None:
                    raise ValueError(
                        f"{type(source.sketches).__name__} stores no signature matrix; "
                        "banding parameters are not applicable (queries fall back to "
                        "the full scan)"
                    )
                self.resolution: LSHResolution | None = None
                self._keys = np.empty(0, dtype=np.uint64)
                self._verts = np.empty(0, dtype=np.int64)
                self._num_rows = source.num_vertices
            else:
                slots = sig.shape[1]
                self.resolution = _resolve_band_split(slots, num_bands, rows_per_band, threshold)
                self._rebuild()
            _rows_owner(source)._lsh_indexes.add(self)

    # ------------------------------------------------------------- properties
    @property
    def banded(self) -> bool:
        """Whether bucket tables exist (False → every query is a full scan)."""
        return self.resolution is not None

    @property
    def num_bands(self) -> int:
        """Bands per signature (0 for the full-scan fallback)."""
        return self.resolution.num_bands if self.resolution is not None else 0

    @property
    def rows_per_band(self) -> int:
        """Signature slots hashed together per band (0 for the full-scan fallback)."""
        return self.resolution.rows_per_band if self.resolution is not None else 0

    @property
    def num_entries(self) -> int:
        """Total ``(band, vertex)`` bucket entries across all tables."""
        self._flush()
        return int(self._keys.shape[0])

    @property
    def num_buckets(self) -> int:
        """Number of distinct bucket keys across all bands."""
        self._flush()
        if self._keys.shape[0] == 0:
            return 0
        return int(np.unique(self._keys).shape[0])

    # ------------------------------------------------------------ row source
    def _check_fresh(self) -> None:
        """Refuse reads of an engine whose source graph moved out-of-band."""
        if not isinstance(self.source, ProbGraph):
            self.source._check_fresh()

    # ------------------------------------------------------------ table build
    def band_keys(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(len(rows), b)`` bucket keys + validity mask for global vertex IDs.

        Key ``[i, j]`` chains the splitmix64 finalizer over band ``j``'s
        ``r`` signature slots of vertex ``rows[i]`` (each chain step seeded by
        its column, so bands hash to disjoint key spaces).  A band is *valid*
        when at least one of its slots is non-empty; empty bands (isolated or
        sentinel-only rows) produce no bucket entries and never probe, which
        keeps all-empty vertices from colliding with each other.

        Keys depend only on the family parameters and the band split, never
        on which container holds the row.  A row outside ``[0, n)`` raises
        ``ValueError``.
        """
        assert self.resolution is not None
        sketches = self.source.sketches
        rows = check_vertex_ids(rows, sketches.num_sets, "rows")
        sig = _signature_view(sketches)
        assert sig is not None
        b, r = self.resolution.num_bands, self.resolution.rows_per_band
        keys = np.empty((rows.shape[0], b), dtype=np.uint64)
        valid = np.empty((rows.shape[0], b), dtype=bool)
        # Row blocks keep the column-strided reads of the gathered rows in cache.
        for start, stop in chunked_ranges(rows.shape[0], _KEY_BLOCK_ROWS):
            sub = sig[rows[start:stop]]
            sub_empty = _empty_slots(sketches, sub)
            for band in range(b):
                lo = band * r
                h = splitmix64(sub[:, lo], seed=_KEY_SEED + lo)
                for col in range(lo + 1, lo + r):
                    h = splitmix64(h ^ sub[:, col], seed=_KEY_SEED + col)
                keys[start:stop, band] = h
                valid[start:stop, band] = ~sub_empty[:, lo:lo + r].all(axis=1)
        return keys, valid

    def _rebuild(self) -> None:
        with self._table_lock:
            num_rows = self.source.num_vertices
            rows = np.arange(num_rows, dtype=np.int64)
            keys, valid = self.band_keys(rows)
            flat = valid.ravel()
            _san.stamp_write(self._table_lock, "LSHIndex.tables")
            self._keys, self._verts = _canonical_sort(
                keys.ravel()[flat], np.repeat(rows, self.num_bands)[flat]
            )
            self._key_matrix = (keys, valid)
            self._num_rows = num_rows

    # ------------------------------------------------------------- persistence
    @staticmethod
    def _signature_crc(sketches: NeighborhoodSketches) -> int:
        """Checksum binding saved bucket tables to their signature matrix."""
        sig = _signature_view(sketches)
        assert sig is not None
        return zlib.crc32(memoryview(np.ascontiguousarray(sig)).cast("B"))

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist the bucket tables as one ``kind="lsh"`` block file.

        Works for a :class:`~repro.core.ProbGraph` or a
        :class:`~repro.engine.sharded.ShardedEngine` source alike (both hold
        their rows in global vertex order); :meth:`ShardedEngine.save
        <repro.engine.sharded.ShardedEngine.save>` writes its default split
        this way as ``lsh.pgsk``.  Bloom/HLL full-scan fallbacks have no
        tables and raise :class:`ValueError`.  The header records the band
        split and a checksum of the source signature matrix, so :meth:`open`
        refuses to attach the tables to a container they were not built from.
        """
        sketches = self.source.sketches
        if self.resolution is None:
            raise ValueError(
                f"{type(sketches).__name__} builds no bucket tables "
                "(full-scan fallback); there is nothing to persist"
            )
        with self._table_lock:
            self._flush()
            write_blocks(
                path,
                "lsh",
                {
                    "keys": self._keys,
                    "verts": self._verts,
                    "vertex_ids": np.arange(self._num_rows, dtype=np.int64),
                },
                meta={
                    "family": type(sketches).__name__,
                    "num_rows": int(self._num_rows),
                    "num_bands": int(self.resolution.num_bands),
                    "rows_per_band": int(self.resolution.rows_per_band),
                    "signature_slots": int(self.resolution.signature_slots),
                    "target_threshold": float(self.resolution.target_threshold),
                    "signature_crc32": self._signature_crc(sketches),
                },
            )

    @classmethod
    def open(
        cls,
        path: str | os.PathLike[str],
        source: "ProbGraph | ShardedEngine",
        mode: str = "mmap",
    ) -> "LSHIndex":
        """Attach saved bucket tables to ``source`` — probe-ready, no rebuild.

        The saved tables must have been built from exactly ``source``'s
        sketch rows: family, row count, and the signature-matrix checksum are
        verified against the header (:class:`~repro.storage.StoreFormatError`
        on mismatch), so a stale or foreign table file cannot silently serve
        wrong candidates.  In ``"mmap"`` mode the tables are zero-copy views;
        patches splice into fresh in-memory arrays (tables are rebound, never
        written in place), so the file stays valid.  Later deltas mark the
        attached index's rows, as they do a built one's.  The index owns the
        handle — release it with :meth:`close`.
        """
        index = cls.__new__(cls)
        handle = open_blocks(
            path, mode=mode, owner=index, purpose="LSH bucket tables",
            site=_san.call_site(1),
        )
        sketches = source.sketches
        try:
            if handle.kind != "lsh":
                raise StoreFormatError(
                    f"{os.fspath(path)}: kind {handle.kind!r} is not an LSH "
                    "table entry"
                )
            family = str(handle.meta.get("family", ""))
            if family != type(sketches).__name__:
                raise StoreFormatError(
                    f"{os.fspath(path)}: tables were built over {family}, "
                    f"source holds {type(sketches).__name__}"
                )
            num_rows = int(handle.meta["num_rows"])
            if num_rows != sketches.num_sets:
                raise StoreFormatError(
                    f"{os.fspath(path)}: tables cover {num_rows} rows, source "
                    f"has {sketches.num_sets}"
                )
            sig = _signature_view(sketches)
            if sig is None:
                raise StoreFormatError(
                    f"{os.fspath(path)}: source family stores no signature "
                    "matrix; saved tables cannot apply"
                )
            if cls._signature_crc(sketches) != int(handle.meta["signature_crc32"]):
                raise StoreFormatError(
                    f"{os.fspath(path)}: signature checksum mismatch — the "
                    "tables were not built from this container's rows"
                )
            resolution = LSHResolution(
                int(handle.meta["num_bands"]),
                int(handle.meta["rows_per_band"]),
                int(handle.meta["signature_slots"]),
                float(handle.meta["target_threshold"]),
            )
            if resolution.slots_used > sig.shape[1]:
                raise StoreFormatError(
                    f"{os.fspath(path)}: band split uses {resolution.slots_used} "
                    f"slots, signature has {sig.shape[1]}"
                )
        except Exception:
            handle.close()
            raise
        index.source = source
        index.threshold = resolution.target_threshold
        index.stats = LSHIndexStats()
        index._handle = handle
        index._table_lock = _san.make_rlock("LSHIndex.tables")
        index._dirty = np.empty(0, dtype=np.int64)
        index._key_matrix = None  # built at the first re-key
        index.resolution = resolution
        index._keys = handle.arrays["keys"]
        index._verts = handle.arrays["verts"]
        index._num_rows = num_rows
        _rows_owner(source)._lsh_indexes.add(index)
        return index

    def close(self) -> None:
        """Release the store handle of an :meth:`open`-attached index.

        Idempotent; a no-op for indexes built in memory.  Closing only ends
        the ledger lifetime — already-materialized query results stay valid.
        """
        if self._handle is not None:
            self._handle.close()

    def __enter__(self) -> "LSHIndex":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # --------------------------------------------------------------- patching
    def apply_delta(self, delta: "GraphDelta") -> int:
        """Re-key the bucket entries of exactly the delta's touched rows.

        Call *after* the source was patched to ``delta.graph`` (checked via
        the fingerprint) — the signature rows already hold their new state,
        so marking the touched rows and flushing them splices tables
        bit-identical to a fresh build on the new graph.  Rows appended by a
        vertex-growing delta are indexed too.  Returns the number of re-keyed
        rows; the full-scan fallback has no tables and returns 0.

        :meth:`repro.engine.PGSession.apply_delta` calls this for every
        session-cached index of the delta's graph.  No index needs the call —
        :meth:`ProbGraph.apply_delta <repro.core.ProbGraph.apply_delta>` (which
        :meth:`ShardedEngine.apply_delta
        <repro.engine.sharded.ShardedEngine.apply_delta>` runs) marks its rows
        and the next read flushes them — but an explicit call re-keys now
        (idempotently).
        """
        source = self.source
        if source.graph.fingerprint() != delta.new_fingerprint:
            kind = "ProbGraph" if isinstance(source, ProbGraph) else "engine"
            raise ValueError(
                f"patch the {kind} first: the index's graph does not match "
                "the delta's post-state"
            )
        if not self.banded:
            return 0
        if source.oriented:
            # The source's apply_delta already ran, so the per-delta memo holds
            # the oriented row diff; the base argument is only used on a miss.
            _, touched = delta.oriented_update(source.base)
        else:
            touched = np.union1d(delta.ins_vertices, delta.dirty_vertices)
        with self._table_lock:
            self._mark(touched)
            return self._flush()

    def _mark(self, rows: np.ndarray) -> None:
        """Mark already-patched vertices for re-keying at the next read."""
        if not self.banded:
            return  # no tables to re-key
        with self._table_lock:
            self._dirty = np.union1d(self._dirty, rows)

    def _flush(self) -> int:
        """Re-key every marked vertex; every table read runs this first."""
        with self._table_lock:
            if self._dirty.shape[0] == 0:
                return 0
            dirty, self._dirty = self._dirty, np.empty(0, dtype=np.int64)
            return self.rekey_rows(dirty)

    def rekey_rows(self, rows: np.ndarray) -> int:
        """Re-key the bucket entries of the given vertices.

        ``rows`` are global vertex IDs whose sketch rows already hold their
        *new* state; any vertices the source gained since the last build or
        re-key are included automatically (their old cells count as invalid).
        Only the ``(row, band)`` cells whose key or validity differs from the
        stored key matrix move: their old entries are dropped, their new ones
        inserted, and the tables are rebound to fresh arrays in one pass, so
        the cost follows the changed cells, not the table size.  An index
        attached by :meth:`open` has no key matrix yet; its first re-key
        replaces every entry of ``rows`` (found with a vertex mask over the
        table) and then builds the matrix from the patched signatures.

        Re-keying is idempotent and entry order is canonical, so the tables
        end up bit-identical to a fresh build over the current source.
        Returns the number of re-keyed rows.
        """
        if not self.banded:
            return 0
        with self._table_lock:
            num_rows = self.source.num_vertices
            rows = np.unique(np.asarray(rows, dtype=np.int64).ravel())
            if num_rows > self._num_rows:
                grown = np.arange(self._num_rows, num_rows, dtype=np.int64)
                rows = np.union1d(rows, grown)
            if rows.size == 0:
                return 0
            owners = np.broadcast_to(rows[:, None], (rows.shape[0], self.num_bands))
            if self._key_matrix is None:
                # Attached by open(): the rows' old keys are unknown, so drop
                # every entry they hold and keep the matrix from here on.
                matrix, valid = self.band_keys(np.arange(num_rows, dtype=np.int64))
                new_keys, add = matrix[rows], valid[rows]
                marked = np.zeros(num_rows, dtype=bool)
                marked[rows] = True
                drop = np.flatnonzero(marked[self._verts])
            else:
                new_keys, new_valid = self.band_keys(rows)
                matrix, valid = self._key_matrix
                if num_rows > matrix.shape[0]:
                    extra = (num_rows - matrix.shape[0], matrix.shape[1])
                    matrix = np.concatenate([matrix, np.zeros(extra, dtype=np.uint64)])
                    valid = np.concatenate([valid, np.zeros(extra, dtype=bool)])
                old_keys, old_valid = matrix[rows], valid[rows]
                moved = new_keys != old_keys
                gone = old_valid & (moved | ~new_valid)
                add = new_valid & (moved | ~old_valid)
                drop = self._entry_positions(*_canonical_sort(old_keys[gone], owners[gone]))
                matrix[rows], valid[rows] = new_keys, new_valid
            _san.stamp_write(self._table_lock, "LSHIndex.tables")
            if drop.size or add.any():
                self._splice(drop, *_canonical_sort(new_keys[add], owners[add]))
            self._key_matrix = (matrix, valid)
            self._num_rows = num_rows
            return int(rows.size)

    def _entry_positions(self, keys: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Table positions of canonically sorted entries that the tables hold.

        Entries are a multiset (one row can hold one key in two bands), so
        each repeat of an entry takes the slot after the previous one.
        """
        pos = self._insertion_points(keys, verts)
        step = np.arange(pos.shape[0], dtype=np.int64)
        pos = np.maximum.accumulate(pos - step) + step
        assert np.array_equal(self._keys[pos], keys) and np.array_equal(
            self._verts[pos], verts
        ), "key matrix and bucket tables disagree"
        return pos

    def _insertion_points(self, keys: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Leftmost canonical position of each ``(key, vert)`` in the tables.

        ``searchsorted`` on the sorted keys bounds each key's run; a binary
        search on the vertex IDs, which are sorted inside a run, then runs in
        lockstep over every entry still open.
        """
        lo = np.searchsorted(self._keys, keys, side="left")
        hi = np.searchsorted(self._keys, keys, side="right")
        table_verts = self._verts
        open_ = np.flatnonzero(lo < hi)
        while open_.shape[0]:
            left, right = lo[open_], hi[open_]
            mid = (left + right) >> 1
            after = table_verts[mid] < verts[open_]
            lo[open_] = np.where(after, mid + 1, left)
            hi[open_] = np.where(after, right, mid)
            open_ = open_[lo[open_] < hi[open_]]
        return lo

    def _splice(self, drop: np.ndarray, keys: np.ndarray, verts: np.ndarray) -> None:
        """Rebind the tables to their entries minus positions ``drop`` plus new ones.

        ``drop`` is sorted; the new entries are canonically sorted.  Each new
        entry goes before the first held entry not below it, shifted left by
        the drops ahead of that point and right by the new entries before it,
        so one assembly pass yields the canonical order.
        """
        at = self._insertion_points(keys, verts)
        at += np.arange(at.shape[0], dtype=np.int64) - np.searchsorted(drop, at)
        kept = np.ones(self._keys.shape[0], dtype=bool)
        kept[drop] = False
        total = self._keys.shape[0] - drop.shape[0] + keys.shape[0]
        old = np.ones(total, dtype=bool)
        old[at] = False
        out_keys = np.empty(total, dtype=np.uint64)
        out_verts = np.empty(total, dtype=np.int64)
        out_keys[at], out_keys[old] = keys, self._keys[kept]
        out_verts[at], out_verts[old] = verts, self._verts[kept]
        self._keys, self._verts = out_keys, out_verts

    # ----------------------------------------------------------------- probes
    def _probe_hits(
        self, keys: np.ndarray, valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``(query row, vertex, hits)`` triple of a batch of band keys.

        ``hits`` counts the bucket entries holding the vertex under any of the
        row's valid keys.  One ``searchsorted`` pair bounds every span, one
        gather reads them, and one ``np.unique`` over ``row · n + vertex``
        deduplicates, so the triples come sorted by row, then vertex.
        """
        table_keys, table_verts = self._keys, self._verts
        flat = keys.ravel()
        left = np.searchsorted(table_keys, flat, side="left")
        right = np.searchsorted(table_keys, flat, side="right")
        lengths = np.where(valid.ravel(), right - left, 0)  # invalid bands match nothing
        verts = table_verts[ragged_gather(left, lengths)]
        bound = int(verts.max()) + 1 if verts.size else 1
        rows = np.repeat(np.arange(keys.shape[0], dtype=np.int64), keys.shape[1])
        found, hits = np.unique(np.repeat(rows * bound, lengths) + verts, return_counts=True)
        return found // bound, found % bound, hits

    def probe(self, keys: np.ndarray, valid: np.ndarray) -> list[np.ndarray]:
        """Per query row: sorted unique vertex IDs sharing at least one band key.

        ``keys`` / ``valid`` are :meth:`band_keys` outputs (computed on this or
        any family-compatible index).  The query's own entry is *not*
        excluded — callers drop or keep self-matches as their semantics need.
        Reads the tables as of the last flush (:meth:`query_candidates_batch`
        flushes first).
        """
        rows, verts, _ = self._probe_hits(keys, valid)
        return _split_rows(verts, rows, keys.shape[0])

    def _candidate_hits(
        self, sources: np.ndarray, candidates: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flushed probe triples of checked ``sources``, kept to the ``candidates`` pool."""
        self._flush()
        rows, verts, hits = self._probe_hits(*self.band_keys(sources))
        if candidates is not None:
            keep = np.isin(verts, candidates)
            rows, verts, hits = rows[keep], verts[keep], hits[keep]
        return rows, verts, hits

    def query_candidates_batch(
        self,
        sources: np.ndarray,
        candidates: np.ndarray | None = None,
        exclude_self: bool = True,
    ) -> list[np.ndarray]:
        """Colliding candidates of every source, as sorted unique ID arrays.

        The full-scan fallback returns the whole candidate pool for every
        source — the same set the exact path scores.  An explicit
        ``candidates`` pool restricts the result to that pool.
        """
        self._check_fresh()
        num_vertices = self.source.num_vertices
        sources = check_vertex_ids(sources, num_vertices, "sources")
        if candidates is not None:
            candidates = np.unique(check_vertex_ids(candidates, num_vertices, "candidates"))
        if not self.banded:
            pool = (
                candidates
                if candidates is not None
                else np.arange(num_vertices, dtype=np.int64)
            )
            return [
                pool[pool != s] if exclude_self else pool.copy() for s in sources
            ]
        rows, verts, _ = self._candidate_hits(sources, candidates)
        if exclude_self:
            keep = verts != sources[rows]
            rows, verts = rows[keep], verts[keep]
        return _split_rows(verts, rows, sources.shape[0])

    def query_candidates(
        self,
        u: int,
        candidates: np.ndarray | None = None,
        exclude_self: bool = True,
    ) -> np.ndarray:
        """Sorted unique candidate IDs colliding with vertex ``u`` on ≥1 band."""
        return self.query_candidates_batch(
            np.asarray([u], dtype=np.int64), candidates=candidates,
            exclude_self=exclude_self,
        )[0]

    # ---------------------------------------------------------------- serving
    def topk_similar_batch(
        self,
        sources: np.ndarray,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        exclude_self: bool = True,
        exact: bool = False,
        config: EngineConfig | None = None,
    ) -> TopKResult:
        """Per-source top-k retrieval scoring only the colliding candidates.

        Returns the same ``(len(sources), k)`` canonical-order shape as
        :func:`repro.engine.topk.topk_per_source` (``-1``/``0.0`` padded).
        Scores are the same floats the full scan produces (same pure
        estimators on the same rows, through the source's
        ``pair_intersections``) — only the candidate set differs, by the
        S-curve recall contract.  On a Bloom/HLL container the call routes to
        the source's full scan and is bit-identical to it.

        One probe finds every source's candidates with their hit counts.  A
        k-hash index with one slot per band over every slot scores a built-in
        ``measure`` from those counts, with no signature gather: a pair's
        hits are its agreeing slots, plus any cross-band key collision, which
        only adds.  Scores never fall as matches rise, so a non-winner's true
        score is at most its counted one.  The selected winners (at most
        ``k`` per source) are then re-scored through the source's
        ``pair_intersections`` and compared bit for bit; when all agree the
        answer is exactly the gather path's, and otherwise the batch is
        scored again from the signatures (:attr:`LSHIndexStats.count_mismatches`).
        Other families, ``r > 1`` splits and callable measures score every
        candidate from the signatures.  An engine source counts the pairs
        scored from sketch rows in its ``comm``: the winners, or every
        candidate.

        ``exact=True`` returns the full scan's answer bit for bit.  On that
        k-hash split with a built-in ``measure``, a ProbGraph source's answer
        comes from the tables: the re-checked winners, then the pool's
        lowest-ID vertices at score 0.0, which is what Eq. 5 gives every
        vertex the probe misses.  A failed re-check runs the full scan
        instead.  An engine source delegates to
        :meth:`ShardedEngine.top_k_similar_batch
        <repro.engine.sharded.ShardedEngine.top_k_similar_batch>`, which
        answers from such an index over its rows and prices the answer as a
        scan.  Every other exact query runs the source's full scan
        (:attr:`LSHIndexStats.full_scan_fallbacks`).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        source = self.source
        if exact or not self.banded:
            self.stats.queries += 1
            tables_answer = isinstance(measure, str) and self._hits_are_matches()
            if not tables_answer:
                self.stats.full_scan_fallbacks += 1
            if not isinstance(source, ProbGraph):
                return source.top_k_similar_batch(
                    sources, k, measure=measure, candidates=candidates,
                    estimator=estimator, exclude_self=exclude_self,
                )
            if tables_answer:
                sources = check_vertex_ids(sources, source.num_vertices, "sources")
                if candidates is not None:
                    candidates = np.unique(
                        check_vertex_ids(candidates, source.num_vertices, "candidates")
                    )
                result = self._exact_topk(
                    sources, k, measure, candidates, estimator, exclude_self, config
                )
                if result is not None:
                    return result
            return topk_per_source(
                source, sources, k, candidates=candidates, score=measure,
                estimator=estimator, exclude_self=exclude_self, config=config,
            )
        score_fn = _resolve_score_fn(source, measure, estimator)
        if estimator is not None:  # checked even when a batch scores no pair
            check_estimator_kind(source.representation, estimator)
        sources = check_vertex_ids(sources, source.num_vertices, "sources")
        if candidates is not None:
            candidates = np.unique(check_vertex_ids(candidates, source.num_vertices, "candidates"))
        pool_size = candidates.shape[0] if candidates is not None else source.num_vertices
        k = min(int(k), pool_size)
        record_topk()
        self.stats.queries += 1
        if sources.shape[0] == 0 or k == 0:
            return _empty_topk(sources.shape[0], k)
        self._check_fresh()
        rows, verts, hits = self._candidate_hits(sources, candidates)
        self.stats.probed_sources += sources.shape[0]
        self.stats.candidates_scored += verts.shape[0]
        cand_lists = _split_rows(verts, rows, sources.shape[0])
        # A ProbGraph's pairs are recorded here; an engine's pair_intersections
        # records them in its comm itself.
        record = isinstance(source, ProbGraph)
        if not callable(measure) and self._hits_are_matches():
            result = self._counted_topk(
                sources, k, measure, exclude_self, rows, verts, hits, cand_lists,
                score_fn, record, config,
            )
            if result is not None:
                return result
        scores = self._score_pairs(score_fn, sources[rows], verts, config, record)
        return select_topk_rows(sources, cand_lists, scores, k, exclude_self)

    def _exact_topk(
        self,
        sources: np.ndarray,
        k: int,
        measure: str,
        candidates: np.ndarray | None,
        estimator: EstimatorKind | str | None,
        exclude_self: bool,
        config: EngineConfig | None,
    ) -> TopKResult | None:
        """:func:`~repro.engine.topk.topk_per_source`'s answer from the tables, or ``None``.

        For a :meth:`_hits_are_matches` index and a built-in ``measure``;
        ``sources`` are checked and ``candidates`` sorted unique (or ``None``,
        the whole vertex set).  The count-scored winners are re-checked
        through the ``pair_intersections`` of the :class:`ProbGraph` holding
        the rows, so an engine's ``comm`` counts nothing, and every row with
        fewer than ``k`` winners is filled with the pool's lowest-ID vertices
        at score 0.0, skipping the winners and, under ``exclude_self``, the
        source.  A vertex the probe misses agrees with the source on no
        non-empty slot, so Eq. 5 scores it exactly 0, and every probed one
        scores above 0.  ``None`` means a winner's re-check failed (a
        cross-band key collision), and the caller runs the full scan.
        """
        pg = _rows_owner(self.source)
        score_fn = _resolve_score_fn(pg, measure, estimator)
        if estimator is not None:  # checked even when a batch scores no pair
            check_estimator_kind(pg.representation, estimator)
        pool_size = candidates.shape[0] if candidates is not None else pg.num_vertices
        k = min(int(k), pool_size)
        if sources.shape[0] == 0 or k == 0:
            record_topk()
            return _empty_topk(sources.shape[0], k)
        rows, verts, hits = self._candidate_hits(sources, candidates)
        self.stats.probed_sources += sources.shape[0]
        self.stats.candidates_scored += verts.shape[0]
        result = self._counted_topk(
            sources, k, measure, exclude_self, rows, verts, hits,
            _split_rows(verts, rows, sources.shape[0]), score_fn, True, config,
        )
        if result is None:
            self.stats.full_scan_fallbacks += 1
            return None
        record_topk()
        head = (
            candidates[: k + 1] if candidates is not None
            else np.arange(min(pg.num_vertices, k + 1), dtype=np.int64)
        )
        return TopKResult(_fill_with_zero_scores(result.indices, sources, head, exclude_self),
                          result.scores)

    def _counted_topk(
        self,
        sources: np.ndarray,
        k: int,
        measure: str,
        exclude_self: bool,
        rows: np.ndarray,
        verts: np.ndarray,
        hits: np.ndarray,
        cand_lists: list[np.ndarray],
        score_fn: ScoreFn,
        record: bool,
        config: EngineConfig | None,
    ) -> TopKResult | None:
        """The probe's top-k selected by counted scores, or ``None`` if a winner's re-check fails.

        ``(rows, verts, hits)`` are :meth:`_candidate_hits` triples and
        ``cand_lists`` their per-source split.  The winners are re-scored by
        ``score_fn`` (recorded in :func:`~repro.engine.batch.engine_stats`
        when ``record``) and compared bit for bit with their counted scores.
        """
        counted = self._count_scores(measure, sources[rows], verts, hits)
        result = select_topk_rows(sources, cand_lists, counted, k, exclude_self)
        won = result.indices >= 0
        winners = np.broadcast_to(sources[:, None], won.shape)[won]
        rescored = self._score_pairs(score_fn, winners, result.indices[won], config, record)
        if np.array_equal(rescored, result.scores[won]):
            return result
        self.stats.count_mismatches += 1
        return None

    def _hits_are_matches(self) -> bool:
        """Whether a candidate's probe hits count its agreeing signature slots.

        True for a k-hash index with one slot per band and every slot banded:
        band ``j``'s key is then a bijection of slot ``j``, so each agreeing
        non-empty slot is one hit, and a hit beyond those needs two different
        bands' keys to collide (about 2⁻⁶⁴ per pair of slots).
        """
        sketches = self.source.sketches
        return (
            isinstance(sketches, KHashNeighborhoodSketches)
            and self.rows_per_band == 1
            and self.num_bands == sketches.k
        )

    def _count_scores(
        self, measure: str, u: np.ndarray, v: np.ndarray, hits: np.ndarray
    ) -> np.ndarray:
        """Built-in ``measure`` scores with ``min(hits, k)`` as the slot matches.

        The same Eq. 5 → :func:`~repro.core.estimators.intersection_to_jaccard`
        steps the source's pair path runs, so a pair whose hits are its true
        matches scores the same floats; extra hits can only raise a score.
        """
        sketches = self.source.sketches
        assert isinstance(sketches, KHashNeighborhoodSketches)
        inter = sketches.matches_to_intersections(np.minimum(hits, sketches.k), u, v)
        if measure != "jaccard":
            return inter
        degrees = self.source.base_degrees
        return intersection_to_jaccard(inter, degrees[u], degrees[v])

    def _score_pairs(
        self, score_fn: ScoreFn, u: np.ndarray, v: np.ndarray, config: EngineConfig | None,
        record: bool,
    ) -> np.ndarray:
        """Scores of the pairs ``(u, v)`` from their sketch rows, in engine-sized windows.

        With ``record`` the pairs are recorded in
        :func:`~repro.engine.batch.engine_stats` here.
        """
        total = u.shape[0]
        scores = np.empty(total, dtype=np.float64)
        windows = chunked_ranges(total, resolve_chunk_pairs(self.source.sketches, config))
        if record:
            record_query(total, len(windows))
        for start, stop in windows:
            scores[start:stop] = score_fn(u[start:stop], v[start:stop])
        return scores

    def topk_similar(
        self,
        u: int,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        exact: bool = False,
        config: EngineConfig | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-source convenience over :meth:`topk_similar_batch`."""
        result = self.topk_similar_batch(
            np.asarray([u], dtype=np.int64), k, measure=measure,
            candidates=candidates, estimator=estimator, exact=exact, config=config,
        )
        return result.indices[0], result.scores[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shards = "" if isinstance(self.source, ProbGraph) else f", shards={self.source.num_shards}"
        if not self.banded:
            return f"LSHIndex(rows={self.source.num_vertices}{shards}, fallback=full-scan)"
        return (
            f"LSHIndex(rows={self.source.num_vertices}{shards}, b={self.num_bands}, "
            f"r={self.rows_per_band}, entries={self.num_entries})"
        )


def _empty_topk(num_sources: int, k: int) -> TopKResult:
    """The ``(num_sources, k)`` answer of a batch with no source or ``k = 0``."""
    return TopKResult(
        np.empty((num_sources, k), dtype=np.int64),
        np.empty((num_sources, k), dtype=np.float64),
    )


def _fill_with_zero_scores(
    indices: np.ndarray, sources: np.ndarray, head: np.ndarray, exclude_self: bool
) -> np.ndarray:
    """``indices`` with each row's ``-1`` padding replaced by unheld ``head`` IDs, lowest first.

    Row ``i`` holds its winners first, then ``-1``.  ``head`` is the pool's
    first ``k + 1`` IDs in ascending order: a row holds at most ``k``
    winners and may skip its source, so its fill lies inside ``head``.  A
    row whose pool runs out keeps the rest of its ``-1`` padding.
    """
    k = indices.shape[1]
    held = np.zeros((indices.shape[0], head.shape[0]), dtype=bool)
    at = np.minimum(np.searchsorted(head, indices), head.shape[0] - 1)
    row, col = np.nonzero((indices >= 0) & (head[at] == indices))
    held[row, at[row, col]] = True
    if exclude_self:
        held |= head[None, :] == sources[:, None]
    free = ~held
    rank = np.cumsum(free, axis=1)
    winners = np.count_nonzero(indices >= 0, axis=1)
    row, col = np.nonzero(free & (rank <= (k - winners)[:, None]))
    filled = indices.copy()
    filled[row, winners[row] + rank[row, col] - 1] = head[col]
    return filled


def _split_rows(values: np.ndarray, rows: np.ndarray, num_rows: int) -> list[np.ndarray]:
    """``values`` split into one array per row, by their sorted row numbers."""
    if num_rows == 0:
        return []
    return np.split(values, np.searchsorted(rows, np.arange(1, num_rows)))


def _canonical_sort(
    keys: np.ndarray, verts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket entries by key, then vertex ID: ``lexsort((verts, keys))``, faster.

    NumPy sorts 64-bit keys stably with a slow timsort.  So sort the keys
    unstably, number the runs of equal keys, and sort ``(run, vertex)``
    packed into one int64 (exact while entries × vertex bound < 2⁶³); sorting
    by run first leaves every run, and so the sorted keys, in place.
    """
    order = np.argsort(keys)
    keys = keys[order]
    run = np.zeros(keys.shape[0], dtype=np.int64)
    np.cumsum(keys[1:] != keys[:-1], out=run[1:])
    bound = int(verts.max()) + 1 if verts.size else 1
    packed = run * bound + verts[order]
    packed.sort()
    packed -= run * bound
    return keys, packed


def _resolve_band_split(
    slots: int,
    num_bands: int | None,
    rows_per_band: int | None,
    threshold: float,
) -> LSHResolution:
    """Validate an explicit (b, r) split or resolve one from the threshold."""
    if num_bands is None and rows_per_band is None:
        return resolve_lsh_params(slots, threshold)
    if num_bands is None or rows_per_band is None:
        raise ValueError("pass both num_bands and rows_per_band, or neither")
    b, r = int(num_bands), int(rows_per_band)
    if b < 1 or r < 1:
        raise ValueError(f"num_bands and rows_per_band must be positive, got ({b}, {r})")
    if b * r > slots:
        raise ValueError(
            f"num_bands * rows_per_band = {b * r} exceeds the signature's "
            f"{slots} slots"
        )
    return LSHResolution(b, r, slots, float(threshold))
