"""Dynamic-graph layer: batched edge streams on top of the CSR substrate.

ProbGraph's per-vertex sketches are fixed-size and insert-friendly (§II-D):
adding an element to a neighborhood only ever *updates* the sketch row in
``O(k)`` — set Bloom bits, lower per-permutation minima, merge into a bounded
value heap.  The missing piece for streaming/evolving-graph workloads is the
graph side: :class:`~repro.graph.csr.CSRGraph` is immutable, so every edge
change used to force a full reconstruction of both the CSR arrays and every
sketch.

This module maintains a mutable adjacency with batch semantics:

* :class:`EdgeStream` / :class:`EdgeBatch` describe a sequence of batched edge
  insertions and deletions;
* :class:`DynamicGraph` keeps a compact, row-sorted CSR, finds a batch's slots
  by a binary search inside each touched row, and applies the batch with one
  ``np.delete`` (deletions) and one ``np.insert`` (insertions);
* every :meth:`DynamicGraph.apply` returns a :class:`GraphDelta`: the new
  :class:`~repro.graph.csr.CSRGraph` snapshot (sharing the read-only arrays,
  no copy) plus the per-vertex neighborhood additions and the
  deletion-touched ("dirty") vertices.

The delta is what the sketch layer consumes:
:meth:`repro.core.ProbGraph.apply_delta` patches only the touched sketch rows
(incremental insert for pure additions, per-row resketch for dirty rows), and
:meth:`repro.engine.PGSession.apply_delta` advances cached entries from the
old graph fingerprint to the new one without evicting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..graph.csr import _EMPTY_EDGES, CSRGraph, _as_edge_array, _canonical_edges, ragged_gather

__all__ = [
    "EdgeBatch",
    "EdgeStream",
    "GraphDelta",
    "DynamicGraph",
    "DynamicStats",
    "changed_rows",
]


def changed_rows(old: CSRGraph, new: CSRGraph) -> np.ndarray:
    """Vertices whose neighborhood differs between two CSR graphs (exact, vectorized).

    Used to patch sketches of *oriented* neighborhoods: degree-order
    orientation is a global property, so an edge change can reshape ``N+`` rows
    far from the touched endpoints.  Comparing the two oriented CSR structures
    row-wise identifies exactly the rows whose sketches must be rebuilt.
    ``new`` may have more vertices than ``old``; extra non-empty rows count as
    changed.
    """
    n_new = new.num_vertices
    deg_new = new.degrees
    deg_old = np.zeros(n_new, dtype=np.int64)
    deg_old[: old.num_vertices] = old.degrees[: min(old.num_vertices, n_new)]
    changed = deg_old != deg_new
    candidates = np.flatnonzero(~changed & (deg_new > 0))
    if candidates.size:
        counts = deg_new[candidates]
        idx_old = ragged_gather(old.indptr[candidates], counts)
        idx_new = ragged_gather(new.indptr[candidates], counts)
        neq = old.indices[idx_old] != new.indices[idx_new]
        seg_starts = np.cumsum(counts) - counts
        mismatch = np.logical_or.reduceat(neq, seg_starts)
        changed[candidates[mismatch]] = True
    return np.flatnonzero(changed)


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge operations: deletions are applied before insertions."""

    insertions: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)
    deletions: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)

    def __post_init__(self) -> None:
        object.__setattr__(self, "insertions", _as_edge_array(self.insertions))
        object.__setattr__(self, "deletions", _as_edge_array(self.deletions))

    @property
    def num_operations(self) -> int:
        """Raw operation count (before canonicalization / dedup)."""
        return int(self.insertions.shape[0] + self.deletions.shape[0])


class EdgeStream:
    """A finite sequence of :class:`EdgeBatch` objects (the streaming workload shape)."""

    def __init__(self, batches: Iterable[EdgeBatch]) -> None:
        self._batches: list[EdgeBatch] = list(batches)

    @classmethod
    def insert_only(
        cls,
        edges: np.ndarray | Sequence[tuple[int, int]],
        batch_size: int,
        shuffle: bool = False,
        seed: int = 0,
    ) -> "EdgeStream":
        """Chop an edge list into fixed-size insertion batches (optionally shuffled)."""
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        arr = _as_edge_array(edges)
        if shuffle:
            rng = np.random.default_rng(seed)
            arr = arr[rng.permutation(arr.shape[0])]
        batches = [
            EdgeBatch(insertions=arr[start: start + batch_size])
            for start in range(0, arr.shape[0], batch_size)
        ]
        return cls(batches)

    @property
    def num_edges(self) -> int:
        """Total raw operation count over all batches."""
        return sum(batch.num_operations for batch in self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self) -> Iterator[EdgeBatch]:
        return iter(self._batches)


@dataclass(frozen=True)
class GraphDelta:
    """The structural change produced by one :meth:`DynamicGraph.apply` call.

    ``ins_vertices`` / ``ins_indptr`` / ``ins_indices`` form a small CSR
    structure over only the insert-touched vertices: vertex ``ins_vertices[i]``
    gained neighbors ``ins_indices[ins_indptr[i]:ins_indptr[i+1]]`` (each
    undirected insertion contributes to both endpoint rows).
    ``dirty_vertices`` are deletion-touched vertices whose sketches cannot be
    updated incrementally and must be resketched from ``graph``.
    """

    old_fingerprint: str
    graph: CSRGraph
    ins_vertices: np.ndarray
    ins_indptr: np.ndarray
    ins_indices: np.ndarray
    dirty_vertices: np.ndarray
    inserted_edges: np.ndarray
    deleted_edges: np.ndarray
    #: Per-delta memo shared by every consumer (see :meth:`oriented_update`).
    _oriented_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def new_fingerprint(self) -> str:
        """Fingerprint of the post-delta snapshot (the advanced cache-key component)."""
        return self.graph.fingerprint()

    def oriented_update(self, old_base: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
        """The new oriented graph plus the oriented rows that changed.

        Every consumer of one delta starts from a structurally identical old
        graph (:meth:`repro.core.ProbGraph.apply_delta` checks the
        fingerprint), so the ``O(m)`` orientation and row diff are computed
        once per delta and shared — a session holding several oriented sketch
        sets of the same graph pays the cost once, not per entry.
        """
        if "base" not in self._oriented_memo:
            new_base = self.graph.oriented()
            self._oriented_memo["base"] = new_base
            self._oriented_memo["changed"] = changed_rows(old_base, new_base)
        return self._oriented_memo["base"], self._oriented_memo["changed"]

    @property
    def num_touched_vertices(self) -> int:
        """Number of distinct vertex rows this delta touches."""
        touched = np.union1d(self.ins_vertices, self.dirty_vertices)
        return int(touched.size)

    def insertions_excluding(self, exclude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The insert-delta CSR restricted to vertices *not* in ``exclude``.

        Dirty vertices get a full row resketch, so applying their incremental
        insertions first would be redundant work; this helper drops them.
        """
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.size == 0 or self.ins_vertices.size == 0:
            return self.ins_vertices, self.ins_indptr, self.ins_indices
        keep = ~np.isin(self.ins_vertices, exclude)
        counts = np.diff(self.ins_indptr)
        flat_keep = np.repeat(keep, counts)
        kept_counts = counts[keep]
        indptr = np.concatenate([[0], np.cumsum(kept_counts)]).astype(np.int64)
        return self.ins_vertices[keep], indptr, self.ins_indices[flat_keep]


@dataclass
class DynamicStats:
    """Observable activity of one :class:`DynamicGraph`."""

    batches: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0


def _directed(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of both directed slots of each edge: every ``u → v``, then every ``v → u``."""
    return np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]])


def _row_shift(rows: np.ndarray, n: int) -> np.ndarray:
    """How far each ``indptr`` entry moves when one slot per element of ``rows`` comes or goes."""
    shift = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=shift[1:])
    return shift


class DynamicGraph:
    """A mutable undirected graph supporting batched edge insertions and deletions.

    The adjacency is a compact CSR (``indptr`` / ``indices``) whose rows are
    sorted.  A batch finds its slots by a lockstep binary search inside each
    touched row (``O(batch · log d)``), then removes slots with one
    ``np.delete`` and adds them with one ``np.insert``.  Every edit builds new
    arrays and never writes into the current ones.

    That is what lets :meth:`snapshot` hand out the current arrays themselves,
    marked read-only, as an immutable :class:`~repro.graph.csr.CSRGraph`: no
    copy, and an earlier snapshot keeps its own arrays as later batches land.
    :meth:`apply` returns the :class:`GraphDelta` the sketch/engine layers
    consume.
    """

    def __init__(self, graph: CSRGraph | None = None, num_vertices: int | None = None) -> None:
        if graph is None:
            n = int(num_vertices or 0)
            graph = CSRGraph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        elif num_vertices is not None and num_vertices != graph.num_vertices:
            raise ValueError("num_vertices conflicts with the provided graph")
        self._n = graph.num_vertices
        # Copied once, so the read-only flags snapshot() sets land on arrays we own.
        self._indptr = graph.indptr.copy()
        self._indices = graph.indices.copy()
        self._snapshot: CSRGraph | None = graph
        self._version = 0
        self.stats = DynamicStats()

    # ------------------------------------------------------------------ views
    @property
    def num_vertices(self) -> int:
        """Current number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Current number of undirected edges."""
        return self._indices.shape[0] // 2

    @property
    def version(self) -> int:
        """Monotonic structural version, bumped by every batch that changed an edge.

        Consumers holding derived state (sketch sets, shard containers) record
        the version they last saw and compare it on access: an equal version
        guarantees — in ``O(1)``, without hashing the CSR arrays — that the
        graph is exactly the one their state was built from.  A no-op batch
        (inserting present edges, deleting absent ones) does not bump it.
        """
        return self._version

    def snapshot(self) -> CSRGraph:
        """The current graph as an immutable CSR over the current, read-only arrays.

        Zero-copy: the arrays are shared, never written after they are built,
        so the snapshot stays valid while later batches replace them.
        """
        if self._snapshot is None:
            self._indptr.flags.writeable = False
            self._indices.flags.writeable = False
            self._snapshot = CSRGraph(self._n, self._indptr, self._indices)
        return self._snapshot

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        return bool(self._locate(np.asarray([u]), np.asarray([v]))[1][0])

    # -------------------------------------------------------------- mutation
    def apply(self, batch: EdgeBatch) -> GraphDelta:
        """Apply one batch (deletions first, then insertions) and return its delta."""
        old = self.snapshot()
        old_fingerprint = old.fingerprint()
        deleted = self._delete(_canonical_edges(batch.deletions))
        inserted = self._insert(_canonical_edges(batch.insertions))
        new = self.snapshot()
        ins_vertices, ins_indptr, ins_indices = self._delta_csr(inserted)
        dirty = np.unique(deleted.ravel()) if deleted.size else np.empty(0, dtype=np.int64)
        self.stats.batches += 1
        self.stats.edges_inserted += int(inserted.shape[0])
        self.stats.edges_deleted += int(deleted.shape[0])
        if inserted.shape[0] or deleted.shape[0]:
            self._version += 1
        return GraphDelta(
            old_fingerprint=old_fingerprint,
            graph=new,
            ins_vertices=ins_vertices,
            ins_indptr=ins_indptr,
            ins_indices=ins_indices,
            dirty_vertices=dirty,
            inserted_edges=inserted,
            deleted_edges=deleted,
        )

    def apply_edges(
        self,
        insertions: np.ndarray | Iterable[Iterable[int]] | None = None,
        deletions: np.ndarray | Iterable[Iterable[int]] | None = None,
    ) -> GraphDelta:
        """Convenience wrapper: apply one ad-hoc batch of raw edge arrays."""
        return self.apply(
            EdgeBatch(insertions=_as_edge_array(insertions), deletions=_as_edge_array(deletions))
        )

    # -------------------------------------------------------------- internals
    def _locate(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot positions of directed entries ``src → dst``.

        Returns ``(pos, found)``: when ``found[i]``, slot ``pos[i]`` holds the
        entry; otherwise ``pos[i]`` is the insertion point that keeps row
        ``src[i]`` sorted.  One lower-bound binary search per entry, run in
        lockstep over the whole batch inside each row's
        ``[indptr[u], indptr[u + 1])`` span.
        """
        indices = self._indices
        pos = self._indptr[src]
        end = self._indptr[src + 1]
        if indices.size == 0:
            return pos, np.zeros(src.shape[0], dtype=bool)
        last = indices.size - 1
        count = end - pos
        for _ in range(int(count.max(initial=0)).bit_length()):
            half = count >> 1
            probe = pos + half
            # An exhausted search (count 0) stays put; its probe may lie past the end.
            right = (count > 0) & (indices[np.minimum(probe, last)] < dst)
            pos = np.where(right, probe + 1, pos)
            count = np.where(right, count - half - 1, half)
        found = (pos < end) & (indices[np.minimum(pos, last)] == dst)
        return pos, found

    def _grow(self, new_n: int) -> None:
        tail = np.full(new_n - self._n, self._indptr[-1], dtype=np.int64)
        self._indptr = np.concatenate([self._indptr, tail])
        self._n = new_n
        self._snapshot = None

    def _delete(self, canon: np.ndarray) -> np.ndarray:
        """Remove the present edges of ``canon``; returns the edges actually removed."""
        canon = canon[canon[:, 1] < self._n]  # u < v, so v in range suffices
        if canon.shape[0] == 0:
            return _EMPTY_EDGES
        src, dst = _directed(canon)
        pos, found = self._locate(src, dst)
        if not np.any(found):
            return _EMPTY_EDGES
        self._indices = np.delete(self._indices, pos[found])
        self._indptr = self._indptr - _row_shift(src[found], self._n)
        self._snapshot = None
        return canon[found[: canon.shape[0]]]

    def _insert(self, canon: np.ndarray) -> np.ndarray:
        """Merge the absent edges of ``canon`` into the rows; returns the edges added."""
        if canon.shape[0] == 0:
            return _EMPTY_EDGES
        max_id = int(canon[:, 1].max())
        if max_id >= self._n:
            self._grow(max_id + 1)
        src, dst = _directed(canon)
        pos, found = self._locate(src, dst)
        if np.all(found):
            return _EMPTY_EDGES
        src, dst, pos = src[~found], dst[~found], pos[~found]
        # Slots sharing an insertion point (one gap of a row, or the end of a
        # row and the start of the next) must go in in CSR order.
        order = np.lexsort((dst, src))
        self._indices = np.insert(self._indices, pos[order], dst[order])
        self._indptr = self._indptr + _row_shift(src, self._n)
        self._snapshot = None
        return canon[~found[: canon.shape[0]]]

    @staticmethod
    def _delta_csr(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group the endpoint contributions of undirected ``edges`` by vertex."""
        if edges.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), empty
        src, dst = _directed(edges)
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        vertices, counts = np.unique(src, return_counts=True)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return vertices, indptr, dst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicGraph(n={self._n}, m={self.num_edges}, batches={self.stats.batches})"
