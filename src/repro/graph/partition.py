"""Vertex partitioning for sharded and distributed execution (§VIII-F).

The paper's distributed argument rests on a vertex partitioning: each compute
node owns a subset of the vertices (and their fixed-size neighborhood
sketches), and only cut pairs move data.  This module provides the two
partitioners the sharded engine and the communication model share:

* **random-hash** (:func:`partition_vertices`) — balanced random assignment,
  the common default of distributed graph frameworks; maximally simple, but
  oblivious to locality, so almost every edge is cut at high shard counts;
* **locality-aware BFS** (:func:`partition_vertices_locality`) — a BFS
  traversal order chopped into equal contiguous chunks, so each shard owns a
  breadth-first-grown region of the graph and far fewer edges cross shards.

Both return an ``owners`` array; :func:`partition_graph` wraps one of them
into the :class:`ShardPartition` the sharded engine prices queries with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, ragged_gather

__all__ = [
    "ShardPartition",
    "partition_graph",
    "partition_from_owners",
    "partition_vertices",
    "partition_vertices_locality",
]


def partition_vertices(graph: CSRGraph, num_partitions: int, seed: int = 0) -> np.ndarray:
    """Random balanced vertex partitioning (hash partitioning, the common default)."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    rng = np.random.default_rng(seed)
    owners = np.arange(graph.num_vertices, dtype=np.int64) % num_partitions
    rng.shuffle(owners)
    return owners


def partition_vertices_locality(graph: CSRGraph, num_partitions: int, seed: int = 0) -> np.ndarray:
    """Locality-aware balanced partitioning: BFS order cut into contiguous chunks.

    A breadth-first traversal (seeded root per component) visits neighbors
    together, so chopping the visit order into ``ceil(n / p)``-sized chunks
    assigns each shard a connected-ish region — typically far fewer cut edges
    than hash partitioning on graphs with community structure, which is what
    makes the sketched communication volume of §VIII-F drop further.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    n = graph.num_vertices
    owners = np.zeros(n, dtype=np.int64)
    if n == 0 or num_partitions == 1:
        return owners
    rng = np.random.default_rng(seed)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    filled = 0
    degrees = graph.degrees
    # Seeded root order with a cursor: each vertex is inspected once as a root
    # candidate, so fragmented graphs (many components, isolated vertices)
    # stay O(n + m) instead of rescanning the visited mask per component.
    root_order = rng.permutation(n)
    cursor = 0
    while filled < n:
        while visited[root_order[cursor]]:
            cursor += 1
        root = int(root_order[cursor])
        frontier = np.asarray([root], dtype=np.int64)
        visited[root] = True
        while frontier.size:
            order[filled:filled + frontier.size] = frontier
            filled += frontier.size
            flat = ragged_gather(graph.indptr[frontier], degrees[frontier])
            candidates = np.unique(graph.indices[flat])
            nxt = candidates[~visited[candidates]]
            visited[nxt] = True
            frontier = nxt
    chunk = math.ceil(n / num_partitions)
    owners[order] = np.arange(n, dtype=np.int64) // chunk
    return owners


@dataclass(frozen=True)
class ShardPartition:
    """A vertex partitioning: ``owners[v]`` is the shard owning vertex ``v``."""

    owners: np.ndarray
    num_shards: int

    @property
    def num_vertices(self) -> int:
        """Number of partitioned vertices."""
        return self.owners.shape[0]

    def shard_of(self, v: int) -> int:
        """The shard owning vertex ``v``."""
        return int(self.owners[int(v)])

    def shard_sizes(self) -> np.ndarray:
        """Number of vertices owned by each shard."""
        return np.bincount(self.owners, minlength=self.num_shards).astype(np.int64)

    def cut_fraction(self, graph: CSRGraph) -> float:
        """Fraction of ``graph``'s edges whose endpoints live on different shards."""
        edges = graph.edge_array()
        if edges.shape[0] == 0:
            return 0.0
        cut = self.owners[edges[:, 0]] != self.owners[edges[:, 1]]
        return float(np.count_nonzero(cut)) / float(edges.shape[0])

    def assign_balanced(self, num_new: int) -> np.ndarray:
        """Owners for ``num_new`` vertices appended after the current ones.

        Each new vertex goes to the currently smallest shard (lowest shard ID
        on ties) — a deterministic greedy balance, so a delta that grows the
        graph never concentrates the new rows on one shard.  Pair with
        :meth:`extend`.
        """
        if num_new < 0:
            raise ValueError("num_new must be non-negative")
        sizes = self.shard_sizes()
        owners = np.empty(num_new, dtype=np.int64)
        for i in range(num_new):
            s = int(np.argmin(sizes))
            owners[i] = s
            sizes[s] += 1
        return owners

    def extend(self, new_owners: np.ndarray) -> "ShardPartition":
        """A partition over ``num_vertices + len(new_owners)`` vertices.

        The new vertices carry IDs above every existing one; every existing
        vertex keeps its owner.
        """
        new_owners = np.asarray(new_owners, dtype=np.int64).ravel()
        if new_owners.size == 0:
            return self
        if new_owners.min() < 0 or new_owners.max() >= self.num_shards:
            raise ValueError("new owners must lie in [0, num_shards)")
        return ShardPartition(np.concatenate([self.owners, new_owners]), self.num_shards)


def partition_graph(
    graph: CSRGraph,
    num_shards: int,
    method: str = "hash",
    seed: int = 0,
) -> ShardPartition:
    """Partition ``graph``'s vertices into ``num_shards`` shards.

    ``method`` selects :func:`partition_vertices` (``"hash"``, the default) or
    :func:`partition_vertices_locality` (``"locality"`` / ``"bfs"``).  Every
    shard receives at least the floor share of vertices under ``"hash"``;
    empty shards are possible only when ``num_shards > n``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if method == "hash":
        owners = partition_vertices(graph, num_shards, seed)
    elif method in ("locality", "bfs"):
        owners = partition_vertices_locality(graph, num_shards, seed)
    else:
        raise ValueError(f"unknown partition method {method!r}; expected 'hash' or 'locality'")
    return partition_from_owners(owners, num_shards)


def partition_from_owners(owners: np.ndarray, num_shards: int | None = None) -> ShardPartition:
    """Build a :class:`ShardPartition` from an ``owners`` array."""
    owners = np.asarray(owners, dtype=np.int64)
    if num_shards is None:
        num_shards = int(owners.max()) + 1 if owners.size else 1
    if owners.size and (owners.min() < 0 or owners.max() >= num_shards):
        raise ValueError("owners must lie in [0, num_shards)")
    return ShardPartition(owners, int(num_shards))
