"""Distributed-memory communication model (§VIII-F).

The paper reports that exchanging neighborhood *sketches* between compute nodes
instead of full CSR neighborhoods reduces communication time by up to ~4×,
simply because the sketches are smaller and never need to be split across
nodes.  Lacking a cluster, we model exactly that quantity: for a given graph,
partitioning, and sketch parametrization, compute the bytes each scheme must
move for the cross-partition neighborhood intersections and report the ratio.

The model assumes the point-to-point scheme the paper currently employs: for a
cut edge ``(u, v)`` owned by different nodes, one endpoint's neighborhood
representation is shipped to the other endpoint's node.  A representation is
shipped **once per (vertex, remote partition) pair** — a node that owns several
neighbors of ``u`` receives ``u``'s neighborhood or sketch a single time and
reuses it for every local cut edge, in both the exact and the sketched scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph, WORD_BITS
from ..graph.partition import partition_vertices

__all__ = ["CommunicationVolume", "communication_volume", "pair_shipments", "partition_vertices"]


@dataclass(frozen=True)
class CommunicationVolume:
    """Bytes moved across the network by the exact and sketched executions."""

    num_partitions: int
    cut_edges: int
    shipments: int
    csr_bytes: float
    sketch_bytes: float

    @property
    def reduction_factor(self) -> float:
        """How many times less data the sketched execution moves (the paper reports up to ~4×)."""
        return self.csr_bytes / self.sketch_bytes if self.sketch_bytes > 0 else float("inf")


def pair_shipments(
    u: np.ndarray, v: np.ndarray, owners: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The routing rule of the point-to-point model, applied to a pair list.

    A pair whose endpoints live on different partitions is *cut*: the
    lower-degree endpoint's representation (the first endpoint's on ties) is
    shipped to the other endpoint's partition.  Shipments are deduplicated to
    one per ``(vertex, destination partition)``.  Returns the cut mask and the
    shipped vertex of every unique shipment, ordered by destination, then
    vertex.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    ou, ov = owners[u], owners[v]
    cut = ou != ov
    ship_u = degrees[u[cut]] <= degrees[v[cut]]
    shipped = np.where(ship_u, u[cut], v[cut])
    destination = np.where(ship_u, ov[cut], ou[cut])
    n = owners.shape[0]
    # np.unique of this 1-D key would hash; a sort plus an adjacent-difference
    # mask gives the same sorted unique keys several times faster.
    keys = np.sort(destination * n + shipped)
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return cut, keys[first] % n


def communication_volume(
    graph: CSRGraph,
    num_partitions: int = 4,
    sketch_bits_per_vertex: int = 1024,
    owners: np.ndarray | None = None,
    seed: int = 0,
) -> CommunicationVolume:
    """Communication volume of the exact vs the sketched distributed execution.

    For every cut edge the smaller-degree endpoint's representation is shipped
    to the other endpoint's partition: the full sorted neighborhood (``d_v``
    words) for the exact execution, the fixed-size sketch
    (``sketch_bits_per_vertex``) for ProbGraph.  Shipments are deduplicated to
    one per ``(vertex, destination partition)`` pair — several cut edges from
    ``u`` into one partition move ``u``'s representation only once — so the
    reported volumes follow the paper's point-to-point model instead of
    double-charging hub vertices (:func:`pair_shipments`).
    """
    if owners is None:
        owners = partition_vertices(graph, num_partitions, seed)
    owners = np.asarray(owners, dtype=np.int64)
    if owners.shape[0] != graph.num_vertices:
        raise ValueError("owners must assign every vertex")
    edges = graph.edge_array()
    degs = graph.degrees.astype(np.float64)
    cut, shipped = pair_shipments(edges[:, 0], edges[:, 1], owners, degs)
    csr_bytes = float(np.sum(degs[shipped]) * WORD_BITS / 8.0)
    sketch_bytes = float(shipped.shape[0] * sketch_bits_per_vertex / 8.0)
    return CommunicationVolume(
        num_partitions, int(np.count_nonzero(cut)), int(shipped.shape[0]), csr_bytes, sketch_bytes
    )
