"""Dynamic graphs: batched edge streams, graph deltas, incremental sketch maintenance.

The layer between the immutable CSR substrate and the engine for
streaming/evolving-graph workloads:

* :class:`DynamicGraph` keeps a compact, row-sorted CSR, applies batched
  edge deletions (one ``np.delete``) and insertions (one ``np.insert``) at
  slots found by a per-row binary search, and emits a :class:`GraphDelta`
  per batch;
* :class:`GraphDelta` carries the new :class:`~repro.graph.CSRGraph` snapshot
  (the graph's read-only arrays, shared without a copy),
  the per-vertex inserted neighbors, and the deletion-touched vertices;
* :meth:`repro.core.ProbGraph.apply_delta` and
  :meth:`repro.engine.PGSession.apply_delta` consume deltas to patch sketch
  sets in place — bit-identical to a fresh rebuild on the new graph, at the
  cost of only the touched rows.

See ``docs/architecture.md`` ("Dynamic graphs and delta patching") and
``examples/streaming_tc.py``.
"""

from .graph import (
    DynamicGraph,
    DynamicStats,
    EdgeBatch,
    EdgeStream,
    GraphDelta,
    changed_rows,
)

__all__ = [
    "DynamicGraph",
    "DynamicStats",
    "EdgeBatch",
    "EdgeStream",
    "GraphDelta",
    "changed_rows",
]
