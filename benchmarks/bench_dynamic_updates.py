"""Dynamic updates — incremental sketch maintenance vs rebuild-per-batch.

The dynamic-graph subsystem's performance claim: on a long edge stream,
patching only the touched sketch rows per batch
(:meth:`repro.engine.PGSession.apply_delta`) beats rebuilding the whole sketch
set per batch (the only option before the subsystem existed) by a wide margin
— here asserted at **>= 5x** over a 100k-edge stream in 1k-edge batches —
while the patched sketches and every batch pair-query over them stay
*bit-identical* to a fresh build on the final graph.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import ProbGraph
from repro.core.probgraph import resolve_sketch_params
from repro.dynamic import DynamicGraph, EdgeStream
from repro.engine import EngineConfig, PGSession, batched_pair_intersections
from repro.graph import kronecker_graph

BATCH_EDGES = 1_000
STREAM_EDGES = 100_000
WARMUP_FRACTION = 0.2


@pytest.fixture(scope="module")
def stream_workload():
    """A 100k-edge stream over a skewed Kronecker graph, 20% pre-loaded."""
    full = kronecker_graph(scale=13, edge_factor=16, seed=5)
    edges = full.edge_array()
    rng = np.random.default_rng(23)
    edges = edges[rng.permutation(edges.shape[0])][:STREAM_EDGES]
    warmup = int(edges.shape[0] * WARMUP_FRACTION)
    params = dict(
        representation="bloom",
        num_bits=resolve_sketch_params(full, "bloom", storage_budget=0.25).num_bits,
        num_hashes=2,
        seed=3,
    )
    return full.num_vertices, edges, warmup, params


def _bootstrap(num_vertices: int, edges: np.ndarray, warmup: int) -> DynamicGraph:
    dyn = DynamicGraph(num_vertices=num_vertices)
    dyn.apply_edges(insertions=edges[:warmup])
    return dyn


def test_incremental_beats_rebuild_per_batch(stream_workload, benchmark):
    """Per-batch sketch maintenance: `session.apply_delta` vs cold session rebuild.

    Both paths pay the identical graph-side batch application (`dyn.apply`),
    so the timed quantity is what differs between them: advancing the
    session's queryable sketch state to the new snapshot — patching the
    touched rows of the cached set (incremental) vs constructing and caching
    a brand-new sketch set (rebuild-per-batch, the only option before the
    dynamic subsystem existed).  End-to-end totals are printed alongside.
    """
    num_vertices, edges, warmup, params = stream_workload
    stream = list(EdgeStream.insert_only(edges[warmup:], batch_size=BATCH_EDGES))

    # --- incremental path: patch the session-cached sketch set per batch ----
    def run_incremental():
        dyn = _bootstrap(num_vertices, edges, warmup)
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), **params)
        maintenance = graph_side = 0.0
        for batch in stream:
            start = time.perf_counter()
            delta = dyn.apply(batch)
            mid = time.perf_counter()
            session.apply_delta(delta)
            graph_side += mid - start
            maintenance += time.perf_counter() - mid
        return pg, maintenance, graph_side

    pg_patched, incremental_seconds, graph_seconds = benchmark.pedantic(
        run_incremental, rounds=3, iterations=1
    )

    # --- baseline: rebuild + re-cache the whole sketch set per batch --------
    dyn = _bootstrap(num_vertices, edges, warmup)
    rebuild_session = PGSession(max_entries=1)  # keep only the current sketch set
    pg_rebuilt = rebuild_session.probgraph(dyn.snapshot(), **params)
    rebuild_seconds = graph_seconds_rebuild = 0.0
    for batch in stream:
        start = time.perf_counter()
        dyn.apply(batch)
        mid = time.perf_counter()
        pg_rebuilt = rebuild_session.probgraph(dyn.snapshot(), **params)
        graph_seconds_rebuild += mid - start
        rebuild_seconds += time.perf_counter() - mid

    speedup = rebuild_seconds / incremental_seconds
    end_to_end = (graph_seconds_rebuild + rebuild_seconds) / (graph_seconds + incremental_seconds)
    print()
    print(
        f"{len(stream)} batches x {BATCH_EDGES} edges "
        f"(graph-side batch application: ~{graph_seconds / len(stream) * 1e3:.2f} ms/batch, "
        f"identical in both paths):\n"
        f"  incremental maintenance  {incremental_seconds / len(stream) * 1e3:6.2f} ms/batch "
        f"({incremental_seconds * 1e3:.0f} ms total)\n"
        f"  rebuild-per-batch        {rebuild_seconds / len(stream) * 1e3:6.2f} ms/batch "
        f"({rebuild_seconds * 1e3:.0f} ms total)\n"
        f"  -> {speedup:.1f}x maintenance speedup ({end_to_end:.1f}x end-to-end incl. graph side)"
    )
    assert speedup >= 5.0, f"incremental maintenance only {speedup:.1f}x faster than rebuild"

    # --- bit-identity: sketches AND batch pair-queries ----------------------
    assert np.array_equal(pg_patched.sketches.words, pg_rebuilt.sketches.words)
    assert np.array_equal(pg_patched.sketches.exact_sizes, pg_rebuilt.sketches.exact_sizes)
    rng = np.random.default_rng(99)
    u = rng.integers(0, num_vertices, size=200_000).astype(np.int64)
    v = rng.integers(0, num_vertices, size=200_000).astype(np.int64)
    config = EngineConfig(memory_budget_bytes=8 << 20)
    patched_ests = batched_pair_intersections(pg_patched, u, v, config=config)
    fresh_ests = batched_pair_intersections(pg_rebuilt, u, v, config=config)
    assert np.array_equal(patched_ests, fresh_ests)


def test_deletion_batch_timing(stream_workload, benchmark):
    """Deletion batches on the fully loaded graph: graph side and row patches, per batch."""
    num_vertices, edges, warmup, params = stream_workload
    dyn = _bootstrap(num_vertices, edges, edges.shape[0])  # fully loaded
    session = PGSession()
    session.probgraph(dyn.snapshot(), **params)
    rng = np.random.default_rng(4)
    batches = [
        edges[rng.choice(edges.shape[0], size=500, replace=False)] for _ in range(8)
    ]

    def delete_stream():
        graph_side = maintenance = 0.0
        for batch in batches:
            start = time.perf_counter()
            delta = dyn.apply_edges(deletions=batch)
            mid = time.perf_counter()
            session.apply_delta(delta)
            graph_side += mid - start
            maintenance += time.perf_counter() - mid
        return graph_side, maintenance

    graph_seconds, maintenance_seconds = benchmark.pedantic(delete_stream, rounds=1, iterations=1)
    print()
    print(
        f"{len(batches)} deletion batches of 500 edges: {dyn.num_edges} edges left; "
        f"graph side {graph_seconds / len(batches) * 1e3:.2f} ms/batch, "
        f"row patches {maintenance_seconds / len(batches) * 1e3:.2f} ms/batch"
    )
