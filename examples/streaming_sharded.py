#!/usr/bin/env python
"""Serve-while-ingesting: stream GraphDeltas into a live sharded engine.

The streaming × sharding composition: a `DynamicGraph` absorbs edge batches
(insertions *and* deletions), and each resulting `GraphDelta` is routed
through `ShardedEngine.apply_delta` — only the touched sketch rows are
patched in place, new vertices go to the smallest shards, and the engine's LSH
index (`engine.lsh_index()`, one bucket table of global vertex IDs) re-keys
exactly those rows' bucket entries on its next read.  Queries keep being served between batches; an engine that missed a
delta raises `StaleShardError` instead of answering from stale shards.  The
patched shards stay bit-identical to a fresh sharded rebuild throughout.

Run with:  python examples/streaming_sharded.py
"""

import numpy as np

from repro import ProbGraph, ShardedEngine, StaleShardError
from repro.dynamic import DynamicGraph, EdgeBatch
from repro.graph import kronecker_graph

NUM_SHARDS = 4
BATCH_EDGES = 600
PARAMS = dict(representation="khash", k=16, seed=7)


def main() -> None:
    graph = kronecker_graph(scale=11, edge_factor=8, seed=1)
    edges = graph.edge_array()
    rng = np.random.default_rng(5)
    edges = edges[rng.permutation(edges.shape[0])]
    warmup = int(edges.shape[0] * 0.7)
    print(f"stream: n={graph.num_vertices}, {edges.shape[0]:,} edges ({warmup:,} pre-loaded)")

    # --- a live engine + LSH index over the evolving graph ------------------
    dyn = DynamicGraph(num_vertices=graph.num_vertices)
    dyn.apply_edges(insertions=edges[:warmup])
    # close() is the engine's lifecycle boundary (the reprosan segment audit
    # point); the explicit call at the end mirrors `with ShardedEngine(...)`.
    engine = ShardedEngine(dyn, NUM_SHARDS, **PARAMS)
    index = engine.lsh_index()
    print(
        f"engine: {NUM_SHARDS} shards built in {engine.construction_seconds * 1e3:.0f} ms, "
        f"LSH tables hold {index.num_entries:,} bucket entries"
    )

    # --- ingest batches, serving routed queries between them ----------------
    probes = np.argsort(graph.degrees)[-4:].astype(np.int64)
    for start in range(warmup, edges.shape[0], BATCH_EDGES):
        ins = edges[start: start + BATCH_EDGES]
        current = dyn.snapshot().edge_array()
        dels = current[rng.choice(current.shape[0], size=10, replace=False)]
        delta = dyn.apply(EdgeBatch(insertions=ins, deletions=dels))
        patched = engine.apply_delta(delta)  # patches only the touched rows
        topk = index.topk_similar_batch(probes, 3)  # first probe re-keys dirty rows
        best = ", ".join(
            f"{v}({s:.2f})" for v, s in zip(topk.indices[0], topk.scores[0]) if v >= 0
        )
        print(
            f"  +{ins.shape[0]:4d}/-{dels.shape[0]} edges -> {patched:4d} rows patched "
            f"across shards; top-3 of hub {probes[0]}: {best}"
        )

    # --- the staleness guard: unrouted mutations never serve ----------------
    missed = dyn.apply_edges(deletions=dyn.snapshot().edge_array()[:5])
    try:
        engine.pair_jaccard(probes, probes)  # the delta above was never routed
    except StaleShardError as exc:
        print(f"\nout-of-band mutation caught: {exc}")
    engine.apply_delta(missed)  # late routing recovers — no rebuild needed
    engine.pair_jaccard(probes, probes)
    print("missed delta routed late; serving resumed")

    # --- skew accounting: when to stop patching and re-shard ----------------
    skew = engine.skew_stats()
    print(
        f"\nshard skew after the stream: vertex {skew.vertex_imbalance:.2f}, "
        f"edge {skew.edge_imbalance:.2f}, update {skew.update_imbalance:.2f} "
        f"(needs_repartition={skew.needs_repartition()})"
    )
    if skew.needs_repartition():
        engine.repartition()
        print(f"repartitioned: edge imbalance now {engine.skew_stats().edge_imbalance:.2f}")

    # --- the whole point: patched shards == a fresh sharded rebuild ---------
    with ShardedEngine(dyn.snapshot(), NUM_SHARDS, **PARAMS) as fresh:
        patched_pg, fresh_pg = engine.to_probgraph(), fresh.to_probgraph()
    engine.close()
    identical = all(
        np.array_equal(getattr(patched_pg.sketches, name), getattr(fresh_pg.sketches, name))
        for name in patched_pg.sketches.storage_arrays()
    )
    single = ProbGraph(dyn.snapshot(), **PARAMS)
    identical &= all(
        np.array_equal(getattr(patched_pg.sketches, name), getattr(single.sketches, name))
        for name in single.sketches.storage_arrays()
    )
    print(
        f"\nfinal graph: {dyn.num_edges:,} edges; patched shards bit-identical to "
        f"fresh sharded rebuild AND single-process ProbGraph = {identical}"
    )


if __name__ == "__main__":
    main()
