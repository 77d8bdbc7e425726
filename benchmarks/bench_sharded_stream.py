#!/usr/bin/env python
"""Streaming deltas × sharded serving — routed patches vs rebuild-per-batch.

Before :meth:`repro.engine.ShardedEngine.apply_delta`, an evolving graph and a
sharded engine did not compose: every :class:`~repro.dynamic.GraphDelta`
forced a full rebuild of all shard containers (and of any LSH index over
them).  This benchmark replays a ~1M-edge Kronecker stream (20% pre-loaded,
the rest applied in fixed-size batches with periodic deletions) against a
live ``ShardedEngine`` and its ``lsh_index()`` and measures, per batch,

* **incremental**: ``engine.apply_delta(delta)`` — split the delta by shard
  owners, patch only the touched rows in place and mark them on the LSH
  index, which re-keys only those bucket entries on the next serve (that
  deferred splice is charged to the incremental side too);
* **rebuild**: constructing a fresh ``ShardedEngine`` (its rows hashed in
  parallel threads) + LSH index on the new snapshot, sampled at a few stream
  positions and extrapolated.

Queries are served between batches (routed pair-Jaccard + LSH top-k) to
exercise the serve-while-ingesting shape.  The script always asserts the
patched shards are **bit-identical** to a fresh sharded rebuild on the final
graph, and in full mode asserts **≥ 5×** incremental-vs-rebuild stream
throughput and appends a timestamped run record to the
``BENCH_sharded_stream.json`` trajectory (see ``benchmarks/_trajectory.py``).
``--smoke`` caps the workload for CI and skips both.

Run with:
    python benchmarks/bench_sharded_stream.py            # full: ~1M-edge stream
    python benchmarks/bench_sharded_stream.py --smoke    # capped CI smoke run
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from _trajectory import append_run
from repro.dynamic import DynamicGraph, EdgeBatch
from repro.engine import ShardedEngine
from repro.graph import kronecker_graph

MIN_FULL_EDGES = 900_000
REQUIRED_SPEEDUP = 5.0
WARMUP_FRACTION = 0.2
DELETIONS_EVERY = 5
DELETIONS_PER_BATCH = 20
SERVE_EVERY = 10
REBUILD_SAMPLES = 3


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="capped CI run (small graph)")
    parser.add_argument("--scale", type=int, default=17, help="Kronecker scale (default 17)")
    parser.add_argument("--edge-factor", type=int, default=8, help="Kronecker edge factor (default 8)")
    parser.add_argument("--shards", type=int, default=4, help="vertex shards (default 4)")
    parser.add_argument("--batch-edges", type=int, default=10_000, help="insertions per batch (default 10000)")
    parser.add_argument("--k-slots", type=int, default=16, help="k-hash signature slots (default 16)")
    parser.add_argument("--seed", type=int, default=3, help="sketch seed")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sharded_stream.json",
        help="trajectory JSON path (default: repo root BENCH_sharded_stream.json)",
    )
    return parser.parse_args()


def _sketch_payload(pg) -> dict[str, np.ndarray]:
    return pg.sketches.storage_arrays()


def main() -> None:
    args = parse_args()
    if args.smoke:
        args.scale, args.batch_edges = 11, 2_000
    graph = kronecker_graph(scale=args.scale, edge_factor=args.edge_factor, seed=1)
    edges = graph.edge_array()
    rng = np.random.default_rng(23)
    edges = edges[rng.permutation(edges.shape[0])]
    print(
        f"stream: n={graph.num_vertices:,}, {edges.shape[0]:,} edges "
        f"({'smoke' if args.smoke else 'full'} mode, {args.shards} shards)"
    )
    if not args.smoke:
        assert edges.shape[0] >= MIN_FULL_EDGES, "full mode needs a ~1M-edge stream"

    warmup = int(edges.shape[0] * WARMUP_FRACTION)
    starts = list(range(warmup, edges.shape[0], args.batch_edges))
    num_batches = len(starts)
    samples = REBUILD_SAMPLES if not args.smoke else 1
    sample_at = set(
        int(i) for i in np.linspace(0, num_batches - 1, num=min(samples, num_batches))
    )
    params = dict(representation="khash", k=args.k_slots, seed=args.seed)

    dyn = DynamicGraph(num_vertices=graph.num_vertices)
    dyn.apply_edges(insertions=edges[:warmup])
    start = time.perf_counter()
    engine = ShardedEngine(dyn, args.shards, **params)
    index = engine.lsh_index()
    initial_build_seconds = time.perf_counter() - start
    print(
        f"initial build: {initial_build_seconds * 1e3:8.1f} ms "
        f"({warmup:,} warmup edges, {index.num_entries:,} bucket entries)"
    )

    incremental_seconds = 0.0
    rebuild_times: list[float] = []
    patched_rows = edges_streamed = edges_deleted = queries_served = 0
    for bi, batch_start in enumerate(starts):
        ins = edges[batch_start: batch_start + args.batch_edges]
        dels = None
        if bi % DELETIONS_EVERY == 0:
            current = dyn.snapshot().edge_array()
            dels = current[
                rng.choice(
                    current.shape[0],
                    size=min(DELETIONS_PER_BATCH, current.shape[0]),
                    replace=False,
                )
            ]
            edges_deleted += dels.shape[0]
        delta = dyn.apply(EdgeBatch(insertions=ins, deletions=dels))
        t0 = time.perf_counter()
        patched_rows += engine.apply_delta(delta)
        incremental_seconds += time.perf_counter() - t0
        edges_streamed += ins.shape[0]
        if bi % SERVE_EVERY == 0:
            # Serve-while-ingesting: routed pair queries + LSH top-k stay
            # available between batches (the staleness guard would raise
            # had the delta not been routed above).  The first probe after
            # a burst of deltas flushes the index's deferred re-keys, so
            # serve time is charged to the incremental side.
            sample = edges[batch_start: batch_start + 256]
            t0 = time.perf_counter()
            engine.pair_jaccard(sample[:, 0], sample[:, 1])
            index.topk_similar_batch(sample[:8, 0], 10)
            incremental_seconds += time.perf_counter() - t0
            queries_served += 2
        if bi in sample_at:
            t0 = time.perf_counter()
            with ShardedEngine(dyn.snapshot(), args.shards, **params) as fresh:
                fresh.lsh_index()
                rebuild_times.append(time.perf_counter() - t0)

    # Flush the tail window's deferred LSH re-keys on the clock, so the
    # incremental side pays for every entry the rebuild side has.
    t0 = time.perf_counter()
    bucket_entries = index.num_entries
    incremental_seconds += time.perf_counter() - t0

    # --- correctness: patched shards == fresh sharded rebuild -----------
    with ShardedEngine(dyn.snapshot(), args.shards, **params) as fresh:
        patched_pg, fresh_pg = engine.to_probgraph(), fresh.to_probgraph()
    for name, arr in _sketch_payload(patched_pg).items():
        assert np.array_equal(arr, _sketch_payload(fresh_pg)[name]), name
    print(
        f"bit-identity: patched shards == fresh sharded rebuild on the final "
        f"graph ({dyn.num_edges:,} edges) across {len(patched_pg.sketches.storage_arrays())} row arrays"
    )
    engine.close()

    rebuild_per_batch = float(np.mean(rebuild_times))
    rebuild_total = rebuild_per_batch * num_batches
    speedup = rebuild_total / incremental_seconds
    inc_eps = edges_streamed / incremental_seconds
    reb_eps = edges_streamed / rebuild_total
    print(
        f"incremental: {incremental_seconds * 1e3:8.1f} ms for {num_batches} batches "
        f"({patched_rows:,} rows patched, {inc_eps:,.0f} edges/s)"
    )
    print(
        f"rebuild/bat: {rebuild_per_batch * 1e3:8.1f} ms x {num_batches} batches "
        f"= {rebuild_total * 1e3:8.1f} ms ({reb_eps:,.0f} edges/s) "
        f"->  {speedup:.1f}x"
    )
    skew = engine.skew_stats()
    print(
        f"shard skew: vertex {skew.vertex_imbalance:.3f}, edge "
        f"{skew.edge_imbalance:.3f}, update {skew.update_imbalance:.3f} "
        f"(needs_repartition={skew.needs_repartition()})"
    )

    payload = {
        "graph": {"scale": args.scale, "edge_factor": args.edge_factor,
                  "num_vertices": graph.num_vertices, "num_edges": int(edges.shape[0])},
        "params": {"shards": args.shards, "batch_edges": args.batch_edges,
                   "k_slots": args.k_slots, "seed": args.seed,
                   "warmup_edges": warmup, "num_batches": num_batches},
        "initial_build_seconds": initial_build_seconds,
        "incremental_seconds": incremental_seconds,
        "rebuild_per_batch_seconds": rebuild_per_batch,
        "rebuild_samples": len(rebuild_times),
        "speedup": speedup,
        "edges_streamed": edges_streamed,
        "edges_deleted": edges_deleted,
        "patched_rows": patched_rows,
        "queries_served": queries_served,
        "bucket_entries": bucket_entries,
        "incremental_edges_per_second": inc_eps,
        "update_imbalance": skew.update_imbalance,
    }
    if args.smoke:
        print(
            f"smoke mode: trajectory write and speedup assertion skipped "
            f"(measured {speedup:.1f}x on the capped workload)"
        )
    else:
        doc = append_run(args.output, "sharded_stream_throughput", payload)
        print(f"appended run {len(doc['runs'])} to {args.output}")
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x incremental-vs-rebuild stream "
            f"throughput, measured {speedup:.2f}x"
        )
        print(f"PASS: >= {REQUIRED_SPEEDUP}x incremental-vs-rebuild stream throughput")


if __name__ == "__main__":
    main()
