#!/usr/bin/env python
"""Thread-parallel sketch construction — wall-clock speedup + bit-identity.

The performance claim: a :class:`~repro.core.ProbGraph` build that splits its
rows into contiguous ranges hashed in parallel threads (one range per
``2**19`` adjacency slots, up to the CPUs the caller may run on) beats the
one-thread build on the wall clock.  The per-row hashing work is
embarrassingly parallel, and NumPy's hashing kernels release the GIL, so the
threads hash at the same time; the Python glue between kernel calls still
takes the GIL, which keeps the speedup below the thread count.  The baseline
is the same constructor with the calling thread pinned to one CPU, which
makes it build in one range.  The correctness claim rides along: the
threaded build and every routed query of a :class:`ShardedEngine` over it
are **bit-identical** to the one-thread path, and the rows the engine ships
for cut pairs match the §VIII-F communication model exactly.

Default workload: a scale-16 Kronecker graph (≥500k edges, ~2.2M adjacency
slots, enough for 4 ranges) and a Bloom build at ``b = 32`` hash functions —
Table V prices construction at ``O(b·m)`` hash evaluations, so the ``b`` knob
scales pure construction work linearly while the fixed-size output keeps the
concatenation cost negligible (unlike wide MinHash signatures, whose copy
would blur the construction measurement).  When the build runs at least 4
threads (on a machine that lets the caller run on ≥4 CPUs) the script
asserts a **≥2×** construction speedup; with fewer threads (or with
``--smoke``, or where the calling thread cannot be pinned) it still asserts
bit-identity and shipment accounting and reports the timings.

Run with:
    python benchmarks/bench_sharded.py            # full: 500k+ edges, 4 shards
    python benchmarks/bench_sharded.py --smoke    # capped CI smoke run
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core import ProbGraph
from repro.core.probgraph import _SLOTS_PER_RANGE
from repro.engine import ShardedEngine
from repro.graph import kronecker_graph

MIN_FULL_EDGES = 500_000
REQUIRED_SPEEDUP = 2.0
REQUIRED_THREADS = 4  # the speedup gate applies from this many build threads


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="capped CI run (small graph, 2 shards)")
    parser.add_argument(
        "--shards", type=int, default=4,
        help="vertex shards the engine prices queries over; sets the partition only (default 4)",
    )
    parser.add_argument("--scale", type=int, default=16, help="Kronecker scale (default 16)")
    parser.add_argument("--edge-factor", type=int, default=20, help="Kronecker edge factor (default 20)")
    parser.add_argument("--representation", default="bloom", help="sketch family (default bloom)")
    parser.add_argument(
        "--num-hashes", type=int, default=32,
        help="Bloom hash count b — construction work is O(b*m) (default 32)",
    )
    parser.add_argument("--k", type=int, default=128, help="MinHash/KMV sketch size (non-Bloom families)")
    parser.add_argument("--seed", type=int, default=3, help="sketch seed")
    return parser.parse_args()


def best_of(fn, repeats: int = 2) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs (steadier than a single sample)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def one_cpu_build(graph, params: dict) -> ProbGraph:
    """A ``ProbGraph`` built with the calling thread pinned to one CPU (one range).

    Where the platform cannot pin a thread, the build runs unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return ProbGraph(graph, **params)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return ProbGraph(graph, **params)
    finally:
        os.sched_setaffinity(0, allowed)


def main() -> None:
    args = parse_args()
    if args.smoke:
        args.scale, args.edge_factor, args.shards = 10, 8, 2
        args.num_hashes, args.k = 4, 32
    shards = args.shards
    graph = kronecker_graph(scale=args.scale, edge_factor=args.edge_factor, seed=1)
    slots = graph.indices.shape[0]
    print(
        f"graph: n={graph.num_vertices:,}, m={graph.num_edges:,}, {slots:,} adjacency slots "
        f"({'smoke' if args.smoke else 'full'} mode, {os.cpu_count()} CPUs visible)"
    )
    if not args.smoke:
        assert graph.num_edges >= MIN_FULL_EDGES, "full mode needs a >=500k-edge graph"
        assert slots >= REQUIRED_THREADS * _SLOTS_PER_RANGE, (
            f"full mode needs >= {REQUIRED_THREADS * _SLOTS_PER_RANGE:,} adjacency slots "
            f"for a {REQUIRED_THREADS}-thread build"
        )
    params = dict(representation=args.representation, seed=args.seed)
    if args.representation == "bloom":
        params["num_hashes"] = args.num_hashes
    else:
        params["k"] = args.k

    single_seconds, pg = best_of(lambda: one_cpu_build(graph, params))
    print(f"one-CPU construction:        {single_seconds * 1e3:8.1f} ms (build_threads={pg.build_threads})")

    def sharded_build() -> ShardedEngine:
        return ShardedEngine(graph, shards, **params)

    sharded_seconds, engine = best_of(sharded_build)
    speedup = single_seconds / sharded_seconds
    threads = engine.build_threads
    print(
        f"threaded construction:       {sharded_seconds * 1e3:8.1f} ms "
        f"(build_threads={threads}; engine over {shards} shards)  ->  {speedup:.2f}x"
    )
    for name, arr in pg.sketches.storage_arrays().items():
        assert np.array_equal(getattr(engine.sketches, name), arr), name
    print("bit-identity: the threaded rows equal the one-thread rows")

    # --- bit-identity: routed queries == single-process queries --------------
    rng = np.random.default_rng(9)
    u = rng.integers(0, graph.num_vertices, size=20_000).astype(np.int64)
    v = rng.integers(0, graph.num_vertices, size=20_000).astype(np.int64)
    assert np.array_equal(engine.pair_intersections(u, v), pg.pair_intersections(u, v))
    merged = engine.to_probgraph()
    assert np.array_equal(merged.pair_intersections(u, v), pg.pair_intersections(u, v))
    print("bit-identity: sharded queries and merged ProbGraph match single-process")

    # --- shipment accounting == the §VIII-F communication model --------------
    edges = graph.edge_array()
    engine.comm.reset()
    engine.pair_intersections(edges[:, 0], edges[:, 1])
    model = engine.communication_model()
    assert engine.comm.shipments == model.shipments
    assert engine.comm.sketch_bytes == model.sketch_bytes
    print(
        f"communication: {engine.comm.shipments:,} shipments, "
        f"{engine.comm.sketch_bytes / 1e6:.1f} MB sketches moved "
        f"(model agrees; exact CSR would move {model.csr_bytes / 1e6:.1f} MB, "
        f"{model.reduction_factor:.1f}x more)"
    )

    engine.close()
    if args.smoke:
        print("smoke mode: speedup assertion skipped (capped workload)")
    elif pg.build_threads > 1:
        print(
            "NOTE: os.sched_setaffinity is unavailable, so the baseline build could "
            f"not be pinned to one thread — speedup gate skipped (measured {speedup:.2f}x)"
        )
    elif threads >= REQUIRED_THREADS:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x construction speedup at "
            f"{threads} threads, measured {speedup:.2f}x"
        )
        print(f"PASS: >= {REQUIRED_SPEEDUP}x construction speedup at {threads} threads")
    else:
        print(
            f"NOTE: the build ran {threads} threads < {REQUIRED_THREADS} — "
            f"speedup assertion skipped (measured {speedup:.2f}x)"
        )


if __name__ == "__main__":
    main()
