#!/usr/bin/env python
"""LSH banding index vs full-scan top-k — speedup with a measured recall floor.

The serving claim of :mod:`repro.engine.lsh`: slicing the k-hash signature
matrix into ``b`` bands × ``r`` rows and scoring **only the colliding
candidates** turns the per-query cost from ``O(n)`` (every vertex is a
candidate) into ``O(candidates)``, while the S-curve collision bound keeps
candidate recall against the full-scan reference high.  At the recall-heavy
default split (``r = 1``) any pair sharing one signature slot collides, so
every pair the k-hash estimator scores above zero is guaranteed to be a
candidate — recall of the servable pairs is exactly 1.0 by construction, and
this script *measures* it instead of trusting the argument.

Default workload: a Kronecker graph with ≥100k vertices, k-hash signatures at
``k = 16``, and a sampled query batch answered by the streaming full scan
(`topk_per_source`, the exact reference restricted to nothing) and through
the banding index, each timed over 7 repeats.  The script asserts

* every served row equals the full scan restricted to that source's
  candidates (``topk_per_source`` over ``query_candidates``), bit for bit;
* the exact answer (``exact=True``, which a k-hash index with one slot per
  band serves from its band tables) equals the full scan bit for bit;
* candidate recall ≥ 0.9 over the reference's nonzero-scoring top-k pairs
  (measured, at the default ``(b, r)``), and
* ≥ 5× per-query speedup over the full scan, as a ratio of medians,

then appends a timestamped run record, with each path's median and
interquartile range and the environment, to the ``BENCH_lsh.json``
trajectory (see ``benchmarks/_trajectory.py``); the exact answer's speedup
over the scan is printed and recorded, not asserted.  ``--smoke`` caps the
workload for CI and skips the trajectory write and the wall-clock assertion
(the served rows, the exact answer and recall are still asserted — they are
deterministic, not load-dependent).

Run with:
    python benchmarks/bench_lsh.py            # full: >=100k vertices
    python benchmarks/bench_lsh.py --smoke    # capped CI smoke run
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from _trajectory import append_run
from repro.core import ProbGraph
from repro.engine import LSHIndex, TopKResult, topk_per_source
from repro.graph import kronecker_graph

MIN_FULL_VERTICES = 100_000
REQUIRED_SPEEDUP = 5.0
REQUIRED_RECALL = 0.9
#: Timed runs of each path; the record keeps their median and quartiles.
REPEATS = 7


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="capped CI run (small graph)")
    parser.add_argument("--scale", type=int, default=17, help="Kronecker scale (default 17)")
    parser.add_argument("--edge-factor", type=int, default=8, help="Kronecker edge factor (default 8)")
    parser.add_argument("--k-slots", type=int, default=16, help="k-hash signature slots (default 16)")
    parser.add_argument("--topk", type=int, default=10, help="neighbors retrieved per query (default 10)")
    parser.add_argument("--queries", type=int, default=64, help="sampled query sources (default 64)")
    parser.add_argument("--seed", type=int, default=3, help="sketch seed")
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_lsh.json",
        help="measurement JSON path (default: repo root BENCH_lsh.json)",
    )
    return parser.parse_args()


def timed(fn: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """``fn()``'s result and its wall time over :data:`REPEATS` runs, in seconds."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return result, {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def check_against_oracle(
    pg: ProbGraph, index: LSHIndex, sources: np.ndarray, k: int, result: TopKResult
) -> None:
    """Each served row must equal the full scan over that source's candidates."""
    width = min(k, pg.num_vertices)
    for row, s in enumerate(sources):
        candidates = index.query_candidates(int(s), exclude_self=False)
        want = topk_per_source(pg, np.asarray([s]), k, candidates=candidates)
        indices = np.full(width, -1, dtype=np.int64)
        scores = np.zeros(width, dtype=np.float64)
        indices[: want.indices.shape[1]] = want.indices[0]
        scores[: want.scores.shape[1]] = want.scores[0]
        assert np.array_equal(result.indices[row], indices) and np.array_equal(
            result.scores[row], scores
        ), f"served row of source {s} differs from the full scan over its candidates"


def main() -> None:
    args = parse_args()
    if args.smoke:
        args.scale, args.edge_factor, args.queries = 11, 8, 32
    graph = kronecker_graph(scale=args.scale, edge_factor=args.edge_factor, seed=1)
    print(f"graph: n={graph.num_vertices:,}, m={graph.num_edges:,} ({'smoke' if args.smoke else 'full'} mode)")
    if not args.smoke:
        assert graph.num_vertices >= MIN_FULL_VERTICES, "full mode needs a >=100k-vertex graph"

    start = time.perf_counter()
    pg = ProbGraph(graph, representation="khash", k=args.k_slots, seed=args.seed)
    sketch_seconds = time.perf_counter() - start
    start = time.perf_counter()
    index = LSHIndex(pg)
    build_seconds = time.perf_counter() - start
    print(
        f"index: (b, r) = ({index.num_bands}, {index.rows_per_band}) at threshold "
        f"{index.threshold}, {index.num_entries:,} bucket entries in "
        f"{index.num_buckets:,} buckets ({build_seconds * 1e3:.1f} ms to band; "
        f"sketches took {sketch_seconds * 1e3:.1f} ms)"
    )

    rng = np.random.default_rng(9)
    sources = rng.choice(graph.num_vertices, size=args.queries, replace=False).astype(np.int64)

    reference, full = timed(lambda: topk_per_source(pg, sources, args.topk))
    result, lsh = timed(lambda: index.topk_similar_batch(sources, args.topk))
    answer, exact = timed(lambda: index.topk_similar_batch(sources, args.topk, exact=True))
    full_seconds, lsh_seconds = full["median"], lsh["median"]
    speedup = full_seconds / lsh_seconds
    exact_speedup = full_seconds / exact["median"]
    check_against_oracle(pg, index, sources, args.topk, result)
    print(f"served rows equal the full scan over each source's candidates ({args.queries} sources)")
    assert np.array_equal(answer.indices, reference.indices) and np.array_equal(
        answer.scores, reference.scores
    ), "the exact answer differs from the full scan"
    print(
        f"exact answer equals the full scan bit for bit "
        f"({index.stats.full_scan_fallbacks} of {REPEATS} calls fell back to the scan)"
    )

    # --- recall of the servable pairs (reference rows with nonzero score) ----
    retrieved = hits = 0
    for row in range(sources.shape[0]):
        scored = (reference.indices[row] >= 0) & (reference.scores[row] > 0)
        hits += int(scored.sum())
        retrieved += int(np.isin(reference.indices[row][scored], result.indices[row]).sum())
    recall = retrieved / hits if hits else 1.0
    mean_candidates = index.stats.mean_candidates
    candidate_fraction = mean_candidates / graph.num_vertices
    print(
        f"full scan: {full_seconds * 1e3:8.1f} ms (IQR {full['iqr'] * 1e3:.1f}) for "
        f"{args.queries} queries ({graph.num_vertices:,} candidates each)"
    )
    print(
        f"LSH probe: {lsh_seconds * 1e3:8.1f} ms (IQR {lsh['iqr'] * 1e3:.1f}) "
        f"({mean_candidates:,.0f} candidates each, {candidate_fraction:.1%} of n) "
        f"->  {speedup:.1f}x (medians of {REPEATS})"
    )
    print(
        f"exact:     {exact['median'] * 1e3:8.1f} ms (IQR {exact['iqr'] * 1e3:.1f}) "
        f"->  {exact_speedup:.1f}x over the full scan (medians of {REPEATS})"
    )
    print(f"candidate recall over {hits} reference pairs: {recall:.4f}")

    payload = {
        "graph": {"scale": args.scale, "edge_factor": args.edge_factor,
                  "num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
        "params": {"k_slots": args.k_slots, "num_bands": index.num_bands,
                   "rows_per_band": index.rows_per_band, "threshold": index.threshold,
                   "topk": args.topk, "queries": args.queries, "seed": args.seed},
        "bucket_entries": index.num_entries,
        "build_seconds": build_seconds,
        "full_scan_seconds": full_seconds,
        "lsh_seconds": lsh_seconds,
        "exact_seconds": exact["median"],
        "timings": {"repeats": REPEATS, "full_scan": full, "lsh": lsh, "exact": exact},
        "speedup": speedup,
        "exact_speedup": exact_speedup,
        "recall": recall,
        "mean_candidates": mean_candidates,
        "candidate_fraction": candidate_fraction,
    }
    if not args.smoke:
        doc = append_run(args.output, "lsh_topk_speedup", payload)
        print(f"appended run {len(doc['runs'])} to {args.output}")

    assert recall >= REQUIRED_RECALL, (
        f"candidate recall {recall:.4f} below the {REQUIRED_RECALL} contract "
        f"at the default (b, r) = ({index.num_bands}, {index.rows_per_band})"
    )
    print(f"PASS: recall >= {REQUIRED_RECALL} at the default split")
    if args.smoke:
        print(
            f"smoke mode: trajectory write and speedup assertion skipped "
            f"(measured {speedup:.1f}x on the capped workload)"
        )
    else:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x top-k speedup, measured {speedup:.2f}x"
        )
        print(f"PASS: >= {REQUIRED_SPEEDUP}x top-k speedup over the full scan")


if __name__ == "__main__":
    main()
