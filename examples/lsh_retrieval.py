#!/usr/bin/env python
"""Sublinear top-k retrieval through the LSH banding index.

The full-scan serving path (`examples/topk_serving.py`) scores *every* vertex
as a candidate for every query.  The banding index slices the MinHash
signature matrix into ``b`` bands × ``r`` rows, buckets each band hash, and
scores only the vertices colliding with the query on at least one band — at
the recall-heavy default split every pair the k-hash estimator scores above
zero still collides, so the served top-k matches the full scan on all its
nonzero-scoring rows while probing a few percent of the graph.  The same
tables serve the exact answer (``exact=True``): the full scan's top-k, bit
for bit, with the zero-score rows filled by vertex ID.

Run with:  python examples/lsh_retrieval.py
"""

import time

import numpy as np

from repro import PGSession, knn_graph, topk_per_source
from repro.graph import kronecker_graph


def main() -> None:
    graph = kronecker_graph(scale=12, edge_factor=8, seed=1)
    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}")

    session = PGSession()
    pg = session.probgraph(graph, representation="khash", k=16, seed=7)
    index = session.lsh_index(pg)  # cached: later lookups reuse these tables
    print(
        f"index: (b, r) = ({index.num_bands}, {index.rows_per_band}), "
        f"{index.num_entries:,} bucket entries"
    )

    # --- one user: probe the bucket tables instead of scanning every vertex --
    user = int(np.argmax(graph.degrees))
    start = time.perf_counter()
    vertices, scores = index.topk_similar(user, 10)
    probe_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    scan = topk_per_source(pg, np.asarray([user]), 10)  # scores every vertex
    scan_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    exact_v, exact_s = index.topk_similar(user, 10, exact=True)  # the scan's answer, from the tables
    exact_ms = (time.perf_counter() - start) * 1e3
    assert np.array_equal(exact_v, scan.indices[0]) and np.array_equal(exact_s, scan.scores[0])
    print(
        f"\ntop-10 most similar to vertex {user} ({probe_ms:.1f} ms probed, "
        f"{scan_ms:.1f} ms scanned, {exact_ms:.1f} ms for the exact answer):"
    )
    for v, s in zip(vertices.tolist(), scores.tolist()):
        marker = "" if v in exact_v.tolist() else "   (probe-only)"
        print(f"  vertex {v:5d}  jaccard≈{s:.3f}{marker}")
    served = (vertices >= 0) & (scores > 0)
    print(f"agreement with the full scan on nonzero-scoring rows: "
          f"{np.isin(vertices[served], exact_v).mean():.0%}")

    # --- k-NN graph over every vertex, candidates from the bucket tables -----
    start = time.perf_counter()
    knn = knn_graph(pg, 8, method="lsh", lsh_index=index)
    elapsed = time.perf_counter() - start
    print(
        f"\nknn_graph(method='lsh'): {knn.neighbors.shape[0]:,} rows in {elapsed:.2f} s, "
        f"{index.stats.mean_candidates:,.0f} candidates scored per vertex "
        f"({index.stats.mean_candidates / graph.num_vertices:.1%} of n)"
    )
    backbone = knn.to_csr()
    print(f"symmetrized k-NN backbone: {backbone.num_edges:,} edges")


if __name__ == "__main__":
    main()
