#!/usr/bin/env python
"""Sharded serving end to end: partition, threaded build, counted queries.

The §VIII-F story on one machine: vertices are partitioned into shards, the
neighborhood sketches are built as contiguous row ranges in parallel threads
(one per shard, up to the CPUs available), and the engine serves every query
from the concatenated rows while counting what a distributed run would ship
— one fixed-size sketch per cut pair (validated against the paper's
communication model), never a CSR neighborhood.  Results are bit-identical
to the single-process `PGSession` path throughout.

Run with:  python examples/sharded_serving.py
"""

import numpy as np

from repro import PGSession, ShardedEngine, triangle_count, triangle_count_sharded
from repro.algorithms import knn_graph_sharded
from repro.graph import kronecker_graph

NUM_SHARDS = 4


def main() -> None:
    graph = kronecker_graph(scale=11, edge_factor=8, seed=1)
    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}, max degree={graph.max_degree}")

    # --- threaded sharded build ---------------------------------------------
    with ShardedEngine(
        graph, NUM_SHARDS, representation="bloom", storage_budget=0.25, seed=7,
        partition="locality",
    ) as engine:
        sizes = ", ".join(str(int(s)) for s in engine.partition.shard_sizes())
        print(
            f"\nsharded build: {NUM_SHARDS} shards of [{sizes}] vertices "
            f"({engine.construction_seconds * 1e3:.0f} ms, locality partition, "
            f"{engine.partition.cut_fraction(graph):.0%} of edges cut)"
        )

        # --- pair queries, bit-identical to the single-process engine ----------
        session = PGSession()
        pg = session.probgraph(graph, representation="bloom", storage_budget=0.25, seed=7)
        rng = np.random.default_rng(3)
        u = rng.integers(0, graph.num_vertices, 50_000).astype(np.int64)
        v = rng.integers(0, graph.num_vertices, 50_000).astype(np.int64)
        sharded = engine.pair_intersections(u, v)
        single = session.pair_intersections(pg, u, v)
        print(
            f"\n50k pair queries: bit-identical to single-process = "
            f"{bool(np.array_equal(sharded, single))}"
        )

        # --- top-k serving: each source counted once per candidate shard ------
        users = np.argsort(graph.degrees)[-6:].astype(np.int64)
        batch = engine.top_k_similar_batch(users, k=5)
        print(f"\nsharded top-5 for the {len(users)} busiest users:")
        for row, user in enumerate(users.tolist()):
            hits = ", ".join(
                f"{c}({s:.2f})"
                for c, s in zip(batch.indices[row].tolist(), batch.scores[row].tolist())
                if c >= 0
            )
            print(f"  user {user:5d} -> {hits}")
        ref = session.top_k_similar_batch(pg, users, k=5)
        print(
            "  (bit-identical to PGSession.top_k_similar_batch = "
            f"{bool(np.array_equal(ref.indices, batch.indices))})"
        )

        # --- a sharded algorithm run --------------------------------------------
        with ShardedEngine(
            graph, NUM_SHARDS, representation="bloom", storage_budget=0.25, seed=7,
            oriented=True,
        ) as tc_engine:
            tc_sharded = float(triangle_count_sharded(tc_engine))
        tc_exact = float(triangle_count(graph))
        print(
            f"\nsharded triangle count (oriented N+): {tc_sharded:,.0f} "
            f"(exact {tc_exact:,.0f}, {tc_sharded / tc_exact:.2f}x)"
        )
        knn = knn_graph_sharded(engine, k=4, sources=np.arange(32, dtype=np.int64))
        print(f"4-NN graph over 32 sources: {knn.to_csr(graph.num_vertices).num_edges} edges")

        # --- what would move: the engine's shipments vs the paper's model ------
        edges = graph.edge_array()
        engine.comm.reset()
        engine.pair_intersections(edges[:, 0], edges[:, 1])
        model = engine.communication_model()
        agree = (
            engine.comm.shipments == model.shipments
            and engine.comm.sketch_bytes == model.sketch_bytes
        )
        print(
            f"\nper-edge query over all {edges.shape[0]:,} edges: "
            f"{engine.comm.shipments:,} sketch shipments, "
            f"{engine.comm.sketch_bytes / 1e6:.2f} MB to move "
            f"(§VIII-F model agrees = {agree}; exact CSR neighborhoods would move "
            f"{model.csr_bytes / 1e6:.2f} MB, {model.reduction_factor:.1f}x more)"
        )


if __name__ == "__main__":
    main()
