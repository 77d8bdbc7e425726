"""Property test: sharded execution ≡ single-process engine on random graphs.

Hypothesis draws random graphs, a sketch family, a shard count (1/2/4), an
orientation, and a partitioner, and asserts that the sharded engine's
``pair_intersections`` and ``top_k_similar_batch`` are **bit-identical** to
the single-process :class:`~repro.engine.PGSession` path — the core contract
of the sharded subsystem (ISSUE 5 acceptance).  The deterministic full
family × shards × orientation matrix lives in ``tests/test_sharded.py``; this
file samples the same matrix over adversarial graph shapes (duplicate edges,
isolated vertices, tiny components).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PGSession, ShardedEngine, topk_per_source
from repro.graph import CSRGraph

@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    num_edges = draw(st.integers(min_value=0, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(num_edges, 2))
    return CSRGraph.from_edges(edges, num_vertices=n)


@given(
    graph=random_graph(),
    representation=st.sampled_from(["bloom", "khash", "1hash", "kmv", "hll"]),
    num_shards=st.sampled_from([1, 2, 4]),
    oriented=st.booleans(),
    partition=st.sampled_from(["hash", "locality"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sharded_queries_bit_identical(
    graph, representation, num_shards, oriented, partition, seed
):
    session = PGSession()
    pg = session.probgraph(graph, representation=representation, oriented=oriented, seed=seed)
    engine = ShardedEngine(
        graph,
        num_shards,
        representation=representation,
        oriented=oriented,
        seed=seed,
        partition=partition,
    )
    rng = np.random.default_rng(seed + 1)
    u = rng.integers(0, graph.num_vertices, size=64).astype(np.int64)
    v = rng.integers(0, graph.num_vertices, size=64).astype(np.int64)
    assert np.array_equal(
        engine.pair_intersections(u, v), session.pair_intersections(pg, u, v)
    )

    sources = rng.integers(0, graph.num_vertices, size=4).astype(np.int64)
    k = int(rng.integers(1, 8))
    ref = session.top_k_similar_batch(pg, sources, k)
    got = engine.top_k_similar_batch(sources, k)
    assert np.array_equal(ref.indices, got.indices)
    assert np.array_equal(ref.scores, got.scores)


@given(
    graph=random_graph(),
    k_slots=st.integers(min_value=1, max_value=16),
    num_shards=st.sampled_from([1, 2, 4]),
    oriented=st.booleans(),
    exclude_self=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_table_answered_topk_bit_identical(
    graph, k_slots, num_shards, oriented, exclude_self, seed
):
    """With a held (k, 1) k-hash index, the engine's top-k comes from the band
    tables and still equals the full scan, pool or no pool."""
    engine = ShardedEngine(
        graph, num_shards, representation="khash", k=k_slots, oriented=oriented, seed=seed
    )
    index = engine.lsh_index(num_bands=k_slots, rows_per_band=1)
    n = graph.num_vertices
    rng = np.random.default_rng(seed + 2)
    sources = rng.integers(0, n, size=5).astype(np.int64)
    k = int(rng.integers(1, n + 3))
    pool = None
    if rng.random() < 0.5:
        pool = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).astype(np.int64)
    got = engine.top_k_similar_batch(sources, k, candidates=pool, exclude_self=exclude_self)
    want = topk_per_source(
        engine.to_probgraph(), sources, k, candidates=pool, exclude_self=exclude_self
    )
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.scores, want.scores)
    assert index.stats.probed_sources == sources.shape[0]
