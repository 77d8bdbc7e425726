"""Tests for the batch-query engine: chunked equivalence, session caching, routing.

The acceptance bar for the engine is strict:

* chunked streaming must be **bit-identical** to the direct
  ``ProbGraph.pair_intersections`` call for every representation;
* a warm-cache ``PGSession.probgraph`` call must perform **no** sketch
  reconstruction (asserted through the construction counter and object
  identity);
* every PG-enhanced algorithm module must execute through the engine path
  (asserted through the process-wide engine counters);
* a caller vertex ID outside ``[0, n)`` must raise ``ValueError`` at every
  engine entry point, and at the ``ProbGraph`` pair methods, instead of
  aliasing another vertex.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    evaluate_link_prediction,
    four_clique_count,
    jarvis_patrick_clustering,
    local_clustering_coefficients,
    similarity_scores,
    triangle_count,
)
from repro.algorithms.cohesion import network_cohesion
from repro.algorithms.similarity import jaccard_matrix_row
from repro.core import ProbGraph, estimate_triangles
from repro.engine import (
    EngineConfig,
    LSHIndex,
    PGSession,
    ShardedEngine,
    batched_pair_intersections,
    batched_pair_jaccard,
    default_session,
    engine_stats,
    reset_engine_stats,
    resolve_chunk_pairs,
    scatter_add_pair_intersections,
    sum_pair_intersections,
    topk_pair_scores,
    topk_per_source,
)
from repro.graph import CSRGraph, kronecker_graph

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return kronecker_graph(scale=8, edge_factor=6, seed=11)


@pytest.fixture(scope="module")
def pair_arrays(graph):
    rng = np.random.default_rng(99)
    u = rng.integers(0, graph.num_vertices, size=1500)
    v = rng.integers(0, graph.num_vertices, size=1500)
    return u.astype(np.int64), v.astype(np.int64)


# ---------------------------------------------------------------------------
# chunked == unchunked, bit-identical, all four representations
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
def test_chunked_equals_unchunked_bit_identical(graph, pair_arrays, representation, chunk):
    pg = ProbGraph(graph, representation=representation, storage_budget=0.25, seed=3)
    u, v = pair_arrays
    direct = pg.pair_intersections(u, v)
    chunked = batched_pair_intersections(pg, u, v, config=EngineConfig(max_chunk_pairs=chunk))
    assert chunked.dtype == np.float64
    assert np.array_equal(direct, chunked)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_sketch_container_chunk_contract(graph, pair_arrays, representation):
    """The NeighborhoodSketches-level contract matches its own unchunked call."""
    pg = ProbGraph(graph, representation=representation, storage_budget=0.25, seed=3)
    u, v = pair_arrays
    direct = np.asarray(pg.sketches.pair_intersections(u, v), dtype=np.float64)
    chunked = pg.sketches.pair_intersections_chunked(u, v, max_chunk_pairs=13)
    assert np.array_equal(direct, chunked)


_PROP_GRAPH = kronecker_graph(scale=7, edge_factor=5, seed=23)
_PROP_PGS = {
    rep: ProbGraph(_PROP_GRAPH, representation=rep, storage_budget=0.3, seed=5)
    for rep in REPRESENTATIONS
}


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(0, _PROP_GRAPH.num_vertices - 1),
            st.integers(0, _PROP_GRAPH.num_vertices - 1),
        ),
        min_size=0,
        max_size=300,
    ),
    chunk=st.integers(min_value=1, max_value=400),
    representation=st.sampled_from(REPRESENTATIONS),
)
@settings(max_examples=60, deadline=None)
def test_any_chunking_is_bit_identical(pairs, chunk, representation):
    """Property-style: any pair list and any chunk size give bit-identical results."""
    pg = _PROP_PGS[representation]
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u, v = arr[:, 0], arr[:, 1]
    direct = np.asarray(pg.pair_intersections(u, v), dtype=np.float64)
    chunked = batched_pair_intersections(pg, u, v, config=EngineConfig(max_chunk_pairs=chunk))
    assert np.array_equal(direct, chunked)


def test_bloom_estimator_kwarg_forwarded(graph, pair_arrays):
    pg = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    u, v = pair_arrays
    for kind in ["AND", "L", "OR"]:
        direct = pg.pair_intersections(u, v, estimator=kind)
        chunked = batched_pair_intersections(
            pg, u, v, estimator=kind, config=EngineConfig(max_chunk_pairs=11)
        )
        assert np.array_equal(direct, chunked), kind


@pytest.fixture(scope="module")
def id_check_sources(graph):
    """A k-hash ProbGraph and the 2-shard engine serving the same rows."""
    pg = ProbGraph(graph, representation="khash", k=16, seed=3)
    with ShardedEngine(graph, 2, representation="khash", k=16, seed=3) as engine:
        yield pg, engine


#: Every engine entry point that takes caller vertex IDs, as ``ids -> call``.
_ID_ENTRY_POINTS = {
    "batched_pairs": lambda pg, eng, ids: batched_pair_intersections(pg, ids, ids),
    "topk_pair_scores": lambda pg, eng, ids: topk_pair_scores(pg, ids, ids, 1),
    "topk_per_source.sources": lambda pg, eng, ids: topk_per_source(pg, ids, 3),
    "topk_per_source.candidates": lambda pg, eng, ids: topk_per_source(pg, [0], 3, candidates=ids),
    "sharded.pairs": lambda pg, eng, ids: eng.pair_intersections(ids, ids),
    "sharded.top_k": lambda pg, eng, ids: eng.top_k_similar_batch(ids, 3),
    "lsh.sources": lambda pg, eng, ids: LSHIndex(pg).topk_similar_batch(ids, 3),
    "sharded_lsh.sources": lambda pg, eng, ids: eng.lsh_index().topk_similar_batch(ids, 3),
    "lsh.band_keys": lambda pg, eng, ids: LSHIndex(pg).band_keys(ids),
    "probgraph.pairs": lambda pg, eng, ids: pg.pair_intersections(ids, ids[::-1]),
    "probgraph.pairs_chunked": lambda pg, eng, ids: pg.pair_intersections_chunked(ids, ids, 2),
    "probgraph.int_card": lambda pg, eng, ids: [pg.int_card(int(i), 0) for i in ids],
    "probgraph.jaccard": lambda pg, eng, ids: [pg.jaccard(0, int(i)) for i in ids],
}


@pytest.mark.parametrize("entry", sorted(_ID_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["-1", "n"])
def test_out_of_range_vertex_ids_rejected(id_check_sources, graph, entry, bad):
    """-1 used to alias vertex n-1 and n failed mid-chunk; both now raise up front."""
    pg, engine = id_check_sources
    call = _ID_ENTRY_POINTS[entry]
    call(pg, engine, np.empty(0, dtype=np.int64))  # empty input stays valid
    vertex = -1 if bad == "-1" else graph.num_vertices
    with pytest.raises(ValueError, match=r"must lie in \[0, "):
        call(pg, engine, np.asarray([vertex], dtype=np.int64))


def test_sum_and_scatter_match_materialized(graph, pair_arrays):
    pg = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    u, v = pair_arrays
    direct = pg.pair_intersections(u, v)
    cfg = EngineConfig(max_chunk_pairs=37)
    assert sum_pair_intersections(pg, u, v, config=cfg) == pytest.approx(float(direct.sum()))
    out = np.zeros(graph.num_vertices)
    scatter_add_pair_intersections(pg, u, v, out, u, config=cfg)
    expect = np.zeros(graph.num_vertices)
    np.add.at(expect, u, direct)
    np.testing.assert_allclose(out, expect)


def test_oriented_jaccard_parity_across_all_paths():
    """Regression: on an oriented ProbGraph, `similarity_scores(..., "jaccard")`
    used the full graph's degrees while `ProbGraph.jaccard` and
    `session.pair_jaccard` used the sketched base's (oriented) degrees — the
    three paths returned different numbers for the same pairs (e.g. 0.204 vs
    0.127 on this exact workload).  All must agree on `base_degrees` now."""
    from repro.algorithms import similarity_scores

    g = kronecker_graph(scale=6, edge_factor=6, seed=0)
    pg = ProbGraph(g, representation="bloom", storage_budget=0.3, seed=1, oriented=True)
    pairs = np.asarray([[1, 5], [3, 7]], dtype=np.int64)
    session = PGSession()
    scalar = np.asarray([pg.jaccard(int(a), int(b)) for a, b in pairs])
    batch = session.pair_jaccard(pg, pairs[:, 0], pairs[:, 1])
    scores = similarity_scores(pg, pairs, measure="jaccard")
    np.testing.assert_allclose(batch, scalar)
    np.testing.assert_allclose(scores, scalar)


def test_base_degrees_match_orientation(graph):
    full = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    oriented = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3, oriented=True)
    assert np.array_equal(full.base_degrees, graph.degrees)
    assert np.array_equal(oriented.base_degrees, graph.oriented().degrees)
    assert int(oriented.base_degrees.sum()) == graph.num_edges  # N+ partitions each edge once


def test_batched_jaccard_matches_scalar(graph):
    pg = ProbGraph(graph, representation="1hash", storage_budget=0.25, seed=3)
    rng = np.random.default_rng(5)
    u = rng.integers(0, graph.num_vertices, size=50).astype(np.int64)
    v = rng.integers(0, graph.num_vertices, size=50).astype(np.int64)
    batch = batched_pair_jaccard(pg, u, v, config=EngineConfig(max_chunk_pairs=9))
    scalars = np.array([pg.jaccard(int(a), int(b)) for a, b in zip(u, v)])
    np.testing.assert_allclose(batch, scalars)


def test_empty_pair_list(graph):
    pg = ProbGraph(graph, representation="bloom", seed=3)
    empty = np.empty(0, dtype=np.int64)
    assert batched_pair_intersections(pg, empty, empty).shape == (0,)
    assert sum_pair_intersections(pg, empty, empty) == 0.0


def test_chunk_resolution_respects_memory_budget(graph):
    pg = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    per_pair = pg.sketches.pair_scratch_bytes
    assert per_pair > 0
    chunk = resolve_chunk_pairs(pg.sketches, EngineConfig(memory_budget_bytes=per_pair * 100_000))
    assert chunk * per_pair <= per_pair * 100_000
    # Explicit max_chunk_pairs always wins.
    assert resolve_chunk_pairs(pg.sketches, EngineConfig(max_chunk_pairs=5)) == 5


# ---------------------------------------------------------------------------
# session caching
# ---------------------------------------------------------------------------
def test_warm_cache_returns_same_object_without_rebuild(graph):
    session = PGSession()
    pg1 = session.probgraph(graph, representation="bloom", storage_budget=0.25, seed=7)
    assert session.stats.constructions == 1
    pg2 = session.probgraph(graph, representation="bloom", storage_budget=0.25, seed=7)
    assert pg2 is pg1
    assert session.stats.constructions == 1  # no sketch reconstruction
    assert session.stats.cache_hits == 1


def test_budget_and_explicit_params_share_one_entry(graph):
    session = PGSession()
    pg = session.probgraph(graph, representation="bloom", storage_budget=0.25, seed=7)
    explicit = session.probgraph(graph, representation="bloom", num_bits=pg.num_bits, seed=7)
    assert explicit is pg
    assert session.stats.constructions == 1


def test_equal_structure_different_objects_hit_cache(graph):
    clone = CSRGraph(graph.num_vertices, graph.indptr.copy(), graph.indices.copy())
    assert clone.fingerprint() == graph.fingerprint()
    session = PGSession()
    pg1 = session.probgraph(graph, representation="kmv", seed=1)
    pg2 = session.probgraph(clone, representation="kmv", seed=1)
    assert pg2 is pg1


def test_cache_key_distinguishes_params(graph):
    session = PGSession(max_entries=16)
    base = session.probgraph(graph, representation="bloom", seed=0)
    for kwargs in [
        {"representation": "bloom", "seed": 1},
        {"representation": "bloom", "oriented": True},
        {"representation": "bloom", "num_hashes": 4},
        {"representation": "khash"},
        {"representation": "1hash"},
    ]:
        assert session.probgraph(graph, **kwargs) is not base
    assert session.stats.constructions == 6


def test_lru_eviction(graph):
    session = PGSession(max_entries=2)
    pg_a = session.probgraph(graph, representation="bloom", seed=0)
    session.probgraph(graph, representation="bloom", seed=1)
    session.probgraph(graph, representation="bloom", seed=2)  # evicts seed=0
    assert len(session) == 2
    assert session.stats.evictions == 1
    rebuilt = session.probgraph(graph, representation="bloom", seed=0)
    assert rebuilt is not pg_a
    assert session.stats.constructions == 4


def test_lru_eviction_order_respects_recency(graph):
    """A warm hit refreshes recency, so eviction removes the *stalest* entry."""
    session = PGSession(max_entries=3)
    pg0 = session.probgraph(graph, representation="bloom", seed=0)
    session.probgraph(graph, representation="bloom", seed=1)
    session.probgraph(graph, representation="bloom", seed=2)
    session.probgraph(graph, representation="bloom", seed=0)  # refresh seed=0
    session.probgraph(graph, representation="bloom", seed=3)  # evicts seed=1, not seed=0
    assert session.stats.evictions == 1
    assert session.probgraph(graph, representation="bloom", seed=0) is pg0
    assert session.stats.constructions == 4  # seed=0 never rebuilt
    session.probgraph(graph, representation="bloom", seed=1)
    assert session.stats.constructions == 5  # seed=1 was the one evicted


def test_capacity_one_session(graph):
    """max_entries=1 keeps exactly the most recent sketch set alive."""
    session = PGSession(max_entries=1)
    pg_a = session.probgraph(graph, representation="bloom", seed=0)
    assert session.probgraph(graph, representation="bloom", seed=0) is pg_a
    pg_b = session.probgraph(graph, representation="bloom", seed=1)
    assert len(session) == 1
    assert session.stats.evictions == 1
    assert not session.cached(pg_a)
    assert session.cached(pg_b)
    rebuilt = session.probgraph(graph, representation="bloom", seed=0)
    assert rebuilt is not pg_a
    assert session.stats.constructions == 3
    assert session.stats.cache_misses == 3
    assert session.stats.cache_hits == 1


def test_hit_miss_counters_after_delta_patch(graph):
    """A patched entry keeps serving warm hits under the advanced fingerprint."""
    from repro.dynamic import DynamicGraph

    dyn = DynamicGraph(graph)
    session = PGSession()
    pg = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=6)
    assert (session.stats.cache_misses, session.stats.cache_hits) == (1, 0)
    delta = dyn.apply_edges(deletions=graph.edge_array()[:4])
    assert session.apply_delta(delta) == 1
    # Old-graph lookups now miss (that graph is gone) ...
    session.probgraph(graph, representation="bloom", num_bits=256, seed=6)
    assert (session.stats.cache_misses, session.stats.cache_hits) == (2, 0)
    # ... while new-graph lookups hit the patched entry without rebuilding.
    assert session.probgraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=6) is pg
    assert (session.stats.cache_misses, session.stats.cache_hits) == (2, 1)
    assert session.stats.delta_patches == 1


def test_default_session_is_singleton():
    assert default_session() is default_session()


def test_estimator_not_part_of_cache_key(graph):
    session = PGSession()
    pg_and = session.probgraph(graph, representation="bloom", estimator="AND", seed=2)
    pg_l = session.probgraph(graph, representation="bloom", estimator="L", seed=2)
    # The sketches are shared (no rebuild), but the returned view carries the
    # requested default estimator rather than the first builder's.
    assert pg_l.sketches is pg_and.sketches
    assert pg_and.estimator.value == "AND" and pg_l.estimator.value == "L"
    assert session.stats.constructions == 1
    assert session.stats.cache_hits == 1


def test_session_subset_respects_parent_estimator(graph):
    """Regression: a warm session must not leak another ProbGraph's default estimator."""
    subset = np.arange(60)
    pg_and = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3, estimator="AND")
    pg_l = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3, estimator="L")
    session = PGSession()
    assert network_cohesion(pg_and, subset=subset, session=session) == pytest.approx(
        network_cohesion(pg_and, subset=subset)
    )
    assert network_cohesion(pg_l, subset=subset, session=session) == pytest.approx(
        network_cohesion(pg_l, subset=subset)
    )
    assert session.stats.constructions == 1  # second call reused the sketches


# ---------------------------------------------------------------------------
# all six algorithm modules execute through the engine path
# ---------------------------------------------------------------------------
def _assert_engine_ran(fn):
    reset_engine_stats()
    before = engine_stats().snapshot()
    fn()
    after = engine_stats()
    assert after.queries > before.queries, "algorithm did not execute through the engine"
    assert after.pairs >= before.pairs


def test_algorithms_route_through_engine(graph):
    pg = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    pg_oriented = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3, oriented=True)
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, graph.num_vertices, size=(64, 2)).astype(np.int64)

    _assert_engine_ran(lambda: triangle_count(pg))  # triangle_count.py
    _assert_engine_ran(lambda: local_clustering_coefficients(pg))  # cohesion.py (+ tc)
    _assert_engine_ran(lambda: similarity_scores(pg, pairs, measure="jaccard"))  # similarity.py
    _assert_engine_ran(lambda: jarvis_patrick_clustering(pg, measure="jaccard"))  # clustering.py
    _assert_engine_ran(lambda: four_clique_count(pg_oriented))  # clique_count.py
    _assert_engine_ran(
        lambda: evaluate_link_prediction(
            graph, use_probgraph=True, max_candidates=2000, seed=4
        )
    )  # link_prediction.py
    _assert_engine_ran(lambda: estimate_triangles(pg))  # core tc estimator


def test_chunked_algorithms_match_unchunked(graph):
    """Tiny chunks must not change any algorithm output."""
    tiny = EngineConfig(max_chunk_pairs=13)
    for rep in REPRESENTATIONS:
        pg = ProbGraph(graph, representation=rep, storage_budget=0.25, seed=3)
        assert float(triangle_count(pg, config=tiny)) == pytest.approx(float(triangle_count(pg)))
        np.testing.assert_allclose(
            local_clustering_coefficients(pg, config=tiny),
            local_clustering_coefficients(pg),
        )
        default_clusters = jarvis_patrick_clustering(pg, measure="jaccard")
        tiny_clusters = jarvis_patrick_clustering(pg, measure="jaccard", config=tiny)
        assert np.array_equal(default_clusters.labels, tiny_clusters.labels)


def test_four_clique_chunked_matches_unchunked():
    from repro.graph import complete_graph

    for g in (complete_graph(10), kronecker_graph(scale=8, edge_factor=8, seed=1)):
        for rep in REPRESENTATIONS:
            pg = ProbGraph(g, representation=rep, storage_budget=0.5, seed=1, oriented=True)
            full = float(four_clique_count(pg))
            assert full > 0
            for max_chunk_pairs in (1, 3):
                config = EngineConfig(max_chunk_pairs=max_chunk_pairs)
                assert float(four_clique_count(pg, config=config)) == pytest.approx(full)


def test_cohesion_subset_through_session(graph):
    pg = ProbGraph(graph, representation="bloom", storage_budget=0.25, seed=3)
    subset = np.arange(40)
    session = PGSession()
    first = network_cohesion(pg, subset=subset, session=session)
    second = network_cohesion(pg, subset=subset, session=session)
    assert first == pytest.approx(second)
    assert session.stats.constructions == 1
    assert session.stats.cache_hits == 1


def test_jaccard_matrix_row_matches_pairwise(graph):
    pg = ProbGraph(graph, representation="khash", storage_budget=0.25, seed=3)
    candidates = np.arange(1, 60, dtype=np.int64)
    row = jaccard_matrix_row(pg, 0, candidates, config=EngineConfig(max_chunk_pairs=8))
    pairs = np.stack([np.zeros_like(candidates), candidates], axis=1)
    np.testing.assert_allclose(row, similarity_scores(pg, pairs, measure="jaccard"))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_chunk_pairs=0)
    with pytest.raises(ValueError):
        EngineConfig(memory_budget_bytes=0)
    with pytest.raises(ValueError):
        PGSession(max_entries=0)


def test_mismatched_pair_shapes_raise(graph):
    pg = ProbGraph(graph, representation="bloom", seed=3)
    with pytest.raises(ValueError):
        batched_pair_intersections(pg, np.arange(3), np.arange(4))


def test_engine_stats_lose_no_counts_under_threads():
    """Engine entry points are thread-safe, so their shared counters must
    be too: with unlocked `+=`, 4 threads × 200,000 `record_query(1, 1)`
    calls left about half of the 800,000 pairs and chunks counted."""
    import sys
    import threading

    from repro.engine.batch import record_query

    num_threads, calls = 4, 50_000
    barrier = threading.Barrier(num_threads)

    def worker() -> None:
        barrier.wait()
        for _ in range(calls):
            record_query(1, 1)

    reset_engine_stats()
    threads = [threading.Thread(target=worker) for _ in range(num_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    stats = engine_stats().snapshot()
    assert stats.queries == stats.pairs == stats.chunks == num_threads * calls


# ---------------------------------------------------------------------------
# session thread safety
# ---------------------------------------------------------------------------
class TestSessionThreadSafety:
    """Concurrent hammer tests for the PGSession cache lock (ISSUE 5)."""

    def test_concurrent_lookups_lose_nothing(self, graph):
        import threading

        session = PGSession(max_entries=64)
        num_threads = 8
        iterations = 24
        seeds = [0, 1, 2, 3]
        representations = ["bloom", "khash", "1hash", "kmv", "hll"]
        barrier = threading.Barrier(num_threads)
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(iterations):
                    rep = representations[(worker_id + i) % len(representations)]
                    seed = seeds[i % len(seeds)]
                    pg = session.probgraph(graph, representation=rep, seed=seed)
                    assert pg.seed == seed
            except BaseException as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = num_threads * iterations
        distinct_keys = len(representations) * len(seeds)
        # Consistency: every lookup was a hit or a miss, every miss built
        # exactly one entry, and no entry was lost or duplicated.
        assert session.stats.cache_hits + session.stats.cache_misses == total
        assert session.stats.constructions == session.stats.cache_misses == distinct_keys
        assert len(session) == distinct_keys
        assert session.stats.evictions == 0

    def test_concurrent_lookups_and_delta_patches(self, graph):
        import threading

        from repro.dynamic import DynamicGraph

        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(5)
        deltas = []
        for _ in range(6):
            edges = np.stack(
                [
                    rng.integers(0, graph.num_vertices, size=8),
                    rng.integers(0, graph.num_vertices, size=8),
                ],
                axis=1,
            )
            deltas.append(dyn.apply_edges(insertions=edges))

        session = PGSession(max_entries=32)
        session.probgraph(graph, representation="bloom", seed=0)
        barrier = threading.Barrier(5)
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                barrier.wait()
                for seed in range(12):
                    session.probgraph(graph, representation="khash", seed=seed % 3)
            except BaseException as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        def writer() -> None:
            try:
                barrier.wait()
                for delta in deltas:
                    session.apply_delta(delta)
            except BaseException as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert session.stats.cache_hits + session.stats.cache_misses == 4 * 12 + 1
        assert len(session) <= 32

    def test_default_session_race_free(self, monkeypatch):
        import threading

        from repro.engine import session as session_module

        monkeypatch.setattr(session_module, "_DEFAULT_SESSION", None)
        num_threads = 16
        barrier = threading.Barrier(num_threads)
        seen: list[PGSession] = []
        lock = threading.Lock()

        def worker() -> None:
            barrier.wait()
            s = default_session()
            with lock:
                seen.append(s)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == num_threads
        assert all(s is seen[0] for s in seen)
