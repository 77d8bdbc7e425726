"""Tests for the sharded engine, its threaded build, and the vertex partitioners.

The acceptance bar mirrors the single-process engine's:

* sharded ``pair_intersections`` / ``pair_jaccard`` / ``top_k_similar_batch``
  must be **bit-identical** to the single-process :class:`PGSession` path for
  every family × shard count × orientation;
* the shipment counts and sketch bytes the engine counts must equal the
  §VIII-F communication model
  (:func:`repro.parallel.distributed.communication_volume`) on the same
  partitioning, and a top-k query must count each source once per other
  shard that owns a candidate;
* ``to_probgraph`` must hand back a ProbGraph indistinguishable from an
  in-process construction, and a ProbGraph hashed in several threads must
  hold the rows of a one-thread build.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.algorithms import knn_graph, knn_graph_sharded, triangle_count, triangle_count_sharded
from repro.core import ProbGraph, probgraph
from repro.core.probgraph import _build_rows
from repro.engine import PGSession, ShardedEngine
from repro.graph import (
    CSRGraph,
    complete_graph,
    kronecker_graph,
    partition_from_owners,
    partition_graph,
    partition_vertices,
    partition_vertices_locality,
)
from repro.parallel import communication_volume
from repro.sketches.base import concat_sketch_rows

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]
SHARD_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return kronecker_graph(scale=7, edge_factor=5, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    rng = np.random.default_rng(77)
    u = rng.integers(0, graph.num_vertices, size=600).astype(np.int64)
    v = rng.integers(0, graph.num_vertices, size=600).astype(np.int64)
    return u, v


class TestPartitioners:
    def test_hash_partition_balanced_and_complete(self, graph):
        owners = partition_vertices(graph, 4, seed=3)
        assert owners.shape == (graph.num_vertices,)
        sizes = np.bincount(owners, minlength=4)
        assert sizes.sum() == graph.num_vertices
        assert sizes.max() - sizes.min() <= 1

    def test_hash_partition_deterministic(self, graph):
        a = partition_vertices(graph, 3, seed=9)
        b = partition_vertices(graph, 3, seed=9)
        assert np.array_equal(a, b)

    def test_locality_partition_balanced_and_complete(self, graph):
        owners = partition_vertices_locality(graph, 4, seed=3)
        assert owners.shape == (graph.num_vertices,)
        sizes = np.bincount(owners, minlength=4)
        assert sizes.sum() == graph.num_vertices
        # BFS chunking assigns ceil(n/p) vertices to every shard but the last.
        assert sizes.max() <= -(-graph.num_vertices // 4)

    def test_locality_partition_respects_components(self):
        # Two disjoint 8-cliques: a BFS chunking into two shards cuts nothing,
        # while hash partitioning cuts roughly half the edges.
        a = complete_graph(8).edge_array()
        b = complete_graph(8).edge_array() + 8
        g = CSRGraph.from_edges(np.concatenate([a, b]), num_vertices=16)
        local = partition_from_owners(partition_vertices_locality(g, 2, seed=1), 2)
        hashed = partition_from_owners(partition_vertices(g, 2, seed=1), 2)
        assert local.cut_fraction(g) == 0.0
        assert hashed.cut_fraction(g) > 0.0

    def test_partition_graph_shard_sizes(self, graph):
        part = partition_graph(graph, 3, method="locality", seed=5)
        sizes = part.shard_sizes()
        for s in range(3):
            assert sizes[s] == np.count_nonzero(part.owners == s)
        assert int(sizes.sum()) == graph.num_vertices

    def test_invalid_inputs(self, graph):
        with pytest.raises(ValueError):
            partition_vertices(graph, 0)
        with pytest.raises(ValueError):
            partition_vertices_locality(graph, 0)
        with pytest.raises(ValueError):
            partition_graph(graph, 2, method="metis")
        with pytest.raises(ValueError):
            partition_from_owners(np.asarray([0, 3]), 2)


class TestShardedBitIdentity:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("oriented", [False, True])
    def test_pair_queries_match_single_process(
        self, graph, pairs, representation, num_shards, oriented
    ):
        u, v = pairs
        session = PGSession()
        pg = session.probgraph(graph, representation=representation, oriented=oriented, seed=13)
        engine = ShardedEngine(
            graph, num_shards, representation=representation, oriented=oriented,
            seed=13,
        )
        assert np.array_equal(
            engine.pair_intersections(u, v), session.pair_intersections(pg, u, v)
        )
        assert np.array_equal(engine.pair_jaccard(u, v), session.pair_jaccard(pg, u, v))

    @pytest.mark.parametrize("estimator", ["AND", "L", "OR"])
    def test_bloom_estimator_override(self, graph, pairs, estimator):
        u, v = pairs
        pg = ProbGraph(graph, representation="bloom", seed=4)
        engine = ShardedEngine(graph, 3, representation="bloom", seed=4)
        assert np.array_equal(
            engine.pair_intersections(u, v, estimator=estimator),
            pg.pair_intersections(u, v, estimator=estimator),
        )

    def test_locality_partition_same_results(self, graph, pairs):
        u, v = pairs
        pg = ProbGraph(graph, representation="kmv", seed=8)
        engine = ShardedEngine(
            graph, 4, representation="kmv", seed=8, partition="locality"
        )
        assert np.array_equal(engine.pair_intersections(u, v), pg.pair_intersections(u, v))

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("measure", ["jaccard", "intersection"])
    def test_topk_batch_matches_single_process(
        self, graph, representation, num_shards, measure
    ):
        rng = np.random.default_rng(55)
        sources = rng.integers(0, graph.num_vertices, size=12).astype(np.int64)
        session = PGSession()
        pg = session.probgraph(graph, representation=representation, seed=2)
        engine = ShardedEngine(
            graph, num_shards, representation=representation, seed=2
        )
        ref = session.top_k_similar_batch(pg, sources, 9, measure=measure)
        got = engine.top_k_similar_batch(sources, 9, measure=measure)
        assert np.array_equal(ref.indices, got.indices)
        assert np.array_equal(ref.scores, got.scores)

    def test_topk_candidate_subset_and_small_k(self, graph):
        rng = np.random.default_rng(66)
        sources = rng.integers(0, graph.num_vertices, size=5).astype(np.int64)
        candidates = rng.integers(0, graph.num_vertices, size=17).astype(np.int64)
        session = PGSession()
        pg = session.probgraph(graph, representation="bloom", seed=9)
        engine = ShardedEngine(graph, 3, representation="bloom", seed=9)
        ref = session.top_k_similar_batch(pg, sources, 50, candidates=candidates)
        got = engine.top_k_similar_batch(sources, 50, candidates=candidates)
        assert np.array_equal(ref.indices, got.indices)
        assert np.array_equal(ref.scores, got.scores)
        single_ids, single_scores = engine.top_k_similar(int(sources[0]), 4)
        ref_ids, ref_scores = session.top_k_similar(pg, int(sources[0]), 4)
        assert np.array_equal(single_ids, ref_ids)
        assert np.array_equal(single_scores, ref_scores)

    def test_concurrent_queries_stay_bit_identical(self, graph, pairs):
        # Regression: evaluation state must be per-call — a shared global→local
        # lookup would let concurrent queries read each other's row mappings.
        import threading

        u, v = pairs
        engine = ShardedEngine(graph, 4, representation="bloom", seed=31)
        expected = ProbGraph(graph, representation="bloom", seed=31).pair_intersections(u, v)
        barrier = threading.Barrier(6)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                for _ in range(5):
                    assert np.array_equal(engine.pair_intersections(u, v), expected)
            except BaseException as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert engine.comm.queries == 30
        assert engine.comm.routed_pairs == 30 * u.shape[0]

    def test_invalid_arguments(self, graph):
        with pytest.raises(ValueError):
            ShardedEngine(graph, 0)
        engine = ShardedEngine(graph, 2, seed=1)
        with pytest.raises(ValueError):
            engine.top_k_similar_batch(np.asarray([0]), -1)
        with pytest.raises(ValueError):
            engine.top_k_similar_batch(np.asarray([0]), 3, measure="adamic_adar")
        with pytest.raises(ValueError):
            engine.pair_intersections(np.asarray([0, 1]), np.asarray([0]))


class TestCommunicationAccounting:
    @pytest.mark.parametrize("method", ["hash", "locality"])
    def test_engine_shipments_match_model(self, graph, method):
        engine = ShardedEngine(
            graph, 4, representation="1hash", seed=3, partition=method
        )
        edges = graph.edge_array()
        engine.comm.reset()
        engine.pair_intersections(edges[:, 0], edges[:, 1])
        model = engine.communication_model()
        assert engine.comm.shipments == model.shipments
        assert engine.comm.sketch_bytes == model.sketch_bytes
        assert engine.comm.cut_pairs == model.cut_edges
        assert engine.comm.routed_pairs == edges.shape[0]
        # The modeled exact execution always moves more bytes than the sketches.
        assert model.csr_bytes > model.sketch_bytes

    @pytest.mark.parametrize(
        "num_shards, repartition", [(1, False), (2, False), (4, True)],
        ids=["1-shard", "2-shards", "4-shards-repartitioned"],
    )
    def test_engine_shipments_match_model_per_shard_count(
        self, graph, num_shards, repartition
    ):
        engine = ShardedEngine(graph, num_shards, representation="1hash", seed=3)
        if repartition:
            built = engine.partition.owners
            engine.repartition(seed=29)
            assert not np.array_equal(engine.partition.owners, built)
        edges = graph.edge_array()
        engine.comm.reset()
        engine.pair_intersections(edges[:, 0], edges[:, 1])
        model = engine.communication_model()
        # The model prices the engine's current owners, not the build's.
        assert model == communication_volume(
            graph, num_shards, engine.bits_per_set, owners=engine.partition.owners
        )
        assert engine.comm.shipments == model.shipments
        assert engine.comm.sketch_bytes == model.sketch_bytes
        assert engine.comm.cut_pairs == model.cut_edges
        assert engine.comm.routed_pairs == edges.shape[0]

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("case", ["all-candidates", "subset-17", "k-0", "no-sources"])
    def test_topk_shipments_match_brute_force(self, graph, num_shards, case):
        engine = ShardedEngine(graph, num_shards, representation="khash", seed=3)
        rng = np.random.default_rng(12)
        n = graph.num_vertices
        sources = rng.integers(0, n, size=9).astype(np.int64)
        sources = np.concatenate([sources, sources[:3]])  # repeated sources ship once
        candidates = None
        if case == "subset-17":
            candidates = rng.choice(n, size=17, replace=False).astype(np.int64)
        elif case == "no-sources":
            sources = sources[:0]
        k = 0 if case == "k-0" else 5
        engine.comm.reset()
        engine.top_k_similar_batch(sources, k, candidates=candidates)
        # Brute force: each unique source, once per other shard owning a candidate.
        owners = engine.partition.owners
        pool_ids = range(n) if candidates is None else candidates
        candidate_shards = {int(owners[c]) for c in pool_ids}
        expected = 0
        if k > 0:
            for src in set(sources.tolist()):
                expected += len(candidate_shards - {int(owners[src])})
        assert engine.comm.queries == 1
        assert engine.comm.shipments == expected
        assert engine.comm.sketch_bytes == expected * engine.bits_per_set / 8.0
        if num_shards > 1 and case in ("all-candidates", "subset-17"):
            assert expected > 0

    def test_same_shard_pairs_ship_nothing(self, graph):
        engine = ShardedEngine(graph, 2, seed=5)
        owned = np.flatnonzero(engine.partition.owners == 0)
        engine.comm.reset()
        engine.pair_intersections(owned[:10], owned[10:20])
        assert engine.comm.shipments == 0
        assert engine.comm.sketch_bytes == 0.0

    def test_single_shard_never_ships(self, graph, pairs):
        u, v = pairs
        engine = ShardedEngine(graph, 1, seed=5)
        engine.comm.reset()
        engine.pair_intersections(u, v)
        assert engine.comm.shipments == 0


class TestGatherAndSession:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_to_probgraph_container_bit_identical(self, graph, representation):
        engine = ShardedEngine(graph, 3, representation=representation, seed=7)
        merged = engine.to_probgraph()
        direct = ProbGraph(graph, representation=representation, seed=7)
        for name in direct.sketches.storage_arrays():
            assert np.array_equal(
                getattr(merged.sketches, name), getattr(direct.sketches, name)
            ), name

    def test_session_shards_build_bit_identical_and_cached(self, graph, pairs, monkeypatch):
        u, v = pairs
        plain_session = PGSession()
        pg_plain = plain_session.probgraph(graph, representation="bloom", seed=11)
        monkeypatch.setattr(probgraph, "_SLOTS_PER_RANGE", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sharded_session = PGSession()
        pg_sharded = sharded_session.probgraph(graph, representation="bloom", seed=11)
        assert pg_sharded.build_threads > 1 and pg_plain.build_threads == 1
        assert np.array_equal(
            sharded_session.pair_intersections(pg_sharded, u, v),
            plain_session.pair_intersections(pg_plain, u, v),
        )
        assert sharded_session.stats.constructions == 1
        again = sharded_session.probgraph(graph, representation="bloom", seed=11)
        assert again is pg_sharded
        assert sharded_session.stats.cache_hits == 1
        assert sharded_session.stats.constructions == 1

    def test_concat_rejects_mixed_families(self, graph):
        a = ProbGraph(graph, representation="khash", k=8, seed=1).sketches
        b = ProbGraph(graph, representation="khash", k=16, seed=1).sketches
        with pytest.raises(ValueError):
            concat_sketch_rows([a, b])
        with pytest.raises(ValueError):
            concat_sketch_rows([])

    def test_take_rows_bounds(self, graph):
        sketches = ProbGraph(graph, representation="1hash", seed=1).sketches
        with pytest.raises(IndexError):
            sketches.take_rows(np.asarray([graph.num_vertices]))


class TestShardedAlgorithms:
    @pytest.mark.parametrize("oriented", [False, True])
    def test_triangle_count_sharded_matches_pg(self, graph, oriented):
        pg = ProbGraph(graph, representation="bloom", oriented=oriented, seed=17)
        engine = ShardedEngine(
            graph, 3, representation="bloom", oriented=oriented, seed=17
        )
        assert float(triangle_count_sharded(engine)) == pytest.approx(
            float(triangle_count(pg)), rel=1e-12
        )
        assert "sharded" in triangle_count_sharded(engine).method

    @pytest.mark.parametrize("measure", ["jaccard", "common_neighbors"])
    def test_knn_graph_sharded_matches_single_process(self, graph, measure):
        sources = np.arange(24, dtype=np.int64)
        pg = ProbGraph(graph, representation="khash", seed=19)
        engine = ShardedEngine(graph, 2, representation="khash", seed=19)
        ref = knn_graph(pg, k=6, measure=measure, sources=sources)
        got = knn_graph_sharded(engine, k=6, measure=measure, sources=sources)
        assert np.array_equal(ref.neighbors, got.neighbors)
        assert np.array_equal(ref.scores, got.scores)
        assert got.to_csr(graph.num_vertices) == ref.to_csr(graph.num_vertices)

    def test_knn_graph_sharded_rejects_exact_only_measures(self, graph):
        engine = ShardedEngine(graph, 2, seed=1)
        with pytest.raises(ValueError):
            knn_graph_sharded(engine, k=3, measure="adamic_adar")


def _assert_rows_equal(got, expected) -> None:
    for name, arr in expected.storage_arrays().items():
        assert np.array_equal(getattr(got, name), arr), name


class TestThreadedBuild:
    """The row-range builder behind every :class:`ProbGraph`, checked bit for bit."""

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("shape", ["kronecker", "fewer-rows-than-blocks", "empty"])
    def test_blocks_match_probgraph(self, graph, representation, oriented, shape):
        if shape == "fewer-rows-than-blocks":
            graph = CSRGraph.from_edges(np.asarray([[0, 1], [1, 2]]), num_vertices=4)
        elif shape == "empty":
            graph = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=0)
        sizes = {"num_bits": 64, "k": 8, "precision": 6}
        key = {"bloom": "num_bits", "hll": "precision"}.get(representation, "k")
        pg = ProbGraph(
            graph, representation=representation, oriented=oriented, seed=3,
            **{key: sizes[key]},
        )
        for blocks in range(1, 8):
            rows, threads = _build_rows(pg.sketch_params, 3, pg.base, blocks)
            assert 1 <= threads <= max(1, min(blocks, graph.num_vertices))
            assert rows.num_sets == graph.num_vertices
            _assert_rows_equal(rows, pg.sketches)

    @pytest.mark.parametrize(
        "cpus, oriented, per_range, expected",
        [
            (4, False, lambda slots: slots // 4, 4),
            (2, False, lambda slots: slots // 4, 2),
            (8, False, lambda slots: slots // 4, 4),
            (1, False, lambda slots: slots // 4, 1),
            (4, False, lambda slots: slots // 2, 2),
            # The nearest slot count below 2 * _SLOTS_PER_RANGE: 2m is even.
            (4, False, lambda slots: slots // 2 + 1, 1),
            # The oriented base holds half the slots, so it gets half the ranges.
            (4, True, lambda slots: slots // 4, 2),
        ],
        ids=[
            "cpus-x-slots", "capped-by-cpus", "capped-by-slots", "one-cpu",
            "at-threshold", "below-threshold", "oriented-base",
        ],
    )
    def test_range_rule(self, graph, monkeypatch, cpus, oriented, per_range, expected):
        reference = ProbGraph(graph, representation="khash", k=8, oriented=oriented, seed=2)
        assert reference.build_threads == 1  # a test graph is far below the threshold
        monkeypatch.setattr(probgraph, "_SLOTS_PER_RANGE", per_range(graph.indices.shape[0]))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        pg = ProbGraph(graph, representation="khash", k=8, oriented=oriented, seed=2)
        assert pg.build_threads == expected
        _assert_rows_equal(pg.sketches, reference.sketches)
        engine = ShardedEngine(graph, 3, representation="khash", k=8, oriented=oriented, seed=2)
        assert engine.build_threads == expected  # the shard count sets the partition only
        assert engine.num_shards == 3

    @pytest.mark.parametrize("num_vertices", [0, 5])
    def test_range_rule_empty_graph(self, threaded_build, num_vertices):
        empty = CSRGraph.from_edges([], num_vertices=num_vertices)
        pg = ProbGraph(empty, representation="khash", k=8, seed=2)
        assert pg.build_threads == 1
        assert pg.sketches.num_sets == num_vertices

    def test_opened_engine_built_no_rows(self, graph, tmp_path):
        with ShardedEngine(graph, 2, representation="khash", k=8, seed=2) as engine:
            engine.save(tmp_path / "eng")
        with ShardedEngine.open(tmp_path / "eng") as opened:
            assert opened.build_threads == 0

    def test_failed_block_raises_and_joins_its_threads(self, graph, monkeypatch, threaded_build):
        from repro.sketches.minhash import KHashFamily

        assert ProbGraph(graph, representation="khash", k=8, seed=2).build_threads == 4
        real = KHashFamily.sketch_neighborhoods
        calls: list[int] = []
        lock = threading.Lock()

        def second_call_fails(self, indptr, indices):
            with lock:
                calls.append(indptr.shape[0] - 1)
                if len(calls) == 2:
                    raise RuntimeError("block failed")
            return real(self, indptr, indices)

        monkeypatch.setattr(KHashFamily, "sketch_neighborhoods", second_call_fails)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="block failed"):
            ProbGraph(graph, representation="khash", k=8, seed=2)
        assert len(calls) == 4  # one call per row range
        assert set(threading.enumerate()) <= before  # every build thread has ended

    def test_deprecated_pool_and_transport_are_ignored(self, graph):
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            with pytest.warns(DeprecationWarning, match="pool= and transport="):
                engine = ShardedEngine(
                    graph, 2, representation="khash", seed=6, pool=pool, transport="pickle",
                )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reference = ShardedEngine(graph, 2, representation="khash", seed=6)
        _assert_rows_equal(engine.sketches, reference.sketches)
