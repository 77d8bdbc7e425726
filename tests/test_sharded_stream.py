"""Streaming deltas × sharded serving: delta routing, staleness, skew, LSH patching.

The acceptance bar of the streaming-sharding composition
(:meth:`repro.engine.ShardedEngine.apply_delta`):

* routed patches must be **bit-identical** to a fresh sharded rebuild *and*
  to the single-process :meth:`repro.core.ProbGraph.apply_delta` path, across
  all five families × shard counts × orientations — including cut-edge
  deletions (dirty rows on both owning shards) and vertex growth landing new
  rows on different shards;
* an engine built over a :class:`~repro.dynamic.DynamicGraph` must raise
  :class:`~repro.engine.StaleShardError` from every query entry point when
  the source moved without a routed delta — never silently serve stale rows;
* an engine-backed :class:`~repro.engine.LSHIndex` must re-key its one
  bucket table to exactly the table of ``LSHIndex(engine.to_probgraph())``,
  and :meth:`ShardedEngine.repartition` must redistribute rows without
  changing any served float or table entry.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import ProbGraph
from repro.dynamic import DynamicGraph, EdgeBatch
from repro.engine import (
    LSHIndex,
    PGSession,
    ShardedEngine,
    ShardSkewStats,
    StaleShardError,
)
from repro.graph import CSRGraph, complete_graph, kronecker_graph, partition_from_owners

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]
SHARD_COUNTS = [1, 2, 4]
#: Explicit sizes keep resolved params (and cache keys) stable as the graph
#: grows — the documented contract for bit-identity across deltas.
EXPLICIT_PARAMS = {
    "bloom": {"num_bits": 256},
    "khash": {"k": 8},
    "1hash": {"k": 8},
    "kmv": {"k": 8},
    "hll": {"precision": 6},
}


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return kronecker_graph(scale=7, edge_factor=5, seed=21)


def _payload(pg: ProbGraph) -> dict[str, np.ndarray]:
    return pg.sketches.storage_arrays()


def assert_pg_equal(a: ProbGraph, b: ProbGraph) -> None:
    pa, pb = _payload(a), _payload(b)
    assert pa.keys() == pb.keys() and pa
    for name, arr in pa.items():
        assert np.array_equal(arr, pb[name]), name


def assert_table_equal(index: LSHIndex, reference: LSHIndex) -> None:
    assert np.array_equal(index._keys, reference._keys)
    assert np.array_equal(index._verts, reference._verts)


def _stream(dyn, consumers, stream_edges, rng, batch_size=100, deletions=5):
    """Apply ``stream_edges`` in batches (with random deletions) to every consumer."""
    for start in range(0, stream_edges.shape[0], batch_size):
        ins = stream_edges[start: start + batch_size]
        current = dyn.snapshot().edge_array()
        dels = current[
            rng.choice(current.shape[0], size=min(deletions, current.shape[0]), replace=False)
        ]
        delta = dyn.apply(EdgeBatch(insertions=ins, deletions=dels))
        for consumer in consumers:
            consumer.apply_delta(delta)
    return dyn.snapshot()


class TestApplyDeltaBitIdentity:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_full_matrix_patched_equals_rebuild_and_single_process(
        self, graph, representation
    ):
        """5 families × 1/2/4 shards × orientations: patched ≡ fresh ≡ single."""
        params = EXPLICIT_PARAMS[representation]
        edges = graph.edge_array()
        half = edges.shape[0] // 2
        for shards in SHARD_COUNTS:
            for oriented in (False, True):
                rng = np.random.default_rng(11)
                dyn = DynamicGraph(num_vertices=graph.num_vertices)
                dyn.apply_edges(insertions=edges[:half])
                engine = ShardedEngine(
                    dyn, shards, representation=representation,
                    oriented=oriented, seed=3, **params,
                )
                single = ProbGraph(
                    dyn.snapshot(), representation=representation,
                    oriented=oriented, seed=3, **params,
                )
                final = _stream(dyn, [engine, single], edges[half:], rng)
                fresh = ShardedEngine(
                    final, shards, representation=representation,
                    oriented=oriented, seed=3, **params,
                )
                patched = engine.to_probgraph()
                assert_pg_equal(patched, fresh.to_probgraph())
                assert_pg_equal(patched, single)

    def test_routed_queries_match_single_process_after_patching(self, graph):
        edges = graph.edge_array()
        half = edges.shape[0] // 2
        rng = np.random.default_rng(4)
        dyn = DynamicGraph(num_vertices=graph.num_vertices)
        dyn.apply_edges(insertions=edges[:half])
        engine = ShardedEngine(dyn, 3, representation="khash", k=8, seed=3)
        single = ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=3)
        _stream(dyn, [engine, single], edges[half:], rng)
        u = rng.integers(0, dyn.num_vertices, size=200).astype(np.int64)
        v = rng.integers(0, dyn.num_vertices, size=200).astype(np.int64)
        assert np.array_equal(engine.pair_intersections(u, v), single.pair_intersections(u, v))
        routed = engine.pair_jaccard(u[:20], v[:20])
        expected = [single.jaccard(int(a), int(b)) for a, b in zip(u[:20], v[:20])]
        assert np.array_equal(routed, np.asarray(expected))

    def test_cut_edge_deletion_resketches_both_owning_shards(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="kmv", k=8, seed=3)
        owners = engine.partition.owners
        edges = graph.edge_array()
        cut = edges[owners[edges[:, 0]] != owners[edges[:, 1]]]
        assert cut.shape[0] > 0, "hash partitioning must cut some edge on this graph"
        target = cut[:4]
        before = engine.skew_stats().updates
        delta = dyn.apply_edges(deletions=target)
        assert np.array_equal(np.unique(target.ravel()), delta.dirty_vertices)
        patched_rows = engine.apply_delta(delta)
        assert patched_rows == delta.dirty_vertices.shape[0]
        diff = engine.skew_stats().updates - before
        # Deleting a cut edge dirties rows on *both* owning shards.
        assert np.all(diff > 0)
        assert diff.sum() == delta.dirty_vertices.shape[0]
        fresh = ShardedEngine(dyn.snapshot(), 2, representation="kmv", k=8, seed=3)
        assert_pg_equal(engine.to_probgraph(), fresh.to_probgraph())

    @pytest.mark.parametrize("oriented", [False, True])
    def test_vertex_growth_lands_on_different_shards(self, graph, oriented):
        n0 = graph.num_vertices
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(
            dyn, 3, representation="khash", k=8, oriented=oriented, seed=3
        )
        single = ProbGraph(graph, representation="khash", k=8, oriented=oriented, seed=3)
        new_edges = np.asarray(
            [[n0, 1], [n0 + 1, 2], [n0 + 2, 3], [n0 + 3, n0], [n0 + 4, 5], [n0 + 5, 8]]
        )
        delta = dyn.apply_edges(insertions=new_edges)
        engine.apply_delta(delta)
        single.apply_delta(delta)
        grown_owners = engine.partition.owners[n0:]
        assert grown_owners.shape == (6,)
        assert np.unique(grown_owners).shape[0] >= 2, "balanced assignment must spread new rows"
        # The extended partition covers every vertex.
        assert engine.partition.num_vertices == engine.num_vertices
        assert int(engine.partition.shard_sizes().sum()) == engine.num_vertices
        fresh = ShardedEngine(
            dyn.snapshot(), 3, representation="khash", k=8, oriented=oriented, seed=3
        )
        patched = engine.to_probgraph()
        assert_pg_equal(patched, fresh.to_probgraph())
        assert_pg_equal(patched, single)

    def test_delta_must_start_at_engine_graph(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="bloom", num_bits=256, seed=3)
        d1 = dyn.apply_edges(deletions=graph.edge_array()[:2])
        engine.apply_delta(d1)
        with pytest.raises(ValueError, match="does not start"):
            engine.apply_delta(d1)

    def test_empty_shards_patch_and_grow(self):
        base = complete_graph(5)
        dyn = DynamicGraph(base)
        engine = ShardedEngine(dyn, 7, representation="khash", k=8, seed=3)
        assert np.any(engine.partition.shard_sizes() == 0)
        # Growth is balanced, so the two new vertices land on empty shards.
        delta = dyn.apply_edges(insertions=[[5, 0], [6, 1]], deletions=[[0, 1]])
        engine.apply_delta(delta)
        assert np.unique(engine.partition.owners[5:]).shape[0] == 2
        fresh = ShardedEngine(dyn.snapshot(), 7, representation="khash", k=8, seed=3)
        assert_pg_equal(engine.to_probgraph(), fresh.to_probgraph())
        u = np.asarray([0, 5, 6], dtype=np.int64)
        v = np.asarray([6, 1, 2], dtype=np.int64)
        assert np.array_equal(
            engine.pair_intersections(u, v), fresh.pair_intersections(u, v)
        )


class TestStaleness:
    def _engine(self, graph, **kwargs):
        dyn = DynamicGraph(graph)
        kwargs.setdefault("representation", "khash")
        kwargs.setdefault("k", 8)
        return dyn, ShardedEngine(dyn, 2, seed=3, **kwargs)

    def test_out_of_band_mutation_raises_on_every_entry_point(self, graph):
        dyn, engine = self._engine(graph)
        index = engine.lsh_index()
        u = np.asarray([0, 1], dtype=np.int64)
        engine.pair_intersections(u, u)  # fresh: serves fine
        dyn.apply_edges(deletions=graph.edge_array()[:3])  # out-of-band
        with pytest.raises(StaleShardError, match="apply_delta"):
            engine.pair_intersections(u, u)
        with pytest.raises(StaleShardError):
            engine.pair_jaccard(u, u)
        with pytest.raises(StaleShardError):
            engine.top_k_similar_batch(u, 3)
        with pytest.raises(StaleShardError):
            index.query_candidates_batch(u)
        with pytest.raises(StaleShardError):
            index.topk_similar_batch(u, 3)
        with pytest.raises(StaleShardError):
            engine.to_probgraph()

    def test_routed_delta_keeps_serving(self, graph):
        dyn, engine = self._engine(graph)
        u = np.asarray([0, 1], dtype=np.int64)
        delta = dyn.apply_edges(deletions=graph.edge_array()[:3])
        engine.apply_delta(delta)
        expected = ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=3)
        assert np.array_equal(
            engine.pair_intersections(u, u), expected.pair_intersections(u, u)
        )

    def test_noop_batch_resyncs_instead_of_raising(self, graph):
        dyn, engine = self._engine(graph)
        version = dyn.version
        dyn.apply_edges(insertions=graph.edge_array()[:5])  # all present: no-op
        assert dyn.version == version
        engine.pair_intersections(
            np.asarray([0], dtype=np.int64), np.asarray([1], dtype=np.int64)
        )

    def test_csr_built_engine_never_checks(self, graph):
        engine = ShardedEngine(graph, 2, representation="khash", k=8, seed=3)
        assert engine._source is None
        engine.pair_intersections(
            np.asarray([0], dtype=np.int64), np.asarray([1], dtype=np.int64)
        )


class TestSkewAndRepartition:
    def test_skew_stats_accounting(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 4, representation="bloom", num_bits=256, seed=3)
        stats = engine.skew_stats()
        assert stats.num_shards == 4
        assert int(stats.vertices.sum()) == graph.num_vertices
        assert int(stats.edges.sum()) == 2 * graph.num_edges
        assert int(stats.updates.sum()) == 0
        delta = dyn.apply_edges(deletions=graph.edge_array()[:6])
        patched = engine.apply_delta(delta)
        assert int(engine.skew_stats().updates.sum()) == patched

    def test_needs_repartition_trigger(self):
        balanced = ShardSkewStats(
            vertices=np.asarray([10, 10]), edges=np.asarray([40, 40]),
            updates=np.asarray([5, 5]),
        )
        assert balanced.max_imbalance == pytest.approx(1.0)
        assert not balanced.needs_repartition()
        skewed = ShardSkewStats(
            vertices=np.asarray([30, 10]), edges=np.asarray([90, 30]),
            updates=np.asarray([0, 0]),
        )
        assert skewed.vertex_imbalance == pytest.approx(1.5)
        assert skewed.needs_repartition(threshold=1.4)
        assert not skewed.needs_repartition(threshold=1.6)
        empty = ShardSkewStats(
            vertices=np.zeros(2, dtype=np.int64), edges=np.zeros(2, dtype=np.int64),
            updates=np.zeros(2, dtype=np.int64),
        )
        assert empty.max_imbalance == pytest.approx(1.0)

    def test_repartition_is_a_pure_row_shuffle(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 3, representation="kmv", k=8, seed=3)
        index = engine.lsh_index()
        rng = np.random.default_rng(8)
        delta = dyn.apply_edges(deletions=graph.edge_array()[:5])
        engine.apply_delta(delta)
        u = rng.integers(0, dyn.num_vertices, size=100).astype(np.int64)
        v = rng.integers(0, dyn.num_vertices, size=100).astype(np.int64)
        before_pairs = engine.pair_intersections(u, v)
        before_cands = index.query_candidates_batch(u[:10])
        old_owners = engine.partition.owners.copy()
        stats = engine.repartition(seed=101)
        assert int(stats.updates.sum()) == 0
        assert not np.array_equal(engine.partition.owners, old_owners)
        assert np.array_equal(engine.pair_intersections(u, v), before_pairs)
        after_cands = index.query_candidates_batch(u[:10])
        for a, b in zip(before_cands, after_cands):
            assert np.array_equal(a, b)
        fresh = ShardedEngine(dyn.snapshot(), 3, representation="kmv", k=8, seed=3)
        assert_pg_equal(engine.to_probgraph(), fresh.to_probgraph())


class TestShardedLSHPatching:
    @pytest.mark.parametrize("representation", ["khash", "kmv", "1hash"])
    def test_patched_tables_equal_fresh_index(self, graph, representation):
        params = EXPLICIT_PARAMS[representation]
        edges = graph.edge_array()
        half = edges.shape[0] // 2
        for shards in (1, 2, 3, 4):
            rng = np.random.default_rng(6)
            dyn = DynamicGraph(num_vertices=graph.num_vertices)
            dyn.apply_edges(insertions=edges[:half])
            engine = ShardedEngine(
                dyn, shards, representation=representation, seed=3, **params
            )
            index = engine.lsh_index()
            n0 = dyn.num_vertices
            growth = np.asarray([[n0, 0], [n0 + 1, 2], [n0 + 2, 4]])
            final_edges = np.vstack([edges[half:], growth])
            _stream(dyn, [engine], final_edges, rng)
            fresh = ShardedEngine(
                dyn.snapshot(), shards, representation=representation, seed=3,
                **params,
            )
            fresh_index = fresh.lsh_index()
            assert index.num_entries == fresh_index.num_entries
            sources = np.arange(0, dyn.num_vertices, 5, dtype=np.int64)
            want_cands = fresh_index.query_candidates_batch(sources)
            for a, b in zip(index.query_candidates_batch(sources), want_cands):
                assert np.array_equal(a, b)
            got = index.topk_similar_batch(sources, 5)
            want = fresh_index.topk_similar_batch(sources, 5)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.scores, want.scores)
            # After a read the patched table is the single-process table ...
            single = LSHIndex(engine.to_probgraph())
            assert_table_equal(index, single)
            # ... and a repartition leaves it, and every answer, as it was.
            engine.repartition(seed=17)
            for a, b in zip(index.query_candidates_batch(sources), want_cands):
                assert np.array_equal(a, b)
            assert_table_equal(index, single)
            assert_table_equal(index, LSHIndex(engine.to_probgraph()))
            moved = index.topk_similar_batch(sources, 5)
            assert np.array_equal(moved.indices, want.indices)
            assert np.array_equal(moved.scores, want.scores)

    def test_explicit_apply_delta_is_idempotent(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="khash", k=8, seed=3)
        index = engine.lsh_index()
        stale = LSHIndex(engine.to_probgraph())
        delta = dyn.apply_edges(deletions=graph.edge_array()[:4])
        engine.apply_delta(delta)  # marks the index's touched rows; no re-key yet
        fresh = LSHIndex(engine.to_probgraph())
        assert not np.array_equal(stale._keys, fresh._keys)
        assert_table_equal(index, stale)
        rekeyed = index.apply_delta(delta)  # explicit call re-keys now
        assert rekeyed == delta.dirty_vertices.shape[0]
        assert_table_equal(index, fresh)
        assert index.apply_delta(delta) == rekeyed  # idempotent re-key
        assert_table_equal(index, fresh)

    def test_concurrent_reads_flush_marked_rows_once(self):
        """Readers racing to flush the same marked rows all see the patched table."""
        big = kronecker_graph(scale=11, edge_factor=8, seed=21)
        dyn = DynamicGraph(big)
        engine = ShardedEngine(dyn, 2, representation="khash", k=8, seed=3)
        index = engine.lsh_index()
        engine.apply_delta(dyn.apply_edges(deletions=big.edge_array()[::40]))
        fresh = LSHIndex(engine.to_probgraph())
        sources = np.arange(0, big.num_vertices, 7, dtype=np.int64)
        want = fresh.query_candidates_batch(sources)
        results, errors = [], []
        start = threading.Barrier(8)

        def reader():
            try:
                start.wait(timeout=60)
                results.append(index.query_candidates_batch(sources))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(results) == 8
        for got in results:
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert_table_equal(index, fresh)

    def test_delta_racing_the_build_marks_the_new_index(self, graph, monkeypatch):
        """A delta applied while an engine index builds is seen by its next read."""
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="khash", k=8, seed=3)
        delta = dyn.apply_edges(deletions=graph.edge_array()[:6])
        patcher = threading.Thread(target=engine.apply_delta, args=(delta,))
        rebuild = LSHIndex._rebuild

        def rebuild_then_patch(self):
            rebuild(self)
            patcher.start()  # lands between the build and the registration
            patcher.join(timeout=0.2)  # unless the engine's patch lock holds it

        monkeypatch.setattr(LSHIndex, "_rebuild", rebuild_then_patch)
        index = engine.lsh_index()
        monkeypatch.undo()
        patcher.join(timeout=60)
        assert not patcher.is_alive()
        assert index.num_entries > 0  # a read re-keys the marked rows
        assert_table_equal(index, LSHIndex(engine.to_probgraph()))

    def test_apply_delta_requires_patched_engine(self, graph):
        dyn = DynamicGraph(graph)
        stale_engine = ShardedEngine(graph, 2, representation="khash", k=8, seed=3)
        stale_index = stale_engine.lsh_index()
        delta = dyn.apply_edges(deletions=graph.edge_array()[:2])
        with pytest.raises(ValueError, match="patch the engine first"):
            stale_index.apply_delta(delta)

    def test_bloom_fallback_index_survives_patching(self, graph):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="bloom", num_bits=256, seed=3)
        index = engine.lsh_index()
        assert not index.banded
        delta = dyn.apply_edges(deletions=graph.edge_array()[:3])
        engine.apply_delta(delta)
        assert index.apply_delta(delta) == 0
        result = index.topk_similar_batch(np.asarray([0, 1], dtype=np.int64), 3)
        fresh = ShardedEngine(dyn.snapshot(), 2, representation="bloom", num_bits=256, seed=3)
        want = fresh.lsh_index().topk_similar_batch(np.asarray([0, 1], dtype=np.int64), 3)
        assert np.array_equal(result.indices, want.indices)


class TestSessionShardedEntries:
    @pytest.mark.parametrize("oriented", [False, True])
    def test_apply_delta_advances_sharded_built_entries(self, graph, oriented, threaded_build):
        """The session contract: entries hashed in several threads patch in place."""
        session = PGSession()
        dyn = DynamicGraph(graph)
        pg = session.probgraph(
            dyn.snapshot(), representation="khash", k=8, oriented=oriented, seed=3
        )
        assert pg.build_threads > 1
        delta = dyn.apply_edges(
            insertions=[[0, graph.num_vertices - 1]], deletions=graph.edge_array()[:3]
        )
        assert session.apply_delta(delta) == 1
        cached = session.probgraph(
            dyn.snapshot(), representation="khash", k=8, oriented=oriented, seed=3
        )
        assert cached is pg  # advanced, not rebuilt
        assert session.stats.constructions == 1
        fresh = ProbGraph(
            dyn.snapshot(), representation="khash", k=8, oriented=oriented, seed=3
        )
        assert_pg_equal(cached, fresh)


class TestPartitionExtension:
    def test_assign_balanced_prefers_smallest_shard(self):
        partition = partition_from_owners(np.asarray([0, 0, 0, 1]), 2)
        owners = partition.assign_balanced(3)
        assert owners.tolist() == [1, 1, 0]
        assert partition.assign_balanced(0).shape == (0,)

    def test_extend_appends_new_owners(self):
        partition = partition_from_owners(np.asarray([0, 1, 0, 1, 1]), 2)
        extended = partition.extend(np.asarray([1, 0, 0]))
        assert extended.num_vertices == 8
        assert np.array_equal(extended.owners[:5], partition.owners)
        assert extended.owners[5:].tolist() == [1, 0, 0]
        assert extended.shard_sizes().tolist() == [4, 4]

    def test_extend_rejects_bad_owners(self):
        partition = partition_from_owners(np.asarray([0, 1]), 2)
        with pytest.raises(ValueError):
            partition.extend(np.asarray([2]))
        assert partition.extend(np.empty(0, dtype=np.int64)) is partition

    def test_dynamic_graph_version_counts_structural_changes_only(self):
        dyn = DynamicGraph(complete_graph(4))
        v0 = dyn.version
        dyn.apply_edges(insertions=[[0, 1]])  # present already: no-op
        assert dyn.version == v0
        dyn.apply_edges(deletions=[[0, 1]])
        assert dyn.version == v0 + 1
        dyn.apply_edges(deletions=[[0, 1]])  # absent: no-op
        assert dyn.version == v0 + 1


class TestTrajectoryHelper:
    @pytest.fixture()
    def append_run(self):
        spec = importlib.util.spec_from_file_location(
            "_trajectory",
            Path(__file__).resolve().parent.parent / "benchmarks" / "_trajectory.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.append_run

    def test_creates_and_appends_runs(self, tmp_path, append_run):
        path = tmp_path / "BENCH_x.json"
        doc = append_run(path, "x", {"speedup": 2.0})
        assert doc["benchmark"] == "x" and len(doc["runs"]) == 1
        assert "timestamp" in doc["runs"][0]
        doc = append_run(path, "x", {"speedup": 3.0})
        assert len(doc["runs"]) == 2
        assert [r["speedup"] for r in doc["runs"]] == [2.0, 3.0]
        assert json.loads(path.read_text())["runs"][1]["speedup"] == 3.0

    @pytest.mark.parametrize(
        "content",
        ["{not json", json.dumps({"speedup": 9.9}), "[]", json.dumps({"runs": {}})],
        ids=["bad-json", "single-run-dict", "list", "runs-not-a-list"],
    )
    def test_unreadable_file_raises_and_stays_untouched(self, tmp_path, append_run, content):
        path = tmp_path / "BENCH_z.json"
        path.write_text(content)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not overwriting"):
            append_run(path, "z", {"ok": True})
        assert path.read_bytes() == before
        assert not (tmp_path / "BENCH_z.json.tmp").exists()

    def test_runs_carry_their_environment(self, tmp_path, append_run):
        doc = append_run(tmp_path / "BENCH_env.json", "env", {"speedup": 1.0})
        env = doc["runs"][0]["environment"]
        assert env["cpu_count"] == os.cpu_count()
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["commit"], str) and env["commit"]
