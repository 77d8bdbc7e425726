"""Tests for the dynamic-graph subsystem: DynamicGraph, deltas, incremental patching.

The acceptance bar mirrors the engine's: incremental maintenance must be
**bit-identical** to a fresh rebuild on the final graph — for every sketch
family, with and without degree orientation, through insertions, deletions
(slot removal + resketch), and vertex growth — and a patched `PGSession` must
keep serving its cached entries without eviction.
"""

from __future__ import annotations

import copy
import gc
import pickle

import numpy as np
import pytest

from repro.core import ProbGraph
from repro.dynamic import DynamicGraph, EdgeBatch, EdgeStream, changed_rows
from repro.engine import (
    LSHIndex,
    PGSession,
    batched_pair_jaccard,
    engine_stats,
    reset_engine_stats,
)
from repro.engine import lsh as lsh_module
from repro.graph import CSRGraph, kronecker_graph
from repro.sketches.bloom import BloomFamily
from repro.sketches.kmv import KMVFamily
from repro.sketches.minhash import BottomKFamily, KHashFamily

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]

#: Explicit sketch parameters so cache keys stay stable while the graph grows.
EXPLICIT_PARAMS = {
    "bloom": {"num_bits": 256},
    "khash": {"k": 8},
    "1hash": {"k": 8},
    "kmv": {"k": 8},
    "hll": {"precision": 6},
}


def _sketch_arrays(pg: ProbGraph) -> tuple[np.ndarray, np.ndarray]:
    """The raw storage matrix + tracked sizes of a ProbGraph's container."""
    sk = pg.sketches
    payload = getattr(sk, "words", None)
    if payload is None:
        payload = getattr(sk, "signatures", None)
    if payload is None:
        payload = getattr(sk, "registers", None)
    if payload is None:
        payload = sk.values
    return payload, sk.exact_sizes


def assert_bit_identical(patched: ProbGraph, fresh: ProbGraph) -> None:
    a_payload, a_sizes = _sketch_arrays(patched)
    b_payload, b_sizes = _sketch_arrays(fresh)
    assert np.array_equal(a_payload, b_payload)
    assert np.array_equal(a_sizes, b_sizes)


@pytest.fixture(scope="module")
def stream_graph() -> CSRGraph:
    return kronecker_graph(scale=8, edge_factor=6, seed=17)


# ---------------------------------------------------------------------------
# DynamicGraph structural behaviour
# ---------------------------------------------------------------------------
class TestDynamicGraph:
    def test_insert_batches_reach_from_edges_equivalence(self, stream_graph):
        edges = stream_graph.edge_array()
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        for batch in EdgeStream.insert_only(edges, batch_size=97, shuffle=True, seed=3):
            dyn.apply(batch)
        assert dyn.snapshot() == stream_graph

    def test_duplicates_self_loops_and_existing_edges_are_ignored(self):
        dyn = DynamicGraph(num_vertices=4)
        delta = dyn.apply_edges(insertions=[(0, 1), (1, 0), (2, 2), (0, 1)])
        assert delta.inserted_edges.shape[0] == 1
        again = dyn.apply_edges(insertions=[(0, 1)])
        assert again.inserted_edges.shape[0] == 0
        assert again.ins_vertices.size == 0
        assert dyn.num_edges == 1

    def test_deletions_remove_slots(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        dyn = DynamicGraph(CSRGraph.from_edges(edges))
        delta = dyn.apply_edges(deletions=[(0, 1), (3, 2), (1, 3)])  # (1,3) absent
        assert delta.deleted_edges.shape[0] == 2
        assert set(delta.dirty_vertices.tolist()) == {0, 1, 2, 3}
        assert dyn.num_edges == 3
        assert dyn.snapshot() == CSRGraph.from_edges([(0, 2), (0, 3), (1, 2)], num_vertices=4)
        dyn.apply_edges(deletions=[(0, 2)])
        assert dyn.num_edges == 2
        assert dyn.snapshot() == CSRGraph.from_edges([(0, 3), (1, 2)], num_vertices=4)

    def test_reinsert_after_delete(self):
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 1), (1, 2)]))
        dyn.apply_edges(deletions=[(0, 1)])
        assert not dyn.has_edge(0, 1)
        delta = dyn.apply_edges(insertions=[(0, 1)])
        assert delta.inserted_edges.shape[0] == 1  # absent -> present counts as insert
        assert dyn.num_edges == 2
        assert dyn.has_edge(0, 1)
        assert dyn.snapshot() == CSRGraph.from_edges([(0, 1), (1, 2)])

    def test_lookups_at_row_boundaries(self):
        # Rows: 0=[2], 1=[], 2=[0], 3=[4, 5], 4=[3], 5=[3].  A search that runs
        # past row 2's end lands on row 3's first slot, which holds 4; row 1 is
        # empty; row 5 ends the slot array.
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 2), (3, 4), (3, 5)], num_vertices=6))
        assert not dyn.has_edge(2, 4)
        assert not dyn.has_edge(1, 0) and not dyn.has_edge(0, 1)
        assert not dyn.has_edge(5, 4) and not dyn.has_edge(5, 0)
        assert dyn.has_edge(5, 3) and dyn.has_edge(2, 0) and dyn.has_edge(3, 5)
        before = dyn.snapshot()
        noop = dyn.apply_edges(deletions=[(2, 4), (1, 0), (1, 2), (5, 4)])
        assert noop.deleted_edges.shape[0] == 0 and dyn.version == 0
        assert dyn.snapshot() is before
        delta = dyn.apply_edges(deletions=[(5, 3), (2, 4)])  # the array's last slot
        assert delta.deleted_edges.tolist() == [[3, 5]]
        assert dyn.snapshot() == CSRGraph.from_edges([(0, 2), (3, 4)], num_vertices=6)
        # Insert into the empty rows 1 and 5, and past the end of rows 0 and 2.
        delta = dyn.apply_edges(insertions=[(1, 5), (2, 4), (5, 0), (0, 2)])
        assert delta.inserted_edges.tolist() == [[0, 5], [1, 5], [2, 4]]
        expected = [(0, 2), (3, 4), (1, 5), (2, 4), (0, 5)]
        assert dyn.snapshot() == CSRGraph.from_edges(expected, num_vertices=6)
        assert dyn.has_edge(5, 1) and dyn.has_edge(4, 2) and not dyn.has_edge(5, 3)

    def test_huge_vertex_ids_do_not_alias_present_edges(self):
        # (lo + 1)(hi + 1) = 2**64 + 2, so packing this pair as the int64 key
        # lo * (hi + 1) + hi would wrap to 1, the key of edge (0, 1).
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 1), (1, 2)]))
        delta = dyn.apply_edges(deletions=[(239_075_441, 77_158_673_928)])
        assert delta.deleted_edges.shape[0] == 0
        assert dyn.has_edge(0, 1) and dyn.version == 0

    def test_snapshots_share_read_only_arrays(self):
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 1), (1, 2)]))
        first = dyn.apply_edges(insertions=[(0, 2)]).graph
        assert first is dyn.snapshot()
        for arr in (first.indptr, first.indices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7
        second = dyn.apply_edges(deletions=[(0, 1)], insertions=[(2, 3)]).graph
        assert first == CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert second == CSRGraph.from_edges([(1, 2), (0, 2), (2, 3)])

    def test_delete_then_insert_within_one_batch(self):
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 1)], num_vertices=3))
        delta = dyn.apply(EdgeBatch(insertions=[(0, 1), (1, 2)], deletions=[(0, 1)]))
        # Deletions run first: (0,1) is removed, then re-inserted.
        assert dyn.has_edge(0, 1) and dyn.has_edge(1, 2)
        assert 0 in delta.dirty_vertices and 1 in delta.dirty_vertices

    def test_vertex_growth(self):
        dyn = DynamicGraph(num_vertices=2)
        dyn.apply_edges(insertions=[(0, 5)])
        assert dyn.num_vertices == 6
        assert dyn.snapshot() == CSRGraph.from_edges([(0, 5)], num_vertices=6)

    def test_delta_insert_csr_covers_both_endpoints(self):
        dyn = DynamicGraph(num_vertices=5)
        delta = dyn.apply_edges(insertions=[(0, 1), (0, 2)])
        assert delta.ins_vertices.tolist() == [0, 1, 2]
        counts = np.diff(delta.ins_indptr).tolist()
        assert counts == [2, 1, 1]
        assert sorted(delta.ins_indices[:2].tolist()) == [1, 2]

    def test_fingerprints_advance(self, stream_graph):
        dyn = DynamicGraph(stream_graph)
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:3])
        assert delta.old_fingerprint == stream_graph.fingerprint()
        assert delta.new_fingerprint == dyn.snapshot().fingerprint()
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_edge_stream_batching(self):
        edges = np.asarray([(i, i + 1) for i in range(10)], dtype=np.int64)
        stream = EdgeStream.insert_only(edges, batch_size=4)
        assert len(stream) == 3
        assert [b.insertions.shape[0] for b in stream] == [4, 4, 2]
        with pytest.raises(ValueError):
            EdgeStream.insert_only(edges, batch_size=0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DynamicGraph(CSRGraph.from_edges([(0, 1)]), num_vertices=99)
        with pytest.raises(ValueError):
            DynamicGraph(num_vertices=2).apply_edges(insertions=[(-1, 0)])

    @pytest.mark.parametrize(
        "edges", [np.array([[0, 1, 2], [3, 4, 5]]), np.array([0, 1])], ids=["2x3", "flat"]
    )
    def test_edges_of_another_shape_rejected(self, edges):
        """No edge-list entry point reshapes its input into pairs."""
        shape = r"edges must have shape \(m, 2\)"
        dyn = DynamicGraph(num_vertices=6)
        with pytest.raises(ValueError, match=shape):
            dyn.apply_edges(insertions=edges)
        with pytest.raises(ValueError, match=shape):
            dyn.apply_edges(deletions=edges)
        with pytest.raises(ValueError, match=shape):
            EdgeBatch(insertions=edges)
        with pytest.raises(ValueError, match=shape):
            EdgeBatch(deletions=edges)
        with pytest.raises(ValueError, match=shape):
            EdgeStream.insert_only(edges, batch_size=2)
        with pytest.raises(ValueError, match=shape):
            CSRGraph.from_edges(edges)
        assert dyn.num_edges == 0 and dyn.version == 0


# ---------------------------------------------------------------------------
# container-level incremental updates
# ---------------------------------------------------------------------------
class TestContainerUpdates:
    FAMILIES = [
        BloomFamily(256, 2, seed=9),
        KHashFamily(8, seed=9),
        BottomKFamily(8, seed=9),
        KMVFamily(8, seed=9),
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_update_many_matches_rebuild(self, family, stream_graph):
        before = CSRGraph.from_edges(stream_graph.edge_array()[:-40], num_vertices=stream_graph.num_vertices)
        sketches = family.sketch_neighborhoods(before.indptr, before.indices)
        # Feed every vertex the neighbors it is missing relative to the full graph.
        for v in range(stream_graph.num_vertices):
            missing = np.setdiff1d(stream_graph.neighbors(v), before.neighbors(v))
            if missing.size:
                sketches.update_many(v, missing)
        rebuilt = family.sketch_neighborhoods(stream_graph.indptr, stream_graph.indices)
        for attr in ("words", "signatures", "values"):
            if hasattr(sketches, attr):
                assert np.array_equal(getattr(sketches, attr), getattr(rebuilt, attr))
        assert np.array_equal(sketches.exact_sizes, rebuilt.exact_sizes)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_resketch_rows_matches_rebuild(self, family, stream_graph):
        smaller = CSRGraph.from_edges(stream_graph.edge_array()[40:], num_vertices=stream_graph.num_vertices)
        sketches = family.sketch_neighborhoods(stream_graph.indptr, stream_graph.indices)
        touched = np.unique(stream_graph.edge_array()[:40].ravel())
        sketches.resketch_rows(touched, smaller.indptr, smaller.indices)
        rebuilt = family.sketch_neighborhoods(smaller.indptr, smaller.indices)
        for attr in ("words", "signatures", "values"):
            if hasattr(sketches, attr):
                assert np.array_equal(getattr(sketches, attr), getattr(rebuilt, attr))
        assert np.array_equal(sketches.exact_sizes, rebuilt.exact_sizes)

    def test_delta_validation_errors(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        sk = BloomFamily(64, 2, seed=1).sketch_neighborhoods(g.indptr, g.indices)
        with pytest.raises(ValueError):
            sk.apply_delta(np.asarray([0]), np.asarray([0]), np.asarray([2]), np.asarray([2.0]))
        with pytest.raises(ValueError):
            sk.apply_delta(np.asarray([0]), np.asarray([0, 2]), np.asarray([2]), np.asarray([2.0]))
        with pytest.raises(IndexError):
            sk.apply_delta(np.asarray([7]), np.asarray([0, 1]), np.asarray([2]), np.asarray([2.0]))
        with pytest.raises(ValueError):
            sk.grow(1)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_duplicate_delta_vertices_rejected(self, family):
        """Repeated rows in one delta would silently drop elements — must raise."""
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], num_vertices=8)
        sk = family.sketch_neighborhoods(g.indptr, g.indices)
        with pytest.raises(ValueError, match="unique"):
            sk.apply_delta(
                np.asarray([0, 0]),
                np.asarray([0, 1, 2]),
                np.asarray([5, 6]),
                np.asarray([2.0, 3.0]),
            )

    def test_oriented_update_shared_across_entries(self, stream_graph):
        """One delta computes the oriented diff once, however many entries consume it."""
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=stream_graph.edge_array()[:300])
        session = PGSession()
        pgs = [
            session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128,
                              oriented=True, seed=s)
            for s in (0, 1, 2)
        ]
        delta = dyn.apply_edges(insertions=stream_graph.edge_array()[300:400])
        assert session.apply_delta(delta) == 3
        assert len(delta._oriented_memo) == 2  # base + changed, computed once
        shared_base = delta._oriented_memo["base"]
        for pg in pgs:
            assert pg.base is shared_base
            fresh = ProbGraph(dyn.snapshot(), representation="bloom", num_bits=128,
                              oriented=True, seed=pg.seed)
            assert_bit_identical(pg, fresh)


# ---------------------------------------------------------------------------
# ProbGraph.apply_delta
# ---------------------------------------------------------------------------
class TestProbGraphPatching:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("oriented", [False, True])
    def test_mixed_stream_bit_identical_to_fresh_build(self, stream_graph, representation, oriented):
        rng = np.random.default_rng(5)
        edges = stream_graph.edge_array()
        half = edges.shape[0] // 2
        base = CSRGraph.from_edges(edges[:half], num_vertices=stream_graph.num_vertices)
        dyn = DynamicGraph(base)
        params = EXPLICIT_PARAMS[representation]
        pg = ProbGraph(dyn.snapshot(), representation=representation, oriented=oriented, seed=3, **params)
        remaining = edges[half:]
        for start in range(0, remaining.shape[0], 200):
            chunk = remaining[start: start + 200]
            deletions = edges[rng.choice(half, size=5, replace=False)]
            delta = dyn.apply(EdgeBatch(insertions=chunk, deletions=deletions))
            pg.apply_delta(delta)
        fresh = ProbGraph(dyn.snapshot(), representation=representation, oriented=oriented, seed=3, **params)
        assert_bit_identical(pg, fresh)
        u = rng.integers(0, stream_graph.num_vertices, size=300).astype(np.int64)
        v = rng.integers(0, stream_graph.num_vertices, size=300).astype(np.int64)
        assert np.array_equal(pg.pair_intersections(u, v), fresh.pair_intersections(u, v))

    def test_patch_updates_base_degrees_for_jaccard(self, stream_graph):
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=stream_graph.edge_array()[:100])
        pg = ProbGraph(dyn.snapshot(), representation="1hash", k=8, seed=2)
        delta = dyn.apply_edges(insertions=stream_graph.edge_array()[100:200])
        pg.apply_delta(delta)
        fresh = ProbGraph(dyn.snapshot(), representation="1hash", k=8, seed=2)
        for u, v in stream_graph.edge_array()[:20]:
            assert pg.jaccard(int(u), int(v)) == fresh.jaccard(int(u), int(v))

    def test_vertex_growth_grows_sketch_container(self):
        dyn = DynamicGraph(CSRGraph.from_edges([(0, 1), (1, 2)]))
        pg = ProbGraph(dyn.snapshot(), representation="bloom", num_bits=64, seed=1)
        delta = dyn.apply_edges(insertions=[(2, 9), (8, 9)])
        pg.apply_delta(delta)
        assert pg.sketches.num_sets == 10
        fresh = ProbGraph(dyn.snapshot(), representation="bloom", num_bits=64, seed=1)
        assert_bit_identical(pg, fresh)

    def test_only_shallow_copies_follow_deltas(self, stream_graph):
        """A shallow copy shares the rows and advances with them; pickled and
        deep copies own theirs and stay on the old graph."""
        dyn = DynamicGraph(stream_graph)
        pg = ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=1)
        shallow, deep = copy.copy(pg), copy.deepcopy(pg)
        loaded = pickle.loads(pickle.dumps(pg))
        pg.apply_delta(dyn.apply_edges(deletions=stream_graph.edge_array()[:5]))
        assert shallow.graph is pg.graph and shallow.deltas_applied == 1
        original = ProbGraph(stream_graph, representation="khash", k=8, seed=1)
        for other in (deep, loaded):
            assert other.graph == stream_graph and other.deltas_applied == 0
            assert_bit_identical(other, original)

    def test_stale_delta_rejected(self, stream_graph):
        dyn = DynamicGraph(stream_graph)
        delta1 = dyn.apply_edges(deletions=stream_graph.edge_array()[:1])
        dyn.apply_edges(deletions=stream_graph.edge_array()[1:2])
        pg = ProbGraph(stream_graph, representation="bloom", num_bits=64, seed=1)
        pg.apply_delta(delta1)
        with pytest.raises(ValueError):
            pg.apply_delta(delta1)  # already applied; fingerprints no longer match

    def test_session_patch_records_engine_stats(self, stream_graph):
        reset_engine_stats()
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=stream_graph.edge_array()[:50])
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=64, seed=1)
        delta = dyn.apply_edges(insertions=stream_graph.edge_array()[50:80])
        session.apply_delta(delta)
        stats = engine_stats()
        assert stats.patches == 1
        assert stats.patched_rows == delta.num_touched_vertices
        assert pg.deltas_applied == 1
        assert pg.rows_patched == delta.num_touched_vertices


# ---------------------------------------------------------------------------
# changed_rows (the oriented-patch primitive)
# ---------------------------------------------------------------------------
class TestChangedRows:
    def test_identical_graphs_no_rows(self, stream_graph):
        assert changed_rows(stream_graph, stream_graph).size == 0

    def test_detects_content_change_with_equal_degrees(self):
        old = CSRGraph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        new = CSRGraph.from_edges([(0, 1), (2, 1)], num_vertices=4)
        # Vertex 2 keeps degree 1 but its neighbor changed; 1 and 3 change degree.
        assert changed_rows(old, new).tolist() == [1, 2, 3]

    def test_growth_marks_new_nonempty_rows(self):
        old = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        new = CSRGraph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        assert changed_rows(old, new).tolist() == [2, 3]


# ---------------------------------------------------------------------------
# PGSession delta-aware caching
# ---------------------------------------------------------------------------
class TestSessionDeltaPatching:
    def test_patch_advances_keys_and_preserves_references(self, stream_graph):
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=stream_graph.edge_array()[:200])
        session = PGSession()
        pg_plain = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=1)
        pg_oriented = session.probgraph(
            dyn.snapshot(), representation="bloom", num_bits=256, seed=1, oriented=True
        )
        assert session.stats.constructions == 2
        delta = dyn.apply_edges(insertions=stream_graph.edge_array()[200:400])
        assert session.apply_delta(delta) == 2
        assert session.stats.delta_patches == 2
        # Both cached objects were advanced in place and stay cached.
        assert pg_plain.graph is dyn.snapshot() and pg_oriented.graph is dyn.snapshot()
        assert session.cached(pg_plain) and session.cached(pg_oriented)
        # A warm lookup on the new graph returns the patched object: no rebuild.
        again = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=1)
        assert again is pg_plain
        assert session.stats.constructions == 2

    def test_patched_queries_match_fresh_build(self, stream_graph):
        rng = np.random.default_rng(11)
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=stream_graph.edge_array()[:300])
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="khash", k=8, seed=4)
        delta = dyn.apply_edges(
            insertions=stream_graph.edge_array()[300:500],
            deletions=stream_graph.edge_array()[:10],
        )
        session.apply_delta(delta)
        fresh = ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=4)
        u = rng.integers(0, stream_graph.num_vertices, size=500).astype(np.int64)
        v = rng.integers(0, stream_graph.num_vertices, size=500).astype(np.int64)
        assert np.array_equal(session.pair_intersections(pg, u, v), fresh.pair_intersections(u, v))

    def test_unrelated_entries_untouched(self, stream_graph):
        other = kronecker_graph(scale=7, edge_factor=5, seed=99)
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg_other = session.probgraph(other, representation="bloom", num_bits=128, seed=2)
        before = pg_other.sketches.words.copy()
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:5])
        assert session.apply_delta(delta) == 0
        assert np.array_equal(pg_other.sketches.words, before)
        assert pg_other.deltas_applied == 0

    def test_out_of_band_patch_never_serves_wrong_graph(self, stream_graph):
        """Direct ProbGraph.apply_delta on a cached object must not poison lookups."""
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg = session.probgraph(stream_graph, representation="bloom", num_bits=128, seed=1)
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:5])
        pg.apply_delta(delta)  # bypasses session.apply_delta: key is now stale
        # A lookup for the *old* graph must not return the patched object ...
        old_lookup = session.probgraph(stream_graph, representation="bloom", num_bits=128, seed=1)
        assert old_lookup is not pg
        assert old_lookup.graph.fingerprint() == stream_graph.fingerprint()
        # ... and the patched object was re-keyed under its real (new) graph.
        new_lookup = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128, seed=1)
        assert new_lookup is pg

    @pytest.mark.parametrize("oriented", [False, True])
    def test_estimator_view_advances_with_its_entry(self, stream_graph, oriented):
        """A cache hit for another Bloom estimator returns a view of the entry,
        which must follow the entry's deltas, not keep the old graph."""
        n = stream_graph.num_vertices
        edges = stream_graph.edge_array()
        params = {"representation": "bloom", "num_bits": 256, "seed": 1, "oriented": oriented}
        dyn = DynamicGraph(num_vertices=n)
        dyn.apply_edges(insertions=edges[:300])
        session = PGSession()
        entry = session.probgraph(dyn.snapshot(), **params)
        view = session.probgraph(dyn.snapshot(), estimator="L", **params)
        assert view is not entry and view.sketches is entry.sketches
        growth = [(0, n), (n + 1, 3), (n + 4, n + 2)]
        session.apply_delta(dyn.apply_edges(insertions=np.vstack([edges[300:500], growth])))
        assert view.graph is entry.graph is dyn.snapshot() and view.base is entry.base
        assert view.num_vertices == view.sketches.num_sets == n + 5
        assert (view.deltas_applied, view.rows_patched) == (entry.deltas_applied, entry.rows_patched)
        fresh = ProbGraph(dyn.snapshot(), estimator="L", **params)
        rng = np.random.default_rng(3)
        u = rng.integers(0, n + 5, size=400).astype(np.int64)
        v = rng.integers(0, n + 5, size=400).astype(np.int64)
        assert np.array_equal(batched_pair_jaccard(view, u, v), batched_pair_jaccard(fresh, u, v))

    def test_lru_order_preserved_across_patch(self, stream_graph):
        dyn = DynamicGraph(stream_graph)
        session = PGSession(max_entries=2)
        session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128, seed=0)
        session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128, seed=1)
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:2])
        session.apply_delta(delta)
        # seed=0 is still the least recently used entry: adding a third evicts it.
        session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128, seed=2)
        assert session.stats.evictions == 1
        rebuilt = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=128, seed=0)
        assert session.stats.constructions == 4  # seed=0 had to be rebuilt
        assert rebuilt.graph is dyn.snapshot()


# ---------------------------------------------------------------------------
# LSH indexes riding along with session delta patching
# ---------------------------------------------------------------------------
def assert_lsh_bit_identical(patched: LSHIndex, fresh: LSHIndex) -> None:
    """Patched bucket tables must equal a fresh build on the final graph."""
    assert np.array_equal(patched._keys, fresh._keys)
    assert np.array_equal(patched._verts, fresh._verts)


class TestSessionLSHDeltaPatching:
    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    @pytest.mark.parametrize("oriented", [False, True])
    def test_patched_index_bit_identical_to_fresh(self, stream_graph, representation, oriented):
        params = EXPLICIT_PARAMS[representation]
        edges = stream_graph.edge_array()
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=edges[:300])
        session = PGSession()
        pg = session.probgraph(
            dyn.snapshot(), representation=representation, seed=4, oriented=oriented, **params
        )
        index = session.lsh_index(pg)
        # Insert batch, then a delete batch (slot removal + resketch path).
        for step in ({"insertions": edges[300:500]}, {"deletions": edges[:25]}):
            delta = dyn.apply_edges(**step)
            session.apply_delta(delta)
            fresh = LSHIndex(
                ProbGraph(
                    dyn.snapshot(), representation=representation, seed=4,
                    oriented=oriented, **params,
                )
            )
            assert_lsh_bit_identical(index, fresh)
        assert session.stats.lsh_patches == 2
        # The patched index keeps serving: same candidates and same top-k rows
        # as a fresh index on the final graph.
        sources = np.arange(0, stream_graph.num_vertices, 9, dtype=np.int64)
        for got, want in zip(
            index.query_candidates_batch(sources),
            fresh.query_candidates_batch(sources),
        ):
            assert np.array_equal(got, want)
        got = index.topk_similar_batch(sources, 6)
        want = fresh.topk_similar_batch(sources, 6)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)
        # ... and a warm lookup on the patched session returns it: no rebuild.
        assert session.lsh_index(pg) is index
        assert session.stats.lsh_constructions == 1

    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    def test_repeated_band_keys_rekey_like_a_rebuild(self, stream_graph, monkeypatch, representation):
        """With 4-bit band keys most rows hold one key in several bands, so
        the tables are a multiset; a re-key must move each repeat once."""
        real = lsh_module.splitmix64
        monkeypatch.setattr(
            lsh_module, "splitmix64", lambda x, seed=0: real(x, seed) & np.uint64(0xF)
        )
        params = EXPLICIT_PARAMS[representation]
        edges = stream_graph.edge_array()
        dyn = DynamicGraph(num_vertices=stream_graph.num_vertices)
        dyn.apply_edges(insertions=edges[:300])
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation=representation, seed=4, **params)
        index = session.lsh_index(pg)
        keys, valid = index.band_keys(np.arange(pg.num_vertices))
        repeats = [np.unique(row[ok]).shape[0] < np.count_nonzero(ok) for row, ok in zip(keys, valid)]
        assert sum(repeats) > 10
        for step in ({"insertions": edges[300:500]}, {"deletions": edges[:60]}):
            session.apply_delta(dyn.apply_edges(**step))
            fresh = LSHIndex(ProbGraph(dyn.snapshot(), representation=representation, seed=4, **params))
            assert_lsh_bit_identical(index, fresh)

    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    @pytest.mark.parametrize("oriented", [False, True])
    def test_index_outside_a_session_follows_probgraph_deltas(
        self, stream_graph, representation, oriented
    ):
        """``ProbGraph.apply_delta`` marks its patched rows on every live index,
        so a bare ``LSHIndex(pg)`` re-keys them at its next read."""
        n = stream_graph.num_vertices
        edges = stream_graph.edge_array()
        params = {"representation": representation, "seed": 4, "oriented": oriented,
                  **EXPLICIT_PARAMS[representation]}
        dyn = DynamicGraph(num_vertices=n)
        dyn.apply_edges(insertions=edges[:300])
        pg = ProbGraph(dyn.snapshot(), **params)
        index = LSHIndex(pg)
        growth = [(0, n), (n + 1, 3)]
        for step in ({"insertions": np.vstack([edges[300:500], growth])}, {"deletions": edges[:25]}):
            pg.apply_delta(dyn.apply_edges(**step))
            fresh = LSHIndex(ProbGraph(dyn.snapshot(), **params))
            assert index.num_entries == fresh.num_entries  # the read re-keys the marked rows
            assert_lsh_bit_identical(index, fresh)
        sources = np.arange(0, n + 2, 9, dtype=np.int64)
        got, want = index.topk_similar_batch(sources, 6), fresh.topk_similar_batch(sources, 6)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)

    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    def test_opened_index_follows_probgraph_deltas(self, stream_graph, tmp_path, representation):
        """An index attached from a store registers on its ProbGraph like a built one."""
        n = stream_graph.num_vertices
        edges = stream_graph.edge_array()
        params = {"representation": representation, "seed": 4, **EXPLICIT_PARAMS[representation]}
        dyn = DynamicGraph(num_vertices=n)
        dyn.apply_edges(insertions=edges[:300])
        pg = ProbGraph(dyn.snapshot(), **params)
        LSHIndex(pg).save(tmp_path / "t.pgsk")
        with LSHIndex.open(tmp_path / "t.pgsk", pg) as index:
            pg.apply_delta(dyn.apply_edges(insertions=np.vstack([edges[300:500], [(0, n)]])))
            fresh = LSHIndex(ProbGraph(dyn.snapshot(), **params))
            assert index.num_entries == fresh.num_entries
            assert_lsh_bit_identical(index, fresh)

    def test_released_index_leaves_the_probgraph(self, stream_graph):
        """The registration is weak: a dropped index is neither kept alive nor marked."""
        params = {"representation": "khash", "k": 8, "seed": 4}
        dyn = DynamicGraph(stream_graph)
        pg = ProbGraph(dyn.snapshot(), **params)
        kept, dropped = LSHIndex(pg), LSHIndex(pg)
        assert set(pg._lsh_indexes) == {kept, dropped}
        del dropped
        gc.collect()
        assert set(pg._lsh_indexes) == {kept}
        pg.apply_delta(dyn.apply_edges(deletions=stream_graph.edge_array()[:5]))
        fresh = LSHIndex(ProbGraph(dyn.snapshot(), **params))
        assert kept.num_entries == fresh.num_entries  # the read re-keys the marked rows
        assert_lsh_bit_identical(kept, fresh)

    def test_vertex_growing_delta_extends_tables(self, stream_graph):
        n = stream_graph.num_vertices
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="khash", k=8, seed=2)
        index = session.lsh_index(pg)
        delta = dyn.apply_edges(insertions=[(0, n + 3), (n + 1, n + 2)])
        session.apply_delta(delta)
        fresh = LSHIndex(ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=2))
        assert_lsh_bit_identical(index, fresh)
        assert np.array_equal(index.query_candidates(n + 1), fresh.query_candidates(n + 1))

    def test_fallback_index_rides_along(self, stream_graph):
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=1)
        index = session.lsh_index(pg)
        assert not index.banded
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:5])
        session.apply_delta(delta)
        # The (0, 0)-keyed fallback entry advanced with its sketch set.
        assert session.lsh_index(pg) is index
        assert session.stats.lsh_constructions == 1
        fresh = ProbGraph(dyn.snapshot(), representation="bloom", num_bits=256, seed=1)
        sources = np.asarray([0, 7, 19], dtype=np.int64)
        got = index.topk_similar_batch(sources, 5)
        want = LSHIndex(fresh).topk_similar_batch(sources, 5)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)

    def test_index_of_evicted_sketch_set_is_invalidated(self, stream_graph):
        """An index whose sketch set fell out of the cache before the delta
        cannot be patched (its ProbGraph no longer advances) — it must be
        dropped, never served stale."""
        dyn = DynamicGraph(stream_graph)
        session = PGSession(max_entries=1)
        pg = session.probgraph(dyn.snapshot(), representation="khash", k=8, seed=4)
        session.lsh_index(pg)
        # Build a second sketch set: max_entries=1 evicts pg's entry.
        session.probgraph(stream_graph, representation="khash", k=8, seed=5)
        assert not session.cached(pg)
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:5])
        session.apply_delta(delta)
        assert session.stats.lsh_invalidations == 1
        # The next lookup patches nothing silently — it rebuilds fresh.
        pg.apply_delta(delta)
        rebuilt = session.lsh_index(pg)
        assert session.stats.lsh_constructions == 2
        assert_lsh_bit_identical(
            rebuilt, LSHIndex(ProbGraph(dyn.snapshot(), representation="khash", k=8, seed=4))
        )

    def test_out_of_band_patch_rekeys_the_cached_index(self, stream_graph):
        """A lookup after ``pg.apply_delta`` outside the session returns pg's
        cached index under pg's new key, instead of building a second one
        and stranding the first under the old key."""
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="khash", k=8, seed=4)
        first = session.lsh_index(pg)
        rng = np.random.default_rng(3)
        pg.apply_delta(dyn.apply_edges(insertions=rng.integers(0, 256, size=(200, 2))))
        assert session.lsh_index(pg) is first
        assert session.stats.lsh_constructions == 1
        assert len(session._lsh_cache) == 1
        fresh = LSHIndex(pg)
        assert first.num_entries == fresh.num_entries  # a read re-keys the marked rows
        assert_lsh_bit_identical(first, fresh)
        assert session.lsh_index(pg) is first  # now a plain hit under the new key
        assert session.stats.lsh_constructions == 1

    def test_out_of_band_patch_never_serves_wrong_tables(self, stream_graph):
        """Direct ProbGraph.apply_delta on an indexed sketch set must not let a
        later lookup for the *old* graph serve the patched tables."""
        dyn = DynamicGraph(stream_graph)
        session = PGSession()
        pg = session.probgraph(dyn.snapshot(), representation="khash", k=8, seed=4)
        stale = session.lsh_index(pg)
        delta = dyn.apply_edges(deletions=stream_graph.edge_array()[:5])
        pg.apply_delta(delta)  # bypasses session.apply_delta: key is now stale
        old_pg = session.probgraph(stream_graph, representation="khash", k=8, seed=4)
        fresh = session.lsh_index(old_pg)
        assert fresh is not stale
        assert session.stats.lsh_invalidations == 1
        assert_lsh_bit_identical(
            fresh, LSHIndex(ProbGraph(stream_graph, representation="khash", k=8, seed=4))
        )
