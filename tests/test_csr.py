"""Unit tests for the CSR graph substrate."""

import hashlib

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.graph import (
    CSRGraph,
    barabasi_albert_graph,
    chung_lu_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    kronecker_graph,
    load_graph,
    planted_clique_graph,
    ring_graph,
    star_graph,
    stochastic_block_model,
    watts_strogatz_graph,
    write_edge_list,
)
from repro.storage import load_graph as load_stored_graph
from repro.storage import save_graph


def _lexsort_oriented(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Reference orientation that sorts the kept ``(src, dst)`` pairs itself.

    It assumes nothing about row order, so ``CSRGraph.oriented()`` (which
    relies on sorted rows) must equal it on every graph the package builds.
    """
    n = graph.num_vertices
    order = np.lexsort((np.arange(n), graph.degrees))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    keep = ranks[src] < ranks[graph.indices]
    out_src, out_dst = src[keep], graph.indices[keep]
    order = np.lexsort((out_dst, out_src))
    out_src, out_dst = out_src[order], out_dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, out_src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, out_dst


def _rows_strictly_increasing(graph: CSRGraph) -> bool:
    row = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    same_row = row[1:] == row[:-1]
    return bool(np.all(np.diff(graph.indices)[same_row] > 0))


def _dynamic_snapshots() -> list[tuple[str, CSRGraph]]:
    """Snapshots after deletions, and after re-insertion with vertex growth."""
    base = kronecker_graph(scale=8, edge_factor=6, seed=3)
    edges = base.edge_array()
    rng = np.random.default_rng(11)
    doomed = edges[rng.choice(edges.shape[0], edges.shape[0] // 3, replace=False)]
    dyn = DynamicGraph(base)
    dyn.apply_edges(deletions=doomed)
    out = [("dynamic-deleted", dyn.snapshot())]
    grown = rng.integers(0, base.num_vertices + 20, (300, 2))
    dyn.apply_edges(insertions=np.concatenate([grown, doomed[:40]]), deletions=doomed[40:45])
    assert dyn.num_vertices > base.num_vertices
    out.append(("dynamic-reinsert-grown", dyn.snapshot()))
    return out


def _package_graphs(tmp_path) -> list[tuple[str, CSRGraph]]:
    """One graph from every place the package makes a ``CSRGraph``."""
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 120, (900, 2))  # duplicates, reversed pairs and self-loops
    kron = kronecker_graph(scale=9, edge_factor=8, seed=42)
    graphs = [
        ("from_edges", CSRGraph.from_edges(raw)),
        ("from_edges-isolated", CSRGraph.from_edges(raw, num_vertices=150)),
        ("subgraph", kron.subgraph(rng.choice(kron.num_vertices, 200, replace=False))),
        ("remove_edges", kron.remove_edges(kron.edge_array()[::3])),
        ("kronecker", kron),
        ("erdos_renyi", erdos_renyi_graph(150, p=0.05, seed=2)),
        ("barabasi_albert", barabasi_albert_graph(150, attach=3, seed=2)),
        ("watts_strogatz", watts_strogatz_graph(150, k=6, rewire_p=0.2, seed=2)),
        ("sbm", stochastic_block_model([60, 60], p_in=0.2, p_out=0.02, seed=2)),
        ("complete", complete_graph(12)),
        ("ring", ring_graph(30)),
        ("star", star_graph(25)),
        ("grid", grid_graph(6, 7)),
        ("planted_clique", planted_clique_graph(120, 10, p=0.05, seed=2)),
        ("chung_lu", chung_lu_graph(300, 1500, seed=2)),
    ]
    graphs += _dynamic_snapshots()
    write_edge_list(kron, tmp_path / "g.el")
    graphs.append(("load_graph", load_graph(tmp_path / "g.el")))
    save_graph(tmp_path / "g.pgsk", kron)
    stored, handle = load_stored_graph(tmp_path / "g.pgsk", mode="mmap")
    graphs.append(("storage.load_graph", stored))
    handle.close()
    return graphs


class TestConstruction:
    def test_from_edges_basic(self, triangle_graph):
        assert triangle_graph.num_vertices == 4
        assert triangle_graph.num_edges == 4

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_neighborhoods_sorted(self, k6):
        for v in range(k6.num_vertices):
            nbrs = k6.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_explicit_num_vertices(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(-1, 2)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(np.array([1, 2, 3]))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_inconsistent_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(2, np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError):
            CSRGraph(2, np.array([0, 1, 5]), np.array([1, 0]))

    def test_networkx_roundtrip(self, k6):
        nx_graph = k6.to_networkx()
        back = CSRGraph.from_networkx(nx_graph)
        assert back == k6

    def test_equality(self, triangle_graph):
        other = CSRGraph.from_edges([(2, 3), (0, 1), (1, 2), (2, 0)])
        assert triangle_graph == other
        assert triangle_graph != CSRGraph.from_edges([(0, 1)])


class TestStructure:
    def test_degrees(self, triangle_graph):
        assert np.array_equal(triangle_graph.degrees, [2, 2, 3, 1])
        assert triangle_graph.degree(2) == 3
        assert triangle_graph.max_degree == 3

    def test_degrees_are_cached_read_only(self, triangle_graph):
        first = triangle_graph.degrees
        assert triangle_graph.degrees is first
        assert np.array_equal(first, np.diff(triangle_graph.indptr))
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 7

    def test_fingerprint_matches_tobytes_digest(self, tmp_path):
        def tobytes_digest(graph):
            h = hashlib.sha1(str(graph.num_vertices).encode())
            h.update(graph.indptr.tobytes())
            h.update(graph.indices.tobytes())
            return h.hexdigest()

        kron = kronecker_graph(scale=9, edge_factor=8, seed=42)
        assert kron.fingerprint() == tobytes_digest(kron)
        save_graph(tmp_path / "g.pgsk", kron)
        stored, handle = load_stored_graph(tmp_path / "g.pgsk", mode="mmap")
        try:
            assert stored.fingerprint() == tobytes_digest(stored) == kron.fingerprint()
        finally:
            handle.close()
        # Every other element of a doubled array: the same graph, strided.
        strided = CSRGraph(
            kron.num_vertices, np.repeat(kron.indptr, 2)[::2], np.repeat(kron.indices, 2)[::2]
        )
        assert not strided.indices.flags.c_contiguous
        assert strided.fingerprint() == tobytes_digest(strided) == kron.fingerprint()

    def test_average_degree(self, k6):
        assert k6.average_degree == pytest.approx(5.0)

    def test_neighbors_out_of_range(self, triangle_graph):
        with pytest.raises(IndexError):
            triangle_graph.neighbors(17)

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_degree_out_of_range(self, triangle_graph, vertex):
        # -1 used to read indptr[0] - indptr[-1], a negative degree.
        with pytest.raises(IndexError, match="out of range"):
            triangle_graph.degree(vertex)

    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.has_edge(1, 0)
        assert not triangle_graph.has_edge(0, 3)

    def test_edge_array_canonical(self, k6):
        edges = k6.edge_array()
        assert edges.shape == (15, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_adjacency_matrix(self, triangle_graph):
        adj = triangle_graph.adjacency_matrix()
        assert adj.shape == (4, 4)
        assert adj.nnz == 8
        assert (adj != adj.T).nnz == 0

    def test_storage_bits(self, k6):
        assert k6.storage_bits == (30 + 7) * 64


class TestExactIntersections:
    def test_merge_and_galloping_agree(self, rng):
        a = np.unique(rng.integers(0, 200, size=60))
        b = np.unique(rng.integers(0, 200, size=60))
        expected = len(set(a.tolist()) & set(b.tolist()))
        assert CSRGraph.intersect_merge(a, b) == expected
        assert CSRGraph.intersect_galloping(a, b) == expected

    def test_galloping_empty_sets(self):
        assert CSRGraph.intersect_galloping(np.array([], dtype=np.int64), np.array([1, 2])) == 0

    @pytest.mark.parametrize("method", ["merge", "galloping", "auto"])
    def test_common_neighbors_methods_agree(self, k6, method):
        # In K6 any two adjacent vertices share the other 4 vertices.
        assert k6.common_neighbors(0, 1, method=method) == 4

    def test_common_neighbors_unknown_method(self, k6):
        with pytest.raises(ValueError):
            k6.common_neighbors(0, 1, method="bogus")

    def test_common_neighbors_pairs_small_and_large_paths_agree(self, er_graph):
        edges = er_graph.edge_array()
        u, v = edges[:300, 0], edges[:300, 1]
        large_path = er_graph.common_neighbors_pairs(u, v)
        small_path = np.array([er_graph.common_neighbors(int(a), int(b)) for a, b in zip(u, v)])
        assert np.array_equal(large_path, small_path)

    def test_common_neighbors_all_edges_triangle(self, triangle_graph):
        edges, counts = triangle_graph.common_neighbors_all_edges()
        # Only the three triangle edges have exactly one common neighbor.
        assert counts.sum() == 3
        assert edges.shape[0] == 4

    def test_common_neighbors_all_edges_triangle_free(self, ring10):
        _, counts = ring10.common_neighbors_all_edges()
        assert counts.sum() == 0


class TestOrientation:
    def test_oriented_edge_count(self, k6):
        oriented = k6.oriented()
        assert oriented.indices.shape[0] == k6.num_edges  # each edge exactly once

    def test_oriented_is_acyclic(self, kron_small):
        import networkx as nx

        oriented = kron_small.oriented()
        dag = nx.DiGraph()
        for v in range(oriented.num_vertices):
            for u in oriented.neighbors(v):
                dag.add_edge(int(v), int(u))
        assert nx.is_directed_acyclic_graph(dag)

    def test_oriented_respects_degree_order(self, star20):
        oriented = star20.oriented()
        # Leaves (degree 1) must point at the hub (degree 19), not vice versa.
        assert oriented.degree(0) == 0
        assert all(oriented.degree(v) == 1 for v in range(1, 20))

    def test_degree_order_ranks_are_permutation(self, kron_small):
        ranks = kron_small.degree_order_ranks()
        assert np.array_equal(np.sort(ranks), np.arange(kron_small.num_vertices))

    @pytest.mark.parametrize(
        "graph",
        [ring_graph(40), grid_graph(5, 8), complete_graph(9), star_graph(30),
         kronecker_graph(scale=9, edge_factor=4, seed=1)],
        ids=["ring", "grid", "complete", "star", "kronecker"],
    )
    def test_degree_order_ranks_break_ties_by_id(self, graph):
        n = graph.num_vertices
        assert np.unique(graph.degrees).size < n // 4  # tie-heavy
        order = np.lexsort((np.arange(n), graph.degrees))
        expected = np.empty(n, dtype=np.int64)
        expected[order] = np.arange(n)
        assert np.array_equal(graph.degree_order_ranks(), expected)

    def test_oriented_equals_lexsort_reference_on_package_graphs(self, tmp_path):
        for name, graph in _package_graphs(tmp_path):
            assert _rows_strictly_increasing(graph), name
            oriented = graph.oriented()
            indptr, indices = _lexsort_oriented(graph)
            assert np.array_equal(oriented.indptr, indptr), name
            assert np.array_equal(oriented.indices, indices), name
            assert _rows_strictly_increasing(oriented), name
            assert oriented.indices.shape[0] == graph.num_edges, name


class TestEditing:
    def test_subgraph_of_clique(self, k10):
        sub = k10.subgraph(np.array([0, 1, 2, 3]))
        assert sub == complete_graph(4)

    def test_subgraph_empty_selection(self, k6):
        sub = k6.subgraph(np.array([], dtype=np.int64))
        assert sub.num_vertices == 0

    def test_remove_edges(self, k6):
        removed = k6.remove_edges(np.array([[0, 1], [2, 3]]))
        assert removed.num_edges == 13
        assert not removed.has_edge(0, 1)
        assert not removed.has_edge(3, 2)

    def test_remove_edges_noop(self, k6):
        assert k6.remove_edges(np.empty((0, 2), dtype=np.int64)) == k6

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0, 1, 2], [3, 4, 5]]),  # once read as (0, 1), (2, 3), (4, 5)
            np.array([0, 1, 2, 3]),
            np.array([[0, -1]]),
            np.array([[0, 8]]),  # past the last vertex: its key was edge (1, 2)'s
        ],
        ids=["2x3", "flat", "negative", "out-of-range"],
    )
    def test_remove_edges_rejects_malformed_input(self, k6, bad):
        with pytest.raises(ValueError):
            k6.remove_edges(bad)
        assert k6.num_edges == 15
