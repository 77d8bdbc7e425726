"""Tests for 4-clique counting, vertex similarity, and Jarvis–Patrick clustering."""

import numpy as np
import pytest

from repro.algorithms import (
    SimilarityMeasure,
    default_threshold,
    four_clique_count,
    jarvis_patrick_clustering,
    similarity,
    similarity_scores,
)
from repro.core import EstimatorKind, ProbGraph
from repro.core.estimators import bf_intersection_and, bf_intersection_limit
from repro.graph import (
    CSRGraph,
    complete_graph,
    erdos_renyi_graph,
    kronecker_graph,
    stochastic_block_model,
)
from repro.sketches.bloom import BloomNeighborhoodSketches

FAMILIES = ["bloom", "khash", "1hash", "kmv", "hll"]

#: Estimator kinds 4-clique counting honours on each family.
CLIQUE_ESTIMATORS = {"bloom": {"AND", "L"}, "khash": {"kH"}, "1hash": {"1H"}, "kmv": {"KMV"}, "hll": {"HLL"}}

#: The graphs the batched count is checked on against the per-edge reference.
REFERENCE_GRAPHS = {
    "k10": lambda: complete_graph(10),
    "er200": lambda: erdos_renyi_graph(200, 0.1, seed=3),
    "kron8": lambda: kronecker_graph(scale=8, edge_factor=8, seed=1),
}


def per_edge_reference(pg: ProbGraph, estimator: str = "AND") -> float:
    """The per-edge scalar 4-clique loop, kept as the batched path's reference.

    For every oriented edge ``u → v`` it intersects ``N+_u`` and ``N+_v`` into
    ``C3``; Bloom filters then score ``B_u & B_v & B_w`` per ``w ∈ C3``, and
    the other families sketch ``C3`` alone and make one scalar
    ``intersection_cardinality`` call per ``w`` (estimated sizes).
    """
    base = pg.graph.oriented()
    indptr, indices = base.indptr, base.indices
    sketches = pg.sketches
    total = 0.0
    for u in range(base.num_vertices):
        nu = indices[indptr[u]: indptr[u + 1]]
        for v in nu:
            c3 = np.intersect1d(nu, indices[indptr[v]: indptr[v + 1]], assume_unique=True)
            if c3.size == 0:
                continue
            if isinstance(sketches, BloomNeighborhoodSketches):
                words = sketches.words
                ones = np.bitwise_count((words[u] & words[v])[None, :] & words[c3]).sum(axis=1)
                if estimator == "AND":
                    ests = bf_intersection_and(ones, sketches.num_bits, sketches.num_hashes)
                else:
                    ests = bf_intersection_limit(ones, sketches.num_hashes)
                total += float(np.sum(ests))
                continue
            c3_sketch = pg.family.sketch(c3)
            for w in c3:
                total += float(
                    sketches.sketch_of(int(w)).intersection_cardinality(
                        c3_sketch, size_self=None, size_other=None
                    )
                )
    return total


class TestFourCliqueCount:
    @pytest.mark.parametrize("n,expected", [(4, 1), (5, 5), (6, 15), (8, 70)])
    def test_complete_graphs(self, n, expected):
        assert int(four_clique_count(complete_graph(n))) == expected

    def test_no_cliques_in_triangle(self, triangle_graph):
        assert int(four_clique_count(triangle_graph)) == 0

    def test_triangle_free_graph(self, ring10):
        assert int(four_clique_count(ring10)) == 0

    def test_matches_networkx_enumeration(self, er_graph):
        import itertools

        import networkx as nx

        g = er_graph.to_networkx()
        expected = 0
        for clique in nx.enumerate_all_cliques(g):
            if len(clique) == 4:
                expected += 1
            elif len(clique) > 4:
                expected += len(list(itertools.combinations(clique, 4))) * 0  # enumerate_all_cliques yields all sizes
        # enumerate_all_cliques yields every clique of every size exactly once,
        # so counting the size-4 entries is the exact 4-clique count.
        assert int(four_clique_count(er_graph)) == expected

    def test_pg_bloom_estimate(self, k10):
        pg = ProbGraph(k10, "bloom", num_bits=4096, num_hashes=2, oriented=True, seed=1)
        assert float(four_clique_count(pg)) == pytest.approx(210, rel=0.35)

    def test_pg_hll_estimate(self, k10):
        pg = ProbGraph(k10, "hll", precision=6, oriented=True, seed=1)
        assert float(four_clique_count(pg)) == pytest.approx(210, rel=0.35)

    def test_pg_minhash_estimate(self, k10):
        pg = ProbGraph(k10, "1hash", k=32, oriented=True, seed=2)
        assert float(four_clique_count(pg)) == pytest.approx(210, rel=0.5)

    def test_pg_requires_oriented_sketches(self, k6):
        pg = ProbGraph(k6, "bloom", num_bits=256, oriented=False)
        with pytest.raises(ValueError):
            four_clique_count(pg)

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            four_clique_count(42)

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("graph_name", list(REFERENCE_GRAPHS))
    def test_batched_count_matches_per_edge_reference(self, graph_name, family, seed):
        pg = ProbGraph(REFERENCE_GRAPHS[graph_name](), family, oriented=True, seed=seed)
        expected = per_edge_reference(pg)
        assert expected > 0
        assert float(four_clique_count(pg)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("graph_name", list(REFERENCE_GRAPHS))
    def test_bloom_limit_estimator_matches_per_edge_reference(self, graph_name):
        pg = ProbGraph(REFERENCE_GRAPHS[graph_name](), "bloom", oriented=True, seed=1)
        result = four_clique_count(pg, estimator="L")
        assert result.method == "pg-bloom-L"
        assert float(result) == pytest.approx(per_edge_reference(pg, "L"), rel=1e-12)

    @pytest.mark.parametrize(
        "family,kind",
        [(f, k.value) for f in FAMILIES for k in EstimatorKind if k.value not in CLIQUE_ESTIMATORS[f]],
    )
    def test_rejects_estimator_kinds_it_cannot_honour(self, k6, family, kind):
        pg = ProbGraph(k6, family, oriented=True, seed=1)
        with pytest.raises(ValueError, match=repr(kind)):
            four_clique_count(pg, estimator=kind)

    def test_bloom_or_names_the_supported_kinds(self, k6):
        pg = ProbGraph(k6, "bloom", num_bits=256, oriented=True, seed=1, estimator="OR")
        for estimator in (None, "OR"):
            with pytest.raises(ValueError, match="'AND' and 'L'"):
                four_clique_count(pg, estimator=estimator)
        assert four_clique_count(pg, estimator="AND").method == "pg-bloom-AND"

    @pytest.mark.parametrize("family", [None] + FAMILIES)
    def test_triangle_free_and_edgeless_graphs_count_zero(self, ring10, family):
        edgeless = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=6)
        for graph in (ring10, edgeless):
            target = graph if family is None else ProbGraph(graph, family, oriented=True, seed=1)
            assert float(four_clique_count(target)) == 0.0


class TestSimilarity:
    def test_jaccard_exact(self, k6):
        # Adjacent vertices in K6: |N_u ∩ N_v| = 4, |N_u ∪ N_v| = 6.
        assert similarity(k6, 0, 1, SimilarityMeasure.JACCARD) == pytest.approx(4 / 6)

    def test_overlap_exact(self, k6):
        assert similarity(k6, 0, 1, SimilarityMeasure.OVERLAP) == pytest.approx(4 / 5)

    def test_common_and_total_neighbors(self, k6):
        assert similarity(k6, 0, 1, SimilarityMeasure.COMMON_NEIGHBORS) == 4
        assert similarity(k6, 0, 1, SimilarityMeasure.TOTAL_NEIGHBORS) == 6

    def test_preferential_attachment(self, star20):
        assert similarity(star20, 1, 2, SimilarityMeasure.PREFERENTIAL_ATTACHMENT) == 1.0
        assert similarity(star20, 0, 1, SimilarityMeasure.PREFERENTIAL_ATTACHMENT) == 19.0

    def test_adamic_adar_and_resource_allocation(self, triangle_graph):
        # Vertices 0 and 1 share exactly one neighbor (vertex 2, degree 3).
        aa = similarity(triangle_graph, 0, 1, SimilarityMeasure.ADAMIC_ADAR)
        ra = similarity(triangle_graph, 0, 1, SimilarityMeasure.RESOURCE_ALLOCATION)
        assert aa == pytest.approx(1 / np.log(3))
        assert ra == pytest.approx(1 / 3)

    def test_no_common_neighbors(self, path_graph):
        assert similarity(path_graph, 0, 4, SimilarityMeasure.JACCARD) == 0.0
        assert similarity(path_graph, 0, 4, SimilarityMeasure.ADAMIC_ADAR) == 0.0

    def test_batch_scores_match_singles(self, er_graph):
        pairs = er_graph.edge_array()[:30]
        batch = similarity_scores(er_graph, pairs, SimilarityMeasure.JACCARD)
        singles = [similarity(er_graph, int(u), int(v), SimilarityMeasure.JACCARD) for u, v in pairs]
        assert np.allclose(batch, singles)

    def test_pg_scores_close_to_exact(self, k10):
        pg = ProbGraph(k10, "bloom", num_bits=4096, seed=1)
        pairs = k10.edge_array()
        exact = similarity_scores(k10, pairs, SimilarityMeasure.JACCARD)
        approx = similarity_scores(pg, pairs, SimilarityMeasure.JACCARD)
        assert np.allclose(exact, approx, atol=0.25)

    def test_neighbor_identity_measures_rejected_on_pg(self, k6):
        pg = ProbGraph(k6, "bloom", num_bits=256)
        with pytest.raises(ValueError):
            similarity_scores(pg, k6.edge_array(), SimilarityMeasure.ADAMIC_ADAR)

    def test_scores_bounded(self, er_graph):
        pairs = er_graph.edge_array()
        for measure in (SimilarityMeasure.JACCARD, SimilarityMeasure.OVERLAP):
            scores = similarity_scores(er_graph, pairs, measure)
            assert np.all((scores >= 0) & (scores <= 1))

    def test_unknown_measure_rejected(self, k6):
        with pytest.raises(ValueError):
            similarity_scores(k6, k6.edge_array(), "cosine")

    def test_rejects_unknown_graph_type(self):
        with pytest.raises(TypeError):
            similarity_scores("graph", np.array([[0, 1]]), SimilarityMeasure.JACCARD)


class TestClustering:
    def test_two_cliques_with_bridge(self):
        # Two K4s joined by one bridge edge: common-neighbor clustering at tau=1
        # drops the bridge and finds the two cliques.
        edges = []
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((base + i, base + j))
        edges.append((3, 4))  # bridge
        graph = CSRGraph.from_edges(edges)
        result = jarvis_patrick_clustering(graph, SimilarityMeasure.COMMON_NEIGHBORS, threshold=1)
        assert result.num_clusters == 2
        assert result.num_kept_edges == 12

    def test_high_threshold_gives_singletons(self, k6):
        result = jarvis_patrick_clustering(k6, SimilarityMeasure.COMMON_NEIGHBORS, threshold=100)
        assert result.num_clusters == 6

    def test_low_threshold_gives_one_cluster(self, k6):
        result = jarvis_patrick_clustering(k6, SimilarityMeasure.COMMON_NEIGHBORS, threshold=0)
        assert result.num_clusters == 1

    def test_cluster_sizes_sum_to_n(self, sbm_graph):
        result = jarvis_patrick_clustering(sbm_graph, SimilarityMeasure.JACCARD, threshold=0.05)
        assert result.cluster_sizes().sum() == sbm_graph.num_vertices

    def test_default_thresholds(self):
        assert default_threshold(SimilarityMeasure.COMMON_NEIGHBORS) == 2.0
        assert 0 < default_threshold(SimilarityMeasure.JACCARD) < 1

    def test_pg_clustering_recovers_communities(self):
        graph = stochastic_block_model([60, 60], p_in=0.4, p_out=0.002, seed=2)
        exact = jarvis_patrick_clustering(graph, SimilarityMeasure.COMMON_NEIGHBORS, threshold=5)
        pg = ProbGraph(graph, "1hash", storage_budget=0.33, seed=3)
        approx = jarvis_patrick_clustering(pg, SimilarityMeasure.COMMON_NEIGHBORS, threshold=5)
        assert exact.num_clusters == 2
        assert approx.num_clusters in (1, 2, 3)

    def test_empty_graph(self):
        empty = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=4)
        result = jarvis_patrick_clustering(empty, SimilarityMeasure.JACCARD)
        assert result.num_clusters == 4

    def test_rejects_unknown_graph_type(self):
        with pytest.raises(TypeError):
            jarvis_patrick_clustering([1, 2, 3])

    def test_threshold_keeps_fewer_edges_when_raised(self, er_graph):
        low = jarvis_patrick_clustering(er_graph, SimilarityMeasure.COMMON_NEIGHBORS, threshold=1)
        high = jarvis_patrick_clustering(er_graph, SimilarityMeasure.COMMON_NEIGHBORS, threshold=5)
        assert high.num_kept_edges <= low.num_kept_edges
