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
from repro.core import ProbGraph
from repro.graph import CSRGraph, complete_graph, erdos_renyi_graph, stochastic_block_model


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
