"""Unit tests for the ProbGraph class and the storage-budget resolution."""

import numpy as np
import pytest

from repro.core import EstimatorKind, ProbGraph, Representation, resolve_bloom_bits, resolve_minhash_k
from repro.core.budget import MIN_BLOOM_BITS, MIN_SKETCH_K
from repro.graph import CSRGraph


class TestBudget:
    def test_bloom_bits_scale_with_budget(self, kron_small):
        small = resolve_bloom_bits(kron_small, 0.1)
        large = resolve_bloom_bits(kron_small, 0.3)
        assert large.bits_per_vertex >= small.bits_per_vertex
        assert small.bits_per_vertex % 64 == 0

    def test_bloom_minimum(self, triangle_graph):
        res = resolve_bloom_bits(triangle_graph, 0.01)
        assert res.bits_per_vertex == MIN_BLOOM_BITS

    def test_minhash_k_scale_with_budget(self, kron_small):
        small = resolve_minhash_k(kron_small, 0.1)
        large = resolve_minhash_k(kron_small, 0.3)
        assert large.bits_per_vertex >= small.bits_per_vertex
        assert small.bits_per_vertex // 64 >= MIN_SKETCH_K

    def test_relative_memory_close_to_budget(self, kron_small):
        res = resolve_bloom_bits(kron_small, 0.25)
        assert res.relative_memory <= 0.30

    def test_invalid_budget(self, kron_small):
        with pytest.raises(ValueError):
            resolve_bloom_bits(kron_small, 0.0)
        with pytest.raises(ValueError):
            resolve_minhash_k(kron_small, 1.5)

    def test_empty_graph_rejected(self):
        empty = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=0)
        with pytest.raises(ValueError):
            resolve_bloom_bits(empty, 0.2)


class TestRepresentationParsing:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("bf", Representation.BLOOM),
            ("bloom", Representation.BLOOM),
            ("mh", Representation.ONEHASH),
            ("bottomk", Representation.ONEHASH),
            ("1hash", Representation.ONEHASH),
            ("khash", Representation.KHASH),
            ("k-hash", Representation.KHASH),
            ("kmv", Representation.KMV),
            ("hll", Representation.HLL),
            ("hyperloglog", Representation.HLL),
        ],
    )
    def test_aliases(self, alias, expected):
        assert Representation.parse(alias) is expected

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            Representation.parse("quantum")


class TestProbGraph:
    @pytest.mark.parametrize("representation", ["bloom", "khash", "1hash", "kmv"])
    def test_construction_and_describe(self, kron_small, representation):
        pg = ProbGraph(kron_small, representation=representation, storage_budget=0.25, seed=1)
        info = pg.describe()
        assert info["n"] == kron_small.num_vertices
        assert info["m"] == kron_small.num_edges
        assert info["representation"] == Representation.parse(representation).value
        assert pg.relative_memory < 0.6
        assert pg.construction_seconds >= 0

    def test_default_estimators(self, kron_small):
        assert ProbGraph(kron_small, "bloom", 0.2).estimator is EstimatorKind.BF_AND
        assert ProbGraph(kron_small, "khash", 0.2).estimator is EstimatorKind.MINHASH_K
        assert ProbGraph(kron_small, "1hash", 0.2).estimator is EstimatorKind.MINHASH_1
        assert ProbGraph(kron_small, "kmv", 0.2).estimator is EstimatorKind.KMV

    def test_explicit_parameters_override_budget(self, kron_small):
        pg = ProbGraph(kron_small, "bloom", num_bits=512, num_hashes=3)
        assert pg.num_bits == 512 and pg.num_hashes == 3
        pg2 = ProbGraph(kron_small, "1hash", k=7)
        assert pg2.k == 7

    def test_int_card_vs_exact(self, k10):
        pg = ProbGraph(k10, "bloom", num_bits=4096, num_hashes=2, seed=5)
        # In K10, adjacent vertices share the remaining 8 vertices.
        assert pg.int_card(0, 1) == pytest.approx(8, rel=0.3)
        assert pg.exact_int_card(0, 1) == 8

    def test_pair_intersections_shape(self, kron_small):
        pg = ProbGraph(kron_small, "bloom", 0.25, seed=2)
        edges = kron_small.edge_array()[:50]
        est = pg.pair_intersections(edges[:, 0], edges[:, 1])
        assert est.shape == (50,)
        assert np.all(est >= 0)

    def test_estimator_override_per_call(self, kron_small):
        pg = ProbGraph(kron_small, "bloom", 0.25, seed=2)
        edges = kron_small.edge_array()[:20]
        and_est = pg.pair_intersections(edges[:, 0], edges[:, 1], estimator="AND")
        limit_est = pg.pair_intersections(edges[:, 0], edges[:, 1], estimator="L")
        assert not np.allclose(and_est, limit_est) or np.allclose(and_est, 0)

    def test_jaccard_bounds(self, k10):
        pg = ProbGraph(k10, "bloom", num_bits=2048, seed=3)
        j = pg.jaccard(0, 1)
        assert 0.0 <= j <= 1.0

    def test_oriented_sketches_use_out_neighborhoods(self, star20):
        pg = ProbGraph(star20, "bloom", num_bits=256, oriented=True, seed=0)
        # In the oriented star every leaf points at the hub and the hub has no
        # out-neighbors, so all estimated cardinalities are small.
        assert pg.neighborhood_cardinalities().max() <= 2.0

    def test_base_is_the_sketched_graph(self, kron_small):
        oriented = ProbGraph(kron_small, "bloom", num_bits=256, oriented=True, seed=0)
        expected = kron_small.oriented()
        assert np.array_equal(oriented.base.indptr, expected.indptr)
        assert np.array_equal(oriented.base.indices, expected.indices)
        assert np.array_equal(oriented.base_degrees, expected.degrees)
        full = ProbGraph(kron_small, "bloom", num_bits=256, seed=0)
        assert full.base is kron_small
        with pytest.raises(AttributeError):
            full.base = expected

    def test_neighborhood_cardinalities_minhash_exact(self, kron_small):
        pg = ProbGraph(kron_small, "1hash", 0.25)
        assert np.array_equal(pg.neighborhood_cardinalities(), kron_small.degrees.astype(float))

    def test_deterministic_given_seed(self, kron_small):
        a = ProbGraph(kron_small, "bloom", 0.25, seed=9)
        b = ProbGraph(kron_small, "bloom", 0.25, seed=9)
        edges = kron_small.edge_array()[:30]
        assert np.array_equal(
            a.pair_intersections(edges[:, 0], edges[:, 1]),
            b.pair_intersections(edges[:, 0], edges[:, 1]),
        )

    def test_repr_mentions_representation(self, triangle_graph):
        text = repr(ProbGraph(triangle_graph, "bloom", num_bits=64))
        assert "bloom" in text
