"""Unit tests for KMV sketches."""

import numpy as np
import pytest

from repro.core import kmv_intersection_exact_sizes
from repro.graph import erdos_renyi_graph, kronecker_graph
from repro.sketches.kmv import KMVFamily, KMVNeighborhoodSketches, KMVSketch

_EMPTY = 2.0


def _two_sort_union_estimates(values, k, u, v, chunk=65536):
    """Reference KMV union kernel: push repeats to the sentinel and sort each merge again."""
    out = np.empty(u.shape[0], dtype=np.float64)
    for start in range(0, u.shape[0], chunk):
        stop = min(start + chunk, u.shape[0])
        merged = np.concatenate([values[u[start:stop]], values[v[start:stop]]], axis=1)
        merged.sort(axis=1)
        dup = np.zeros_like(merged, dtype=bool)
        dup[:, 1:] = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] < _EMPTY)
        merged[dup] = _EMPTY
        merged.sort(axis=1)
        distinct = (merged < _EMPTY).sum(axis=1)
        kth = merged[:, k - 1]
        full = distinct >= k
        est = distinct.astype(np.float64)
        est[full] = (k - 1) / kth[full]
        out[start:stop] = est
    return out


def _oracle_pairs(graph, seed):
    """Edge pairs, random pairs, ``u == v`` pairs, and pairs on empty rows."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    empty = np.flatnonzero(graph.degrees == 0)
    assert empty.size and np.any((graph.degrees > 0) & (graph.degrees < 4))
    u = np.concatenate([src, rng.integers(0, n, 1500), np.arange(n), empty, empty[::-1]])
    v = np.concatenate([graph.indices, rng.integers(0, n, 1500), np.arange(n),
                        rng.integers(0, n, empty.size), empty])
    return u.astype(np.int64), v.astype(np.int64)


def _assert_kmv_equals_two_sort_reference(sketches, u, v):
    ref = _two_sort_union_estimates(sketches.values, sketches.k, u, v)
    for chunk in (65536, 7):
        assert np.array_equal(sketches.pair_union_estimates(u, v, chunk=chunk), ref)
    ref_inter = kmv_intersection_exact_sizes(sketches.exact_sizes[u], sketches.exact_sizes[v], ref)
    assert np.array_equal(sketches.pair_intersections(u, v), ref_inter)


class TestKMVSketch:
    def test_cardinality_small_set_exact(self):
        sk = KMVSketch.from_set([5, 6, 7], k=16, seed=0)
        assert sk.cardinality() == 3.0

    def test_cardinality_large_set_estimate(self):
        sk = KMVSketch.from_set(np.arange(5000), k=256, seed=1)
        assert sk.cardinality() == pytest.approx(5000, rel=0.25)

    def test_union_estimate(self):
        fam = KMVFamily(256, seed=2)
        a = fam.sketch(np.arange(0, 1000))
        b = fam.sketch(np.arange(500, 1500))
        assert a.union_cardinality(b) == pytest.approx(1500, rel=0.3)

    def test_intersection_with_exact_sizes(self):
        # Inclusion-exclusion on KMV unions is the noisiest estimator in the
        # paper (§IX); with k=512 the union error is a few percent and the
        # intersection lands within ~60% of the truth.
        fam = KMVFamily(512, seed=3)
        a = fam.sketch(np.arange(0, 1000))
        b = fam.sketch(np.arange(500, 1500))
        est = a.intersection_cardinality(b, size_self=1000, size_other=1000)
        assert est == pytest.approx(500, rel=0.6)

    def test_intersection_without_exact_sizes(self):
        fam = KMVFamily(256, seed=4)
        a = fam.sketch(np.arange(0, 800))
        b = fam.sketch(np.arange(0, 800))
        assert a.intersection_cardinality(b) == pytest.approx(800, rel=0.4)

    def test_disjoint_sets_small_intersection(self):
        fam = KMVFamily(128, seed=5)
        a = fam.sketch(np.arange(0, 500))
        b = fam.sketch(np.arange(10_000, 10_500))
        est = a.intersection_cardinality(b, size_self=500, size_other=500)
        assert est < 200

    def test_values_in_unit_interval(self):
        sk = KMVSketch.from_set(np.arange(100), k=16, seed=0)
        filled = sk.values[sk.values <= 1.0]
        assert filled.size == 16
        assert np.all(filled > 0)

    def test_empty_set(self):
        sk = KMVSketch.from_set([], k=8, seed=0)
        assert sk.cardinality() == 0.0
        assert sk.filled() == 0

    def test_incompatible_rejected(self):
        a = KMVSketch.from_set([1], k=8, seed=0)
        with pytest.raises(ValueError):
            a.union_cardinality(KMVSketch.from_set([1], k=4, seed=0))
        with pytest.raises(TypeError):
            a.union_cardinality(object())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KMVSketch(1)
        with pytest.raises(ValueError):
            KMVFamily(1)

    def test_storage_bits(self):
        assert KMVSketch(32).storage_bits == 32 * 64


class TestKMVBatch:
    def _graph(self):
        return erdos_renyi_graph(50, p=0.2, seed=21)

    def test_batch_matches_single(self):
        graph = self._graph()
        fam = KMVFamily(16, seed=7)
        batch = fam.sketch_neighborhoods(graph.indptr, graph.indices)
        edges = graph.edge_array()[:10]
        batch_est = batch.pair_intersections(edges[:, 0], edges[:, 1])
        for i, (u, v) in enumerate(edges):
            a = fam.sketch(graph.neighbors(int(u)))
            b = fam.sketch(graph.neighbors(int(v)))
            single = a.intersection_cardinality(b, size_self=graph.degree(int(u)), size_other=graph.degree(int(v)))
            assert batch_est[i] == pytest.approx(single, abs=1e-6)

    def test_batch_cardinalities(self):
        graph = self._graph()
        batch = KMVFamily(16, seed=7).sketch_neighborhoods(graph.indptr, graph.indices)
        est = batch.cardinalities()
        degs = graph.degrees.astype(np.float64)
        # Most neighborhoods are smaller than k, so the estimates are exact there.
        small = degs < 16
        assert np.array_equal(est[small], degs[small])

    def test_batch_nonnegative_estimates(self):
        graph = self._graph()
        batch = KMVFamily(8, seed=9).sketch_neighborhoods(graph.indptr, graph.indices)
        edges = graph.edge_array()
        est = batch.pair_intersections(edges[:, 0], edges[:, 1])
        assert np.all(est >= 0)

    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 16, 32])
    def test_union_kernel_equals_two_sort_reference(self, k, seed, oriented):
        graph = kronecker_graph(scale=8, edge_factor=4, seed=5)
        base = graph.oriented() if oriented else graph
        sketches = KMVFamily(k, seed=seed).sketch_neighborhoods(base.indptr, base.indices)
        u, v = _oracle_pairs(base, seed)
        _assert_kmv_equals_two_sort_reference(sketches, u, v)

    def test_union_kernel_on_hand_made_rows(self):
        e = _EMPTY
        values = np.array(
            [
                [0.1, 0.25, 0.5, 0.75],
                [0.1, 0.3, 0.5, e],
                [0.05, 0.1, 0.25, e],
                [0.25, 0.75, e, e],
                [0.75, e, e, e],
                [e, e, e, e],
                [0.05, 0.1, 0.25, 1.0],
                [0.2, 0.3, 0.4, 0.6],
            ]
        )
        sizes = np.array([9.0, 3.0, 3.0, 2.0, 1.0, 0.0, 5.0, 12.0])
        sketches = KMVNeighborhoodSketches(values, 4, 0, sizes)
        u, v = (a.ravel() for a in np.meshgrid(np.arange(8), np.arange(8)))
        # (0, 0) then (4, 4): one merged row ends with the value the next starts with.
        u, v = np.append(u, [0, 4]), np.append(v, [0, 4])
        _assert_kmv_equals_two_sort_reference(sketches, u, v)

    def test_storage_accounting(self):
        graph = self._graph()
        fam = KMVFamily(8, seed=1)
        batch = fam.sketch_neighborhoods(graph.indptr, graph.indices)
        assert batch.num_sets == graph.num_vertices
        assert batch.total_storage_bits == graph.num_vertices * fam.bits_per_set
