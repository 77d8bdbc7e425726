"""Unit tests for the MinHash k-hash and 1-hash (bottom-k) sketches."""

import numpy as np
import pytest

from repro.graph import erdos_renyi_graph, kronecker_graph
from repro.sketches.minhash import (
    BottomKFamily,
    BottomKNeighborhoodSketches,
    BottomKSketch,
    KHashFamily,
    KHashSignature,
)

_EMPTY = np.uint64(np.iinfo(np.uint64).max)


def _sort_common(values, u, v, chunk=65536):
    """Reference ``pair_common``: count adjacent equal non-empty entries of each sorted merge."""
    out = np.empty(u.shape[0], dtype=np.int64)
    for start in range(0, u.shape[0], chunk):
        stop = min(start + chunk, u.shape[0])
        merged = np.concatenate([values[u[start:stop]], values[v[start:stop]]], axis=1)
        merged.sort(axis=1)
        dup = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != _EMPTY)
        out[start:stop] = dup.sum(axis=1)
    return out


def _sort_matches_effective_k(values, k, u, v, chunk=65536):
    """Reference bottom-k kernel: whole-row masks and a distinct-rank cumsum per sorted merge."""
    matches = np.empty(u.shape[0], dtype=np.int64)
    eff_k = np.empty(u.shape[0], dtype=np.int64)
    for start in range(0, u.shape[0], chunk):
        stop = min(start + chunk, u.shape[0])
        merged = np.concatenate([values[u[start:stop]], values[v[start:stop]]], axis=1)
        merged.sort(axis=1)
        valid = merged != _EMPTY
        dup_next = np.zeros_like(valid)
        dup_next[:, :-1] = (merged[:, 1:] == merged[:, :-1]) & valid[:, 1:]
        is_first = valid.copy()
        is_first[:, 1:] &= merged[:, 1:] != merged[:, :-1]
        distinct_total = is_first.sum(axis=1)
        s = np.minimum(k, distinct_total)
        distinct_rank = np.cumsum(is_first, axis=1)
        in_bottom_s = distinct_rank <= s[:, None]
        matches[start:stop] = (is_first & dup_next & in_bottom_s).sum(axis=1)
        eff_k[start:stop] = s
    return matches, eff_k


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


def _assert_bottomk_equals_sort_reference(sketches, u, v):
    ref_matches, ref_s = _sort_matches_effective_k(sketches.values, sketches.k, u, v)
    ref_jaccard = np.zeros(u.shape[0], dtype=np.float64)
    nonzero = ref_s > 0
    ref_jaccard[nonzero] = ref_matches[nonzero] / ref_s[nonzero]
    sizes = sketches.exact_sizes[u] + sketches.exact_sizes[v]
    assert np.array_equal(sketches.pair_jaccard(u, v), ref_jaccard)
    assert np.array_equal(
        sketches.pair_intersections(u, v), ref_jaccard / (1.0 + ref_jaccard) * sizes
    )
    for chunk in (65536, 7):
        matches, eff_k = sketches._pair_matches_effective_k(u, v, chunk=chunk)
        assert np.array_equal(matches, ref_matches)
        assert np.array_equal(eff_k, ref_s)
        common = sketches.pair_common(u, v, chunk=chunk)
        assert np.array_equal(common, _sort_common(sketches.values, u, v, chunk=chunk))


class TestKHashSignature:
    def test_identical_sets_full_agreement(self):
        x = np.arange(100)
        a = KHashSignature.from_set(x, k=32, seed=1)
        b = KHashSignature.from_set(x, k=32, seed=1)
        assert a.matching_slots(b) == 32
        assert a.jaccard(b) == 1.0

    def test_disjoint_sets_low_agreement(self):
        a = KHashSignature.from_set(np.arange(0, 200), k=64, seed=2)
        b = KHashSignature.from_set(np.arange(1000, 1200), k=64, seed=2)
        assert a.jaccard(b) < 0.1

    def test_jaccard_estimate_half_overlap(self):
        # |X∩Y| = 200, |X∪Y| = 400  ->  J = 0.5
        x = np.arange(0, 300)
        y = np.arange(100, 400)
        a = KHashSignature.from_set(x, k=256, seed=3)
        b = KHashSignature.from_set(y, k=256, seed=3)
        assert a.jaccard(b) == pytest.approx(0.5, abs=0.12)

    def test_intersection_cardinality(self):
        x = np.arange(0, 300)
        y = np.arange(100, 400)
        a = KHashSignature.from_set(x, k=256, seed=4)
        b = KHashSignature.from_set(y, k=256, seed=4)
        assert a.intersection_cardinality(b) == pytest.approx(200, rel=0.3)

    def test_exact_size_tracked(self):
        a = KHashSignature.from_set([1, 2, 3, 3, 2], k=8, seed=0)
        assert a.cardinality() == 3

    def test_empty_set(self):
        a = KHashSignature.from_set([], k=8, seed=0)
        b = KHashSignature.from_set([1, 2, 3], k=8, seed=0)
        assert a.cardinality() == 0
        assert a.matching_slots(b) == 0
        assert a.intersection_cardinality(b) == 0.0

    def test_incompatible_rejected(self):
        a = KHashSignature.from_set([1], k=8, seed=0)
        b = KHashSignature.from_set([1], k=16, seed=0)
        c = KHashSignature.from_set([1], k=8, seed=1)
        with pytest.raises(ValueError):
            a.matching_slots(b)
        with pytest.raises(ValueError):
            a.matching_slots(c)
        with pytest.raises(TypeError):
            a.matching_slots(object())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KHashSignature(0)
        with pytest.raises(ValueError):
            KHashFamily(-3)

    def test_storage_bits(self):
        assert KHashSignature(16).storage_bits == 16 * 64


class TestBottomKSketch:
    def test_identical_sets(self):
        x = np.arange(500)
        a = BottomKSketch.from_set(x, k=64, seed=1)
        b = BottomKSketch.from_set(x, k=64, seed=1)
        assert a.common_values(b) == 64
        assert a.jaccard(b) == 1.0

    def test_disjoint_sets(self):
        a = BottomKSketch.from_set(np.arange(0, 300), k=64, seed=2)
        b = BottomKSketch.from_set(np.arange(5000, 5300), k=64, seed=2)
        assert a.jaccard(b) < 0.1

    def test_intersection_estimate(self):
        x = np.arange(0, 300)
        y = np.arange(100, 400)
        a = BottomKSketch.from_set(x, k=128, seed=5)
        b = BottomKSketch.from_set(y, k=128, seed=5)
        assert a.intersection_cardinality(b) == pytest.approx(200, rel=0.4)

    def test_small_set_not_full(self):
        a = BottomKSketch.from_set([3, 9, 27], k=16, seed=0)
        assert a.filled() == 3
        assert a.cardinality() == 3.0

    def test_full_sketch_cardinality_estimate(self):
        a = BottomKSketch.from_set(np.arange(2000), k=128, seed=7)
        assert a.cardinality() == pytest.approx(2000, rel=0.3)

    def test_values_sorted_and_distinct(self):
        a = BottomKSketch.from_set(np.arange(1000), k=64, seed=3)
        vals = a.values
        assert np.all(np.diff(vals.astype(np.float64)) >= 0)
        assert np.unique(vals).size == vals.size

    def test_empty_set(self):
        a = BottomKSketch.from_set([], k=8, seed=0)
        b = BottomKSketch.from_set([1, 2], k=8, seed=0)
        assert a.filled() == 0
        assert a.cardinality() == 0.0
        assert a.common_values(b) == 0

    def test_incompatible_rejected(self):
        a = BottomKSketch.from_set([1], k=8, seed=0)
        with pytest.raises(ValueError):
            a.common_values(BottomKSketch.from_set([1], k=4, seed=0))
        with pytest.raises(TypeError):
            a.common_values(KHashSignature.from_set([1], k=8, seed=0))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BottomKSketch(0)
        with pytest.raises(ValueError):
            BottomKFamily(0)


class TestBatchContainers:
    def _graph(self):
        return erdos_renyi_graph(50, p=0.2, seed=11)

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_batch_matches_single(self, family_cls):
        graph = self._graph()
        fam = family_cls(16, seed=13)
        batch = fam.sketch_neighborhoods(graph.indptr, graph.indices)
        edges = graph.edge_array()[:15]
        batch_est = batch.pair_intersections(edges[:, 0], edges[:, 1])
        for i, (u, v) in enumerate(edges):
            a = fam.sketch(graph.neighbors(int(u)))
            b = fam.sketch(graph.neighbors(int(v)))
            assert batch_est[i] == pytest.approx(a.intersection_cardinality(b), abs=1e-9)

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_batch_sketch_of_matches_family_sketch(self, family_cls):
        graph = self._graph()
        fam = family_cls(8, seed=3)
        batch = fam.sketch_neighborhoods(graph.indptr, graph.indices)
        for v in [0, 7, 23]:
            single = fam.sketch(graph.neighbors(v))
            roundtrip = batch.sketch_of(v)
            assert roundtrip.intersection_cardinality(single) >= 0  # compatible parameters
            if family_cls is KHashFamily:
                assert np.array_equal(roundtrip.signature, single.signature)
            else:
                assert np.array_equal(roundtrip.values, single.values)

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_batch_cardinalities_are_exact_degrees(self, family_cls):
        graph = self._graph()
        batch = family_cls(8, seed=3).sketch_neighborhoods(graph.indptr, graph.indices)
        assert np.array_equal(batch.cardinalities(), graph.degrees.astype(np.float64))

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_batch_jaccard_bounds(self, family_cls):
        graph = self._graph()
        batch = family_cls(16, seed=5).sketch_neighborhoods(graph.indptr, graph.indices)
        edges = graph.edge_array()
        j = batch.pair_jaccard(edges[:, 0], edges[:, 1])
        assert np.all(j >= 0) and np.all(j <= 1)

    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 16, 32])
    def test_bottomk_kernels_equal_sort_reference(self, k, seed, oriented):
        graph = kronecker_graph(scale=8, edge_factor=4, seed=5)
        base = graph.oriented() if oriented else graph
        sketches = BottomKFamily(k, seed=seed).sketch_neighborhoods(base.indptr, base.indices)
        u, v = _oracle_pairs(base, seed)
        _assert_bottomk_equals_sort_reference(sketches, u, v)

    def test_bottomk_kernels_on_hand_made_rows(self):
        e = _EMPTY
        values = np.array(
            [
                [3, 8, 20, 41],
                [3, 9, 20, e],
                [1, 3, 8, e],
                [8, 41, e, e],
                [41, e, e, e],
                [e, e, e, e],
                [2, 3, 8, 2**64 - 1],  # a last value equal to the sentinel reads as empty
                [0, 1, 2, 3],
            ],
            dtype=np.uint64,
        )
        sizes = np.array([9.0, 3.0, 3.0, 2.0, 1.0, 0.0, 4.0, 4.0])
        sketches = BottomKNeighborhoodSketches(values, 4, 0, sizes)
        u, v = (a.ravel() for a in np.meshgrid(np.arange(8), np.arange(8)))
        # (0, 0) then (4, 4): one merged row ends with the value the next starts with.
        u, v = np.append(u, [0, 4]), np.append(v, [0, 4])
        _assert_bottomk_equals_sort_reference(sketches, u, v)

    def test_bottomk_pair_common_chunking(self):
        graph = self._graph()
        batch = BottomKFamily(8, seed=5).sketch_neighborhoods(graph.indptr, graph.indices)
        edges = graph.edge_array()
        full = batch.pair_common(edges[:, 0], edges[:, 1])
        chunked = batch.pair_common(edges[:, 0], edges[:, 1], chunk=7)
        assert np.array_equal(full, chunked)

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_batch_accuracy_against_exact(self, family_cls):
        graph = self._graph()
        batch = family_cls(64, seed=17).sketch_neighborhoods(graph.indptr, graph.indices)
        edges, exact = graph.common_neighbors_all_edges()
        est = batch.pair_intersections(edges[:, 0], edges[:, 1])
        mask = exact > 0
        rel_err = np.abs(est[mask] - exact[mask]) / exact[mask]
        assert np.median(rel_err) < 0.8

    @pytest.mark.parametrize("family_cls", [KHashFamily, BottomKFamily])
    def test_storage_accounting(self, family_cls):
        graph = self._graph()
        fam = family_cls(8, seed=1)
        batch = fam.sketch_neighborhoods(graph.indptr, graph.indices)
        assert batch.num_sets == graph.num_vertices
        assert batch.total_storage_bits == graph.num_vertices * fam.bits_per_set
