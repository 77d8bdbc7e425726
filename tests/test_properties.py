"""Property-based tests (hypothesis) on the core invariants of sketches, estimators, and graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    bf_intersection_limit,
    bf_size_swamidass,
    jaccard_to_intersection,
    minhash_jaccard,
)
from repro.graph import CSRGraph
from repro.graph.csr import _canonical_edges
from repro.sketches import BloomFamily, BottomKFamily, KHashFamily, KMVFamily

# Strategy for small integer sets (vertex-ID-like).
int_sets = st.sets(st.integers(min_value=0, max_value=5000), min_size=0, max_size=200)
nonempty_sets = st.sets(st.integers(min_value=0, max_value=5000), min_size=1, max_size=200)
edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    min_size=0,
    max_size=150,
)



@st.composite
def messy_edge_lists(draw, ids=st.integers(min_value=0, max_value=40)):
    """Edge lists holding duplicates, reversed pairs and self-loops, shuffled."""
    base = draw(st.lists(st.tuples(ids, ids), max_size=60))
    reversed_pairs = [(v, u) for u, v in base[: draw(st.integers(0, len(base)))]]
    duplicates = base[: draw(st.integers(0, len(base)))]
    loops = [(v, v) for v in draw(st.lists(ids, max_size=5))]
    edges = base + reversed_pairs + duplicates + loops
    return [edges[i] for i in draw(st.permutations(range(len(edges))))]


def _unique_rows(edges) -> np.ndarray:
    """``np.unique(axis=0)`` over the ``(min, max)`` rows of the non-loop edges."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    return np.unique(np.stack([arr.min(axis=1), arr.max(axis=1)], axis=1), axis=0)


def _reference_from_edges(edges, num_vertices) -> CSRGraph:
    """The edge-list-to-CSR formula ``CSRGraph.from_edges`` keeps: unique
    canonical rows, then both directions lexsorted into CSR rows."""
    canon = _unique_rows(edges)
    n = num_vertices if num_vertices is not None else (int(canon.max()) + 1 if canon.size else 0)
    src = np.concatenate([canon[:, 0], canon[:, 1]])
    dst = np.concatenate([canon[:, 1], canon[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    return CSRGraph(n, np.cumsum(indptr), dst[order])


class TestBloomProperties:
    @given(elements=int_sets)
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, elements):
        fam = BloomFamily(1024, 2, seed=3)
        bf = fam.sketch(np.array(sorted(elements), dtype=np.int64))
        if elements:
            assert bool(np.all(bf.contains_many(np.array(sorted(elements), dtype=np.int64))))

    @given(x=int_sets, y=int_sets)
    @settings(max_examples=50, deadline=None)
    def test_and_ones_bounded_by_each_filter(self, x, y):
        fam = BloomFamily(2048, 2, seed=5)
        bx = fam.sketch(np.array(sorted(x), dtype=np.int64))
        by = fam.sketch(np.array(sorted(y), dtype=np.int64))
        assert bx.intersection_ones(by) <= min(bx.ones(), by.ones())
        assert bx.union_ones(by) >= max(bx.ones(), by.ones())

    @given(x=nonempty_sets)
    @settings(max_examples=40, deadline=None)
    def test_self_intersection_estimates_set_size(self, x):
        fam = BloomFamily(8192, 2, seed=7)
        bx = fam.sketch(np.array(sorted(x), dtype=np.int64))
        est = bx.intersection_cardinality(bx)
        assert est == pytest.approx(len(x), rel=0.3, abs=2.0)

    @given(ones=st.integers(min_value=0, max_value=1024))
    @settings(max_examples=50, deadline=None)
    def test_swamidass_monotone_and_nonnegative(self, ones):
        est = bf_size_swamidass(ones, 1024, 2)
        assert est >= 0
        if ones < 1024:
            assert bf_size_swamidass(ones, 1024, 2) <= bf_size_swamidass(min(ones + 1, 1023), 1024, 2) + 1e-9


class TestMinHashProperties:
    @given(x=int_sets, y=int_sets)
    @settings(max_examples=50, deadline=None)
    def test_khash_jaccard_in_unit_interval(self, x, y):
        fam = KHashFamily(16, seed=11)
        a = fam.sketch(np.array(sorted(x), dtype=np.int64))
        b = fam.sketch(np.array(sorted(y), dtype=np.int64))
        assert 0.0 <= a.jaccard(b) <= 1.0

    @given(x=nonempty_sets)
    @settings(max_examples=40, deadline=None)
    def test_khash_identical_sets_jaccard_one(self, x):
        fam = KHashFamily(16, seed=13)
        arr = np.array(sorted(x), dtype=np.int64)
        assert fam.sketch(arr).jaccard(fam.sketch(arr)) == 1.0

    @given(x=nonempty_sets, y=nonempty_sets)
    @settings(max_examples=50, deadline=None)
    def test_bottomk_symmetry(self, x, y):
        fam = BottomKFamily(16, seed=17)
        a = fam.sketch(np.array(sorted(x), dtype=np.int64))
        b = fam.sketch(np.array(sorted(y), dtype=np.int64))
        assert a.intersection_cardinality(b) == pytest.approx(b.intersection_cardinality(a), rel=1e-9)

    @given(x=nonempty_sets, y=nonempty_sets)
    @settings(max_examples=50, deadline=None)
    def test_bottomk_small_sets_exact(self, x, y):
        # When both sets fit entirely inside the sketch, the estimate is exact.
        fam = BottomKFamily(512, seed=19)
        a = fam.sketch(np.array(sorted(x), dtype=np.int64))
        b = fam.sketch(np.array(sorted(y), dtype=np.int64))
        est = a.intersection_cardinality(b)
        assert est == pytest.approx(len(x & y), abs=1e-6)

    @given(matches=st.integers(min_value=0, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_jaccard_to_intersection_bounds(self, matches):
        # J/(1+J) <= 1/2, so the estimate can never exceed half the size sum.
        j = minhash_jaccard(matches, 64)
        inter = jaccard_to_intersection(j, 100, 150)
        assert 0.0 <= inter <= (100 + 150) / 2 + 1e-9

    @given(ones=st.integers(min_value=0, max_value=10_000), b=st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_limit_estimator_linear(self, ones, b):
        assert bf_intersection_limit(ones, b) == pytest.approx(ones / b)


class TestKMVProperties:
    @given(x=nonempty_sets)
    @settings(max_examples=40, deadline=None)
    def test_small_sets_counted_exactly(self, x):
        fam = KMVFamily(256, seed=23)
        sk = fam.sketch(np.array(sorted(x), dtype=np.int64))
        if len(x) < 256:
            assert sk.cardinality() == len(x)

    @given(x=nonempty_sets, y=nonempty_sets)
    @settings(max_examples=40, deadline=None)
    def test_union_at_least_each_side_estimate(self, x, y):
        fam = KMVFamily(64, seed=29)
        a = fam.sketch(np.array(sorted(x), dtype=np.int64))
        b = fam.sketch(np.array(sorted(y), dtype=np.int64))
        union = a.union_cardinality(b)
        assert union >= max(min(len(x), 63), min(len(y), 63)) * 0.5


class TestGraphProperties:
    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_csr_invariants(self, edges):
        graph = CSRGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))
        # Handshake lemma: degree sum equals twice the edge count.
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        # Neighborhoods are sorted, self-loop free, and symmetric.
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)
            assert v not in nbrs
            for u in nbrs:
                assert v in graph.neighbors(int(u))

    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_orientation_preserves_edge_count(self, edges):
        graph = CSRGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))
        oriented = graph.oriented()
        assert oriented.indices.shape[0] == graph.num_edges

    @given(edges=edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_edge_sum_identity_for_triangles(self, edges):
        # TC = (1/3) Σ_E |N_u ∩ N_v| — the identity §VII builds on.
        graph = CSRGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))
        _, counts = graph.common_neighbors_all_edges()
        from repro.algorithms import triangle_count

        assert counts.sum() % 3 == 0
        assert counts.sum() // 3 == int(triangle_count(graph))

    @given(edges=edge_lists, budget=st.sampled_from([0.1, 0.25, 0.33]))
    @settings(max_examples=20, deadline=None)
    def test_probgraph_estimates_nonnegative(self, edges, budget):
        graph = CSRGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))
        if graph.num_vertices == 0 or graph.num_edges == 0:
            return
        from repro.core import ProbGraph

        pg = ProbGraph(graph, "bloom", storage_budget=budget, seed=1)
        e = graph.edge_array()
        est = pg.pair_intersections(e[:, 0], e[:, 1])
        assert np.all(est >= 0)
        assert np.all(np.isfinite(est))

    @given(
        edges=messy_edge_lists(),
        form=st.sampled_from(["list", "int64", "int32"]),
        extra_vertices=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_from_edges_matches_unique_rows_formula(self, edges, form, extra_vertices):
        num_vertices = None
        if extra_vertices is not None:
            num_vertices = max((max(e) for e in edges), default=-1) + 1 + extra_vertices
        edge_input = edges if form == "list" else np.asarray(edges, dtype=form).reshape(-1, 2)
        graph = CSRGraph.from_edges(edge_input, num_vertices=num_vertices)
        expected = _reference_from_edges(edges, num_vertices)
        assert graph == expected
        assert graph.indices.dtype == np.int64
        assert graph.fingerprint() == expected.fingerprint()

    @given(
        edges=messy_edge_lists(
            ids=st.one_of(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=(1 << 31) - 2, max_value=1 << 40),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_edges_match_unique_rows(self, edges):
        # IDs past 2**31 take the np.unique(axis=0) fallback; the rest pack keys.
        assert np.array_equal(_canonical_edges(edges).reshape(-1, 2), _unique_rows(edges))
