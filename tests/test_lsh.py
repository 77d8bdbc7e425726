"""Recall-contract harness for the LSH banding index (`repro.engine.lsh`).

The index is *approximate by design*, so the acceptance bar is a set of
contracts rather than bit-equality with the full scan:

* **Deterministic guarantees** — pairs whose signatures agree on every used
  slot always collide; by pigeonhole, any k-hash pair with fewer than ``b``
  mismatched slots collides; at ``r = 1`` every pair with a nonzero k-hash
  similarity estimate is a candidate (so top-k recall vs the full scan is
  exactly 1.0).
* **S-curve lower bounds** — measured candidate recall, bucketed by estimated
  similarity, stays above the ``1 − (1 − s^r)^b`` prediction minus a
  statistical slack, across graphs × budgets × (b, r) splits.
* **Exact bit-identity** — ``exact=True`` and the Bloom/HLL families return
  exactly the full-scan path's floats, whether a (k, 1) k-hash index answers
  from its band tables or the scan runs, and every served LSH row equals
  the full scan restricted to the candidate set.
* **Sharded ≡ single-process** — an engine-backed index holds the same
  bucket table, and returns the same candidates, the same top-k rows, and
  the same fallback results, as one index over the assembled whole-graph
  ProbGraph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DEFAULT_LSH_THRESHOLD,
    LSHResolution,
    ProbGraph,
    lsh_collision_probability,
    resolve_lsh_params,
)
from repro.dynamic import DynamicGraph
from repro.engine import (
    LSHIndex,
    PGSession,
    ShardedEngine,
    engine_stats,
    reset_engine_stats,
    select_topk_rows,
    signature_matrix,
    topk_per_source,
)
from repro.engine import lsh as lsh_module
from repro.graph import CSRGraph, kronecker_graph

BANDED = ["khash", "1hash", "kmv"]
FALLBACK = ["bloom", "hll"]


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return kronecker_graph(scale=8, edge_factor=6, seed=23)


@pytest.fixture(scope="module")
def medium_graph() -> CSRGraph:
    return kronecker_graph(scale=11, edge_factor=8, seed=1)


def _pg(graph, representation, k=16, seed=5, **kwargs):
    return ProbGraph(graph, representation=representation, k=k, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# parameter resolution (core/budget.py)
# ---------------------------------------------------------------------------
class TestResolveLSHParams:
    def test_scurve_midpoint_and_probability(self):
        res = LSHResolution(8, 2, 16, 0.3)
        assert res.slots_used == 16
        assert res.curve_threshold == pytest.approx((1 / 8) ** 0.5)
        assert res.collision_probability(0.0) == 0.0
        assert res.collision_probability(1.0) == 1.0
        # hand-computed 1 - (1 - s^2)^8 at s = 0.5
        assert res.collision_probability(0.5) == pytest.approx(1 - 0.75**8)

    def test_collision_probability_array_and_monotone(self):
        s = np.linspace(0, 1, 33)
        p = lsh_collision_probability(s, 8, 2)
        assert isinstance(p, np.ndarray) and p.shape == s.shape
        assert np.all(np.diff(p) >= 0)
        assert isinstance(lsh_collision_probability(0.4, 8, 2), float)

    def test_resolution_tracks_threshold(self):
        # Higher target thresholds resolve to steeper (larger-r) splits.
        r_of = {t: resolve_lsh_params(16, t).rows_per_band for t in (0.1, 0.5, 0.9)}
        assert r_of[0.1] <= r_of[0.5] <= r_of[0.9]
        for t in (0.1, 0.5, 0.9):
            res = resolve_lsh_params(16, t)
            assert res.slots_used <= 16
            # No feasible split is strictly closer to the target.
            best_gap = abs(res.curve_threshold - t)
            for r in range(1, 17):
                alt = LSHResolution(16 // r, r, 16, t)
                assert best_gap <= abs(alt.curve_threshold - t) + 1e-12

    def test_default_is_recall_heavy(self):
        res = resolve_lsh_params(16)
        assert res.target_threshold == DEFAULT_LSH_THRESHOLD
        assert (res.num_bands, res.rows_per_band) == (16, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_lsh_params(0)
        with pytest.raises(ValueError, match="lie in"):
            resolve_lsh_params(16, 0.0)
        with pytest.raises(ValueError, match="lie in"):
            resolve_lsh_params(16, 1.0)


# ---------------------------------------------------------------------------
# index construction
# ---------------------------------------------------------------------------
class TestConstruction:
    @pytest.mark.parametrize("representation", BANDED)
    def test_banded_families_build_tables(self, graph, representation):
        index = LSHIndex(_pg(graph, representation))
        assert index.banded
        assert index.num_bands * index.rows_per_band <= 16
        assert index.num_entries > 0
        assert index.num_buckets > 0

    @pytest.mark.parametrize("representation", FALLBACK)
    def test_families_without_signatures_fall_back(self, graph, representation):
        pg = ProbGraph(graph, representation=representation, storage_budget=0.3, seed=5)
        assert signature_matrix(pg.sketches) is None
        index = LSHIndex(pg)
        assert not index.banded
        assert index.num_entries == 0
        with pytest.raises(ValueError, match="no signature matrix"):
            LSHIndex(pg, num_bands=4, rows_per_band=2)

    def test_explicit_split_validation(self, graph):
        pg = _pg(graph, "khash")
        assert LSHIndex(pg, num_bands=4, rows_per_band=4).num_bands == 4
        with pytest.raises(ValueError, match="both"):
            LSHIndex(pg, num_bands=4)
        with pytest.raises(ValueError, match="exceeds"):
            LSHIndex(pg, num_bands=9, rows_per_band=2)
        with pytest.raises(ValueError, match="positive"):
            LSHIndex(pg, num_bands=0, rows_per_band=1)

    def test_canonical_sort_matches_lexsort(self):
        """Builds and splices order entries by key, then vertex ID."""
        from repro.engine.lsh import _canonical_sort

        rng = np.random.default_rng(4)
        # Few distinct keys spread over the whole uint64 range, so runs of
        # equal keys are long and the high bit is set.
        keys = rng.integers(0, 40, 5000).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        verts = rng.integers(0, 700, 5000).astype(np.int64)
        order = np.lexsort((verts, keys))
        got_keys, got_verts = _canonical_sort(keys, verts)
        assert np.array_equal(got_keys, keys[order])
        assert np.array_equal(got_verts, verts[order])
        empty_keys, empty_verts = _canonical_sort(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        )
        assert empty_keys.shape == empty_verts.shape == (0,)

    def test_isolated_vertices_create_no_entries(self):
        # 4 vertices, only 0-1 connected: rows 2,3 are all-sentinel.
        g = CSRGraph.from_edges(np.asarray([[0, 1]]), num_vertices=4)
        index = LSHIndex(_pg(g, "khash", k=8))
        assert not np.isin(index._verts, [2, 3]).any()
        assert index.query_candidates(2).size == 0
        # In particular two isolated vertices never collide with each other.
        assert 3 not in index.query_candidates(2)


# ---------------------------------------------------------------------------
# deterministic recall guarantees
# ---------------------------------------------------------------------------
class TestDeterministicGuarantees:
    @pytest.mark.parametrize("representation", BANDED)
    @pytest.mark.parametrize("split", [None, (4, 4), (8, 2)])
    def test_identical_signatures_always_collide(self, graph, representation, split):
        """Agreement on every used slot ⟹ every band agrees ⟹ candidate."""
        pg = _pg(graph, representation)
        kwargs = {} if split is None else {"num_bands": split[0], "rows_per_band": split[1]}
        index = LSHIndex(pg, **kwargs)
        matrix, empty = signature_matrix(pg.sketches)
        rng = np.random.default_rng(3)
        sources = rng.choice(graph.num_vertices, 64, replace=False).astype(np.int64)
        cands = index.query_candidates_batch(sources)
        hits = 0
        for i, s in enumerate(sources):
            if empty[s].all():
                continue
            same = np.flatnonzero((matrix == matrix[s]).all(axis=1))
            same = same[same != s]
            assert np.isin(same, cands[i]).all()
            hits += same.size
        assert hits > 0  # the contract was actually exercised

    @pytest.mark.parametrize("split", [(16, 1), (8, 2), (5, 3)])
    def test_khash_pigeonhole_bound(self, graph, split):
        """< b mismatched slots among b·r used slots ⟹ at least one clean band."""
        b, r = split
        pg = _pg(graph, "khash")
        index = LSHIndex(pg, num_bands=b, rows_per_band=r)
        matrix, empty = signature_matrix(pg.sketches)
        nonempty = ~empty.all(axis=1)
        rng = np.random.default_rng(7)
        sources = rng.choice(np.flatnonzero(nonempty), 48, replace=False).astype(np.int64)
        cands = index.query_candidates_batch(sources)
        exercised = 0
        for i, s in enumerate(sources):
            used = matrix[:, : b * r] != matrix[s, : b * r]
            mismatches = used.sum(axis=1)
            guaranteed = np.flatnonzero((mismatches < b) & nonempty)
            guaranteed = guaranteed[guaranteed != s]
            assert np.isin(guaranteed, cands[i]).all()
            exercised += guaranteed.size
        assert exercised > 0

    def test_r1_retrieves_every_nonzero_scoring_pair(self, graph):
        """b=k, r=1: any nonzero k-hash similarity estimate ⟹ a shared slot ⟹
        a shared band — so top-k recall vs the full scan is exactly 1."""
        pg = _pg(graph, "khash")
        index = LSHIndex(pg, num_bands=16, rows_per_band=1)
        sources = np.arange(0, graph.num_vertices, 7, dtype=np.int64)
        ref = topk_per_source(pg, sources, 10)
        result = index.topk_similar_batch(sources, 10)
        for row in range(sources.shape[0]):
            scored = (ref.indices[row] >= 0) & (ref.scores[row] > 0)
            assert np.array_equal(ref.indices[row][scored], result.indices[row][scored])
            assert np.array_equal(ref.scores[row][scored], result.scores[row][scored])


# ---------------------------------------------------------------------------
# statistical S-curve recall contract
# ---------------------------------------------------------------------------
class TestSCurveRecall:
    @pytest.mark.parametrize("k_slots", [8, 16])
    @pytest.mark.parametrize("split_of_16", [(16, 1), (8, 2), (5, 3)])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_khash_candidate_recall_tracks_curve(self, medium_graph, k_slots, split_of_16, seed):
        """Measured recall ≥ S-curve prediction − slack, per query batch.

        The prediction is evaluated per reference pair at its *estimated*
        similarity (the per-slot agreement rate the banding actually sees),
        then averaged — the tightest bound the curve offers without knowing
        slot positions.
        """
        b, r = split_of_16
        if b * r > k_slots:
            b = max(k_slots // r, 1)
        pg = _pg(medium_graph, "khash", k=k_slots, seed=seed)
        index = LSHIndex(pg, num_bands=b, rows_per_band=r)
        matrix, _ = signature_matrix(pg.sketches)
        rng = np.random.default_rng(seed)
        sources = rng.choice(medium_graph.num_vertices, 150, replace=False).astype(np.int64)
        ref = topk_per_source(pg, sources, 10)
        cands = index.query_candidates_batch(sources)
        retrieved, predicted = [], []
        for row, s in enumerate(sources):
            scored = (ref.indices[row] >= 0) & (ref.scores[row] > 0)
            neighbors = ref.indices[row][scored]
            if neighbors.size == 0:
                continue
            est_sim = (matrix[neighbors] == matrix[s]).mean(axis=1)
            retrieved.append(np.isin(neighbors, cands[row]))
            predicted.append(lsh_collision_probability(est_sim, b, r))
        measured = np.concatenate(retrieved).mean()
        bound = np.concatenate(predicted).mean()
        assert measured >= bound - 0.1, (
            f"recall {measured:.3f} fell below S-curve bound {bound:.3f} - 0.1 "
            f"at (b={b}, r={r}, k={k_slots})"
        )

    @pytest.mark.parametrize("representation", ["1hash", "kmv"])
    def test_sorted_value_families_default_split_recall(self, medium_graph, representation):
        """For sorted-value families (bottom-k / KMV) similar sets share values
        at *shifted* positions, so the collision rate is governed by the
        **positional** slot-agreement rate, not the Jaccard estimate.  The
        S-curve bound evaluated at that positional rate still holds — at the
        default ``r = 1`` split it is even deterministic (any positional
        agreement ⟹ collision) — and probing stays sublinear."""
        pg = _pg(medium_graph, representation)
        index = LSHIndex(pg)
        b, r = index.num_bands, index.rows_per_band
        matrix, empty = signature_matrix(pg.sketches)
        rng = np.random.default_rng(2)
        sources = rng.choice(medium_graph.num_vertices, 150, replace=False).astype(np.int64)
        ref = topk_per_source(pg, sources, 10)
        cands = index.query_candidates_batch(sources)
        retrieved, predicted = [], []
        for row, s in enumerate(sources):
            scored = (ref.indices[row] >= 0) & (ref.scores[row] > 0)
            neighbors = ref.indices[row][scored]
            if neighbors.size == 0:
                continue
            # Sentinel slots never band (empty bands are invalid), so the
            # agreement rate the index sees excludes them.
            real = (matrix[neighbors] == matrix[s]) & ~empty[neighbors] & ~empty[s]
            positional = real.mean(axis=1)
            retrieved.append(np.isin(neighbors, cands[row]))
            predicted.append(lsh_collision_probability(positional, b, r))
        measured = np.concatenate(retrieved).mean()
        bound = np.concatenate(predicted).mean()
        assert measured >= bound - 1e-12  # deterministic at r = 1
        # Probing is actually sublinear: far fewer candidates than vertices.
        mean_cands = np.mean([c.size for c in cands])
        assert mean_cands < 0.25 * medium_graph.num_vertices


# ---------------------------------------------------------------------------
# serving: canonical order, restricted-reference identity, fallbacks
# ---------------------------------------------------------------------------
class TestServing:
    @pytest.mark.parametrize("representation", BANDED)
    def test_topk_equals_reference_restricted_to_candidates(self, graph, representation):
        """An LSH row IS the full scan over its candidate set — same floats,
        same canonical order, same padding."""
        pg = _pg(graph, representation)
        index = LSHIndex(pg)
        sources = np.asarray([0, 3, 17, 100, 200], dtype=np.int64)
        result = index.topk_similar_batch(sources, 12)
        for i, s in enumerate(sources):
            cand = index.query_candidates(int(s), exclude_self=False)
            if cand.size == 0:
                assert np.all(result.indices[i] == -1)
                continue
            ref = topk_per_source(pg, np.asarray([s]), 12, candidates=cand)
            width = ref.indices.shape[1]
            assert np.array_equal(result.indices[i, :width], ref.indices[0])
            assert np.array_equal(result.scores[i, :width], ref.scores[0])
            assert np.all(result.indices[i, width:] == -1)

    @pytest.mark.parametrize("representation", BANDED + FALLBACK)
    def test_exact_is_bit_identical_to_full_scan(self, graph, representation):
        pg = ProbGraph(graph, representation=representation, storage_budget=0.3, seed=5)
        index = LSHIndex(pg)
        sources = np.asarray([1, 2, 3, 50], dtype=np.int64)
        ref = topk_per_source(pg, sources, 9)
        result = index.topk_similar_batch(sources, 9, exact=True)
        assert np.array_equal(result.indices, ref.indices)
        assert np.array_equal(result.scores, ref.scores)
        if representation in FALLBACK:  # fallback serves full scan even without exact
            result = index.topk_similar_batch(sources, 9)
            assert np.array_equal(result.indices, ref.indices)
            assert np.array_equal(result.scores, ref.scores)

    def test_candidate_pool_restriction(self, graph):
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        pool = np.asarray([2, 5, 7, 9, 11, 200, 201], dtype=np.int64)
        result = index.topk_similar_batch(np.asarray([5]), 4, candidates=pool)
        valid = result.indices[0][result.indices[0] >= 0]
        assert np.isin(valid, pool).all()
        assert 5 not in valid  # self excluded
        cand = index.query_candidates(5, candidates=pool)
        assert np.isin(cand, pool).all()

    def test_single_source_convenience(self, graph):
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        vertices, scores = index.topk_similar(17, 6)
        batch = index.topk_similar_batch(np.asarray([17]), 6)
        assert np.array_equal(vertices, batch.indices[0])
        assert np.array_equal(scores, batch.scores[0])
        assert np.all(np.diff(scores[scores > 0]) <= 0)

    def test_edge_cases(self, graph):
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        empty = index.topk_similar_batch(np.empty(0, dtype=np.int64), 5)
        assert empty.indices.shape == (0, 5)
        zero = index.topk_similar_batch(np.asarray([0]), 0)
        assert zero.indices.shape == (1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            index.topk_similar_batch(np.asarray([0]), -1)
        # k larger than the pool clamps to the pool size, like the full scan.
        clamped = index.topk_similar_batch(np.asarray([0]), 10, candidates=np.asarray([1, 2]))
        assert clamped.indices.shape == (1, 2)

    def test_stats_observe_probe_cost(self, graph):
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        assert index.stats.queries == 0
        index.topk_similar_batch(np.asarray([0, 1]), 5)
        assert index.stats.queries == 1
        assert index.stats.probed_sources == 2
        assert index.stats.candidates_scored >= 0
        index.topk_similar_batch(np.asarray([0]), 5, exact=True)
        assert index.stats.full_scan_fallbacks == 0  # the (16, 1) tables answer
        assert index.stats.mean_candidates >= 0.0
        banded = LSHIndex(pg, num_bands=8, rows_per_band=2)
        banded.topk_similar_batch(np.asarray([0]), 5, exact=True)
        assert banded.stats.full_scan_fallbacks == 1

    def test_select_topk_rows_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            select_topk_rows(
                np.asarray([0]), [np.asarray([1, 2])],
                np.asarray([np.nan, 1.0]), 2,
            )


# ---------------------------------------------------------------------------
# count scoring: k-hash candidates scored from their band hits
# ---------------------------------------------------------------------------
#: Isolated (0, 8, 17), repeated (3) and well-connected sources of ``graph``.
COUNT_SOURCES = np.asarray([0, 3, 17, 100, 200, 255, 3, 8, 41, 128], dtype=np.int64)


def _oracle(source, index, sources, k, candidates=None, exclude_self=True, measure="jaccard"):
    """Per source ``s``: the full scan over the candidates ``s`` collides with,
    padded to the served width."""
    pool = source.num_vertices if candidates is None else np.unique(candidates).shape[0]
    width = min(k, pool)
    indices = np.full((sources.shape[0], width), -1, dtype=np.int64)
    scores = np.zeros((sources.shape[0], width), dtype=np.float64)
    for row, s in enumerate(sources):
        cand = index.query_candidates(int(s), candidates=candidates, exclude_self=False)
        want = topk_per_source(
            source, np.asarray([s]), k, candidates=cand, score=measure,
            exclude_self=exclude_self,
        )
        indices[row, : want.indices.shape[1]] = want.indices[0]
        scores[row, : want.scores.shape[1]] = want.scores[0]
    return indices, scores


def _assert_served_equals_oracle(source, index, sources, k, **kwargs):
    got = index.topk_similar_batch(sources, k, **kwargs)
    indices, scores = _oracle(source, index, sources, k, **kwargs)
    assert np.array_equal(got.indices, indices)
    assert np.array_equal(got.scores, scores)
    return got


class TestCountScoring:
    @pytest.mark.parametrize("measure", ["jaccard", "common_neighbors"])
    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("num_shards", [0, 1, 2, 4], ids=["probgraph", "1", "2", "4"])
    def test_served_batches_equal_the_oracle(self, graph, measure, oriented, num_shards):
        if num_shards == 0:
            source = _pg(graph, "khash", oriented=oriented)
            index = LSHIndex(source)
        else:
            source = ShardedEngine(
                graph, num_shards, representation="khash", k=16, seed=5, oriented=oriented
            )
            index = source.lsh_index()
        assert (index.num_bands, index.rows_per_band) == (16, 1)
        got = _assert_served_equals_oracle(source, index, COUNT_SOURCES, 8, measure=measure)
        assert index.stats.count_mismatches == 0
        # Only the winners are scored from sketch rows (reset first: the
        # oracle's scans above are counted too).
        reset_engine_stats()
        if num_shards:
            source.comm.reset()
        index.topk_similar_batch(COUNT_SOURCES, 8, measure=measure)
        winners = np.count_nonzero(got.indices >= 0)
        if num_shards:
            assert source.comm.routed_pairs == winners
        else:
            assert engine_stats().pairs == winners

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("pool", [None, np.arange(0, 256, 3)], ids=["all", "pool"])
    def test_pools_self_matches_and_isolated_sources(self, graph, exclude_self, pool):
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        got = _assert_served_equals_oracle(
            pg, index, COUNT_SOURCES, 6, candidates=pool, exclude_self=exclude_self
        )
        assert np.all(got.indices[0] == -1)  # vertex 0 is isolated
        assert np.array_equal(got.indices[1], got.indices[6])  # source 3, twice
        if not exclude_self and pool is None:
            assert got.indices[3, 0] == 100  # a vertex agrees with itself on every slot

    def test_mapped_index_after_open_and_after_a_delta(self, graph, tmp_path):
        with ShardedEngine(graph, 2, representation="khash", k=16, seed=5) as built:
            built.save(tmp_path / "eng")
        dyn = DynamicGraph(graph)
        with ShardedEngine.open(tmp_path / "eng") as engine:
            index = engine.lsh_index()
            assert index._handle is not None
            _assert_served_equals_oracle(engine, index, COUNT_SOURCES, 8)
            engine.apply_delta(dyn.apply_edges(insertions=[(0, 9), (3, 40), (17, 80)]))
            _assert_served_equals_oracle(engine, index, COUNT_SOURCES, 8)
            assert index.stats.count_mismatches == 0

    def test_colliding_band_keys_fall_back_to_the_signatures(self, graph, monkeypatch):
        """With 4-bit band keys nearly every pair collides across bands, so
        counted scores overshoot; the winner re-check must catch it."""
        real = lsh_module.splitmix64
        monkeypatch.setattr(
            lsh_module, "splitmix64", lambda x, seed=0: real(x, seed) & np.uint64(0xF)
        )
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        _assert_served_equals_oracle(pg, index, COUNT_SOURCES, 8)
        assert index.stats.count_mismatches == 1

    @pytest.mark.parametrize(
        "representation, split",
        [("1hash", None), ("kmv", None), ("khash", (8, 2)), ("khash", (8, 1))],
        ids=["1hash", "kmv", "khash-8x2", "khash-8x1"],
    )
    def test_other_families_and_splits_score_every_candidate(self, graph, representation, split):
        engine = ShardedEngine(graph, 2, representation=representation, k=16, seed=5)
        kwargs = {} if split is None else {"num_bands": split[0], "rows_per_band": split[1]}
        index = engine.lsh_index(**kwargs)
        _assert_served_equals_oracle(engine, index, COUNT_SOURCES, 8)
        engine.comm.reset()
        before = index.stats.candidates_scored
        index.topk_similar_batch(COUNT_SOURCES, 8)
        assert engine.comm.routed_pairs == index.stats.candidates_scored - before > 0

    def test_invalid_estimator_raises_without_winners(self, graph):
        index = LSHIndex(_pg(graph, "khash"))
        isolated = np.asarray([0, 8], dtype=np.int64)
        assert np.all(index.topk_similar_batch(isolated, 5).indices == -1)
        with pytest.raises(ValueError, match="not supported"):
            index.topk_similar_batch(isolated, 5, estimator="AND")


# ---------------------------------------------------------------------------
# exact top-k answered from the band tables
# ---------------------------------------------------------------------------
#: Candidate pools of ``graph``: none, a third of the vertices, fewer than
#: the k = 8 below, and only the source of a one-source batch.
EXACT_POOLS = {
    "all": None,
    "pool": np.arange(0, 256, 3),
    "below-k": np.asarray([3, 41, 100, 200], dtype=np.int64),
    "only-source": np.asarray([100], dtype=np.int64),
}


def _assert_equals_scan(got, reference, sources, k, **kwargs):
    """``got`` must be ``topk_per_source``'s answer on ``reference``, bit for bit."""
    want = topk_per_source(reference, sources, k, **kwargs)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.scores, want.scores)


def _brute_force_shipments(engine, sources, k, candidates):
    """Each unique source, once per other shard owning a candidate (k > 0 only)."""
    owners = engine.partition.owners
    pool = range(engine.num_vertices) if candidates is None else candidates
    held = {int(owners[c]) for c in pool}
    if k == 0:
        return 0
    return sum(len(held - {int(owners[s])}) for s in set(sources.tolist()))


class TestExactTableAnswer:
    """With a (k, 1) k-hash index alive, ``exact=True`` on a ProbGraph index
    and an engine's ``top_k_similar_batch`` answer from the band tables: the
    re-checked winners, then the lowest-ID vertices of the pool at score 0."""

    @pytest.mark.parametrize("measure", ["jaccard", "common_neighbors"])
    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("num_shards", [0, 1, 2, 4], ids=["probgraph", "1", "2", "4"])
    def test_answers_equal_the_scan(self, graph, measure, oriented, num_shards):
        if num_shards == 0:
            reference = _pg(graph, "khash", oriented=oriented)
            index = LSHIndex(reference)

            def answer(sources, k, **kwargs):
                return index.topk_similar_batch(sources, k, measure=measure, exact=True, **kwargs)
        else:
            engine = ShardedEngine(
                graph, num_shards, representation="khash", k=16, seed=5, oriented=oriented
            )
            index = engine.lsh_index()
            reference = engine.to_probgraph()

            def answer(sources, k, **kwargs):
                return engine.top_k_similar_batch(sources, k, measure=measure, **kwargs)

        assert (index.num_bands, index.rows_per_band) == (16, 1)
        for name, pool in EXACT_POOLS.items():
            sources = np.asarray([100]) if name == "only-source" else COUNT_SOURCES
            for exclude_self in (True, False):
                for k in (0, 8, graph.num_vertices + 5):
                    before = index.stats.probed_sources
                    got = answer(sources, k, candidates=pool, exclude_self=exclude_self)
                    _assert_equals_scan(
                        got, reference, sources, k, candidates=pool, score=measure,
                        exclude_self=exclude_self,
                    )
                    grew = index.stats.probed_sources - before
                    assert grew == (sources.shape[0] if k else 0), (name, exclude_self, k)
        assert index.stats.count_mismatches == 0
        assert index.stats.full_scan_fallbacks == 0

    def test_zero_fill_rows(self, graph):
        """Isolated sources are all zero fill; a repeated source answers twice."""
        pg = _pg(graph, "khash")
        got = LSHIndex(pg).topk_similar_batch(COUNT_SOURCES, 8, exact=True)
        assert np.array_equal(got.indices[0], np.arange(1, 9))  # source 0 is isolated
        assert np.all(got.scores[0] == 0.0)
        assert np.array_equal(got.indices[1], got.indices[6])  # source 3, twice
        kept = LSHIndex(pg).topk_similar_batch(COUNT_SOURCES, 8, exact=True, exclude_self=False)
        assert kept.indices[0, 0] == 0  # an isolated source scores itself 0 too
        _assert_equals_scan(got, pg, COUNT_SOURCES, 8)

    @pytest.mark.parametrize("oriented", [False, True])
    def test_engine_answer_after_a_growing_delta(self, graph, oriented):
        dyn = DynamicGraph(graph)
        engine = ShardedEngine(dyn, 2, representation="khash", k=16, seed=5, oriented=oriented)
        index = engine.lsh_index()
        n = graph.num_vertices
        growth = [(0, n), (3, n + 1), (n + 1, n + 2), (100, 40), (17, 200)]
        engine.apply_delta(dyn.apply_edges(insertions=growth))
        assert engine.num_vertices == n + 3
        sources = np.concatenate([COUNT_SOURCES, [n, n + 1, n + 2]])
        before = index.stats.probed_sources
        got = engine.top_k_similar_batch(sources, 8)
        _assert_equals_scan(got, engine.to_probgraph(), sources, 8)
        assert index.stats.probed_sources == before + sources.shape[0]

    def test_colliding_band_keys_fall_back_to_the_scan(self, graph, monkeypatch):
        """4-bit band keys make counted scores overshoot: the winner re-check
        fails and the full scan answers, on both paths."""
        real = lsh_module.splitmix64
        monkeypatch.setattr(
            lsh_module, "splitmix64", lambda x, seed=0: real(x, seed) & np.uint64(0xF)
        )
        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        _assert_equals_scan(index.topk_similar_batch(COUNT_SOURCES, 8, exact=True), pg, COUNT_SOURCES, 8)
        assert index.stats.count_mismatches == 1
        assert index.stats.full_scan_fallbacks == 1
        engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=5)
        held = engine.lsh_index()
        got = engine.top_k_similar_batch(COUNT_SOURCES, 8)
        _assert_equals_scan(got, engine.to_probgraph(), COUNT_SOURCES, 8)
        assert held.stats.count_mismatches == 1

    @pytest.mark.parametrize(
        "representation, split", [("khash", (8, 2)), ("kmv", None)], ids=["khash-8x2", "kmv"]
    )
    def test_other_indexes_leave_the_engine_scanning(self, graph, representation, split):
        engine = ShardedEngine(graph, 2, representation=representation, k=16, seed=5)
        kwargs = {} if split is None else {"num_bands": split[0], "rows_per_band": split[1]}
        index = engine.lsh_index(**kwargs)
        reset_engine_stats()
        got = engine.top_k_similar_batch(COUNT_SOURCES, 8)
        assert engine_stats().pairs == COUNT_SOURCES.shape[0] * graph.num_vertices
        assert index.stats.probed_sources == 0
        _assert_equals_scan(got, engine.to_probgraph(), COUNT_SOURCES, 8)

    def test_answered_engine_scores_only_the_winners(self, graph):
        engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=5)
        index = engine.lsh_index()
        reset_engine_stats()
        engine.comm.reset()
        got = engine.top_k_similar_batch(COUNT_SOURCES, 8)
        winners = np.count_nonzero(got.scores > 0)
        assert 0 < engine_stats().pairs == winners < COUNT_SOURCES.shape[0] * graph.num_vertices
        assert engine.comm.routed_pairs == 0  # re-checked on the engine's ProbGraph
        assert index.stats.probed_sources == COUNT_SOURCES.shape[0]

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("case", ["all-candidates", "subset-17", "no-sources", "k-0"])
    def test_shipments_match_brute_force_with_a_live_index(self, graph, num_shards, case):
        engine = ShardedEngine(graph, num_shards, representation="khash", k=16, seed=3)
        index = engine.lsh_index()
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
        expected = _brute_force_shipments(engine, sources, k, candidates)
        assert engine.comm.queries == 1
        assert engine.comm.shipments == expected
        assert engine.comm.sketch_bytes == expected * engine.bits_per_set / 8.0
        assert engine.comm.routed_pairs == engine.comm.cut_pairs == 0
        assert index.stats.probed_sources == (sources.shape[0] if k else 0)
        if num_shards > 1 and case in ("all-candidates", "subset-17"):
            assert expected > 0

    def test_comm_equals_the_scans(self, graph):
        scanning = ShardedEngine(graph, 4, representation="khash", k=16, seed=5)
        answering = ShardedEngine(graph, 4, representation="khash", k=16, seed=5)
        index = answering.lsh_index()
        for pool in (None, np.arange(0, 256, 7)):
            for engine in (scanning, answering):
                engine.top_k_similar_batch(COUNT_SOURCES, 8, candidates=pool)
        assert index.stats.probed_sources == 2 * COUNT_SOURCES.shape[0]
        assert answering.comm == scanning.comm


# ---------------------------------------------------------------------------
# session threading
# ---------------------------------------------------------------------------
class TestSessionLSH:
    def test_cache_hit_on_equal_resolved_split(self, graph):
        session = PGSession()
        pg = session.probgraph(graph, representation="khash", k=16, seed=5)
        first = session.lsh_index(pg)
        # The explicit split the default threshold resolves to hits the same entry.
        again = session.lsh_index(
            pg, num_bands=first.num_bands, rows_per_band=first.rows_per_band
        )
        assert again is first
        assert session.stats.lsh_constructions == 1
        assert session.stats.lsh_hits == 1
        other = session.lsh_index(pg, num_bands=8, rows_per_band=2)
        assert other is not first
        assert session.stats.lsh_constructions == 2

    def test_fallback_family_caches_single_index(self, graph):
        session = PGSession()
        pg = session.probgraph(graph, representation="bloom", num_bits=256, seed=5)
        index = session.lsh_index(pg)
        assert not index.banded
        assert session.lsh_index(pg) is index
        with pytest.raises(ValueError, match="no signature matrix"):
            session.lsh_index(pg, num_bands=4, rows_per_band=2)

    def test_lru_bound(self, graph):
        session = PGSession(max_entries=2)
        pg = session.probgraph(graph, representation="khash", k=16, seed=5)
        a = session.lsh_index(pg, num_bands=16, rows_per_band=1)
        session.lsh_index(pg, num_bands=8, rows_per_band=2)
        session.lsh_index(pg, num_bands=4, rows_per_band=4)
        assert len(session._lsh_cache) == 2
        rebuilt = session.lsh_index(pg, num_bands=16, rows_per_band=1)
        assert rebuilt is not a  # the oldest entry was evicted and rebuilt

    def test_clear_drops_lsh_entries(self, graph):
        session = PGSession()
        pg = session.probgraph(graph, representation="khash", k=16, seed=5)
        session.lsh_index(pg)
        session.clear()
        assert len(session._lsh_cache) == 0


# ---------------------------------------------------------------------------
# sharded == single-process, across families and shard counts
# ---------------------------------------------------------------------------
class TestShardedLSH:
    @pytest.mark.parametrize("representation", BANDED)
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_probes_and_topk_bit_identical(self, graph, representation, num_shards):
        engine = ShardedEngine(graph, num_shards, representation=representation, k=16, seed=5)
        sharded = engine.lsh_index()
        assert isinstance(sharded, LSHIndex)
        single = LSHIndex(engine.to_probgraph())
        # One canonical table, whatever the shard count.
        assert np.array_equal(sharded._keys, single._keys)
        assert np.array_equal(sharded._verts, single._verts)
        sources = np.asarray([0, 3, 17, 100, 200, 255], dtype=np.int64)
        for got, want in zip(
            sharded.query_candidates_batch(sources),
            single.query_candidates_batch(sources),
        ):
            assert np.array_equal(got, want)
        got = sharded.topk_similar_batch(sources, 8)
        want = single.topk_similar_batch(sources, 8)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)

    @pytest.mark.parametrize("representation", ["khash", "bloom"])
    def test_exact_and_fallback_route_to_engine_scan(self, graph, representation):
        engine = ShardedEngine(
            graph, 2, representation=representation,
            **({"k": 16} if representation == "khash" else {"num_bits": 256}), seed=5,
        )
        sharded = engine.lsh_index()
        assert sharded.banded == (representation == "khash")
        sources = np.asarray([1, 5, 9], dtype=np.int64)
        ref = engine.top_k_similar_batch(sources, 6)
        got = sharded.topk_similar_batch(sources, 6, exact=True)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.scores, ref.scores)
        if representation == "bloom":
            got = sharded.topk_similar_batch(sources, 6)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.scores, ref.scores)

    def test_probe_shipments_are_counted(self, graph):
        """``comm`` counts the pairs scored from sketch rows: a k-hash (16, 1)
        index scores candidates from band hits and re-scores only the
        winners; a KMV index scores every candidate."""
        engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=5)
        sharded = engine.lsh_index()
        assert (sharded.num_bands, sharded.rows_per_band) == (16, 1)
        engine.comm.reset()
        result = sharded.topk_similar_batch(np.asarray([0, 1, 2, 3]), 5)
        assert engine.comm.queries >= 1
        assert engine.comm.routed_pairs == np.count_nonzero(result.indices >= 0)
        assert engine.comm.routed_pairs < sharded.stats.candidates_scored
        kmv_engine = ShardedEngine(graph, 2, representation="kmv", k=16, seed=5)
        kmv = kmv_engine.lsh_index()
        kmv_engine.comm.reset()
        kmv.topk_similar_batch(np.asarray([0, 1, 2, 3]), 5)
        assert kmv_engine.comm.queries >= 1
        assert kmv_engine.comm.routed_pairs == kmv.stats.candidates_scored

    def test_sources_are_probgraphs_or_engines_and_both_save(self, graph, tmp_path):
        engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=5)
        built = engine.lsh_index()
        built.save(tmp_path / "t.pgsk")
        with LSHIndex.open(tmp_path / "t.pgsk", engine) as loaded:
            assert np.array_equal(loaded._keys, built._keys)
            assert np.array_equal(loaded._verts, built._verts)
            sources = np.asarray([0, 3, 17, 100, 200, 255], dtype=np.int64)
            got = loaded.topk_similar_batch(sources, 8)
            want = built.topk_similar_batch(sources, 8)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.scores, want.scores)
        with pytest.raises(TypeError, match="ProbGraph or ShardedEngine"):
            LSHIndex(engine.to_probgraph().sketches)

    def test_single_source_convenience(self, graph):
        engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=5)
        sharded = engine.lsh_index()
        vertices, scores = sharded.topk_similar(17, 6)
        batch = sharded.topk_similar_batch(np.asarray([17]), 6)
        assert np.array_equal(vertices, batch.indices[0])
        assert np.array_equal(scores, batch.scores[0])


# ---------------------------------------------------------------------------
# knn_graph(method="lsh")
# ---------------------------------------------------------------------------
class TestKNNGraphLSH:
    def test_lsh_rows_equal_reference_restricted(self, graph):
        from repro import knn_graph

        pg = _pg(graph, "khash")
        index = LSHIndex(pg)
        sources = np.arange(0, graph.num_vertices, 5, dtype=np.int64)
        result = knn_graph(pg, 8, sources=sources, method="lsh", lsh_index=index)
        direct = index.topk_similar_batch(sources, 8)
        assert np.array_equal(result.neighbors, direct.indices)
        assert np.array_equal(result.scores, direct.scores)
        assert result.measure == "jaccard"

    def test_builds_index_on_the_fly_and_batches(self, graph):
        from repro import knn_graph

        pg = _pg(graph, "khash")
        sources = np.arange(40, dtype=np.int64)
        batched = knn_graph(pg, 6, sources=sources, method="lsh", source_batch=7)
        whole = knn_graph(pg, 6, sources=sources, method="lsh")
        assert np.array_equal(batched.neighbors, whole.neighbors)
        assert np.array_equal(batched.scores, whole.scores)

    def test_bloom_falls_back_to_scan_results(self, graph):
        from repro import knn_graph

        pg = ProbGraph(graph, representation="bloom", num_bits=256, seed=5)
        sources = np.arange(30, dtype=np.int64)
        lsh = knn_graph(pg, 5, sources=sources, method="lsh")
        scan = knn_graph(pg, 5, sources=sources, method="scan")
        assert np.array_equal(lsh.neighbors, scan.neighbors)
        assert np.array_equal(lsh.scores, scan.scores)

    def test_validation(self, graph):
        from repro import knn_graph

        pg = _pg(graph, "khash")
        with pytest.raises(ValueError, match="method"):
            knn_graph(pg, 3, method="nope")
        with pytest.raises(ValueError, match="ProbGraph"):
            knn_graph(graph, 3, method="lsh")
        with pytest.raises(ValueError, match="servable"):
            knn_graph(pg, 3, method="lsh", measure="adamic_adar")
