"""Unit tests for the HyperLogLog family: per-set sketch, batch container, engine."""

import numpy as np
import pytest

from repro.core import ProbGraph, hll_intersection, resolve_hll_precision
from repro.core.probgraph import Representation, resolve_sketch_params
from repro.engine import PGSession
from repro.graph import kronecker_graph
from repro.sketches.hll import (
    HLL_REGISTER_BITS,
    HLLFamily,
    HyperLogLog,
    _alpha,
    estimate_register_rows,
)


def _power_estimate(registers):
    """Reference HLL estimate that computes every ``2**-r`` term with ``np.power``."""
    registers = np.asarray(registers)
    m = registers.shape[-1]
    inv_sum = np.sum(np.power(2.0, -registers.astype(np.float64)), axis=-1)
    raw = _alpha(m) * m * m / inv_sum
    out = np.asarray(raw, dtype=np.float64).copy()
    zeros = np.count_nonzero(registers == 0, axis=-1)
    linear = (raw <= 2.5 * m) & (zeros > 0)
    if np.any(linear):
        out[linear] = m * np.log(m / zeros[linear])
    two64 = float(2**64)
    large = raw > two64 / 30.0
    if np.any(large):
        out[large] = -two64 * np.log1p(-raw[large] / two64)
    return out


class TestHyperLogLog:
    @pytest.mark.parametrize("true_size", [100, 1_000, 20_000])
    def test_cardinality_estimates(self, true_size):
        hll = HyperLogLog.from_set(np.arange(true_size), precision=12, seed=1)
        assert hll.cardinality() == pytest.approx(true_size, rel=0.1)

    def test_empty(self):
        hll = HyperLogLog(precision=10)
        assert hll.cardinality() == pytest.approx(0.0, abs=1e-6)

    def test_duplicates_ignored(self):
        a = HyperLogLog.from_set(np.arange(500), precision=12, seed=0)
        b = HyperLogLog.from_set(np.tile(np.arange(500), 5), precision=12, seed=0)
        assert np.array_equal(a.registers, b.registers)

    def test_insertion_order_invariant(self):
        elements = np.arange(1000)
        forward = HyperLogLog.from_set(elements, precision=10, seed=2)
        rng = np.random.default_rng(3)
        shuffled = HyperLogLog.from_set(rng.permutation(elements), precision=10, seed=2)
        incremental = HyperLogLog(precision=10, seed=2)
        for chunk in np.array_split(elements, 7):
            incremental.add_many(chunk)
        assert np.array_equal(forward.registers, shuffled.registers)
        assert np.array_equal(forward.registers, incremental.registers)

    def test_merge_is_union(self):
        a = HyperLogLog.from_set(np.arange(0, 2000), precision=12, seed=3)
        b = HyperLogLog.from_set(np.arange(1000, 3000), precision=12, seed=3)
        merged = a.merge(b)
        assert merged.cardinality() == pytest.approx(3000, rel=0.1)

    def test_merge_bit_identical_to_from_set_of_union(self):
        a = HyperLogLog.from_set(np.arange(0, 1500), precision=11, seed=9)
        b = HyperLogLog.from_set(np.arange(700, 2500), precision=11, seed=9)
        union = HyperLogLog.from_set(np.arange(0, 2500), precision=11, seed=9)
        assert np.array_equal(a.merge(b).registers, union.registers)

    def test_intersection_estimate(self):
        a = HyperLogLog.from_set(np.arange(0, 2000), precision=13, seed=4)
        b = HyperLogLog.from_set(np.arange(1000, 3000), precision=13, seed=4)
        assert a.intersection_cardinality(b) == pytest.approx(1000, rel=0.4)

    def test_intersection_clamped_to_smaller_set(self):
        # Inclusion–exclusion noise at low precision can exceed the smaller
        # set; the estimate must be clamped into [0, min(|X|, |Y|)].
        for seed in range(12):
            small = HyperLogLog.from_set(np.arange(30), precision=4, seed=seed)
            big = HyperLogLog.from_set(np.arange(10_000), precision=4, seed=seed)
            est = small.intersection_cardinality(big)
            assert 0.0 <= est <= min(small.cardinality(), big.cardinality())

    def test_merge_incompatible_rejected(self):
        a = HyperLogLog(precision=10, seed=0)
        with pytest.raises(ValueError):
            a.merge(HyperLogLog(precision=11, seed=0))
        with pytest.raises(TypeError):
            a.merge("nope")

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)

    def test_add_chaining_and_packed_storage(self):
        hll = HyperLogLog(precision=8)
        assert hll.add(1).add(2) is hll
        # 6-bit packed accounting (ranks fit in 6 bits), not the uint8 backing.
        assert hll.storage_bits == (1 << 8) * HLL_REGISTER_BITS

    def test_registers_monotone(self):
        hll = HyperLogLog(precision=8, seed=2)
        hll.add_many(np.arange(100))
        snapshot = hll.registers.copy()
        hll.add_many(np.arange(100, 200))
        assert np.all(hll.registers >= snapshot)


class TestRegisterEstimate:
    @pytest.mark.parametrize("precision", [4, 5, 10, 18])
    def test_equals_power_formula_for_every_rank(self, precision):
        m = 1 << precision
        rng = np.random.default_rng(precision)
        rows = np.empty((4, m), dtype=np.uint8)
        # Rows of all-high ranks push the raw estimate to 2**64 or past it,
        # where the reference's large-range correction gives NaN (or inf) and
        # the table-driven estimate raises instead.
        with np.errstate(invalid="ignore", divide="ignore"):
            for rank in range(62):
                rows[:] = rank
                rows[1, ::2] = 0  # zero registers: the linear-counting branch
                rows[2] = rng.integers(0, rank + 1, m)
                rows[3, 1:] = 40  # one `rank` term among mid-range ones, no NaN
                want = _power_estimate(rows)
                finite = np.isfinite(want)
                assert np.array_equal(estimate_register_rows(rows[finite]), want[finite]), rank
                for row in rows[~finite]:
                    with pytest.raises(ValueError, match=r"2\*\*64"):
                        estimate_register_rows(row)
        mixed = rng.integers(0, 62, (4, m)).astype(np.uint8)
        assert np.array_equal(estimate_register_rows(mixed), _power_estimate(mixed))

    def test_raw_estimate_reaching_two_to_the_64_raises(self):
        # 16 registers at rank 61: raw = 0.673 * 16 * 2**61, about 1.35 * 2**64.
        over = np.full((2, 16), 61, dtype=np.uint8)
        over[0] = 3  # a valid row beside it does not hide the bad one
        with pytest.raises(ValueError, match=r"2\*\*64"):
            estimate_register_rows(over)
        bad = HyperLogLog(precision=4)
        bad.registers[:] = 61  # the scalar sketch shares the estimate
        with pytest.raises(ValueError, match=r"2\*\*64"):
            bad.cardinality()
        # Ten registers at rank 61 and six at 60: raw is about 0.979 * 2**64,
        # still inside the large-range correction, which stays finite.
        under = np.array([[61] * 10 + [60] * 6], dtype=np.uint8)
        with np.errstate(all="raise"):
            got = estimate_register_rows(under)
        assert np.isfinite(got).all() and got[0] > float(2**64)
        assert np.array_equal(got, _power_estimate(under))


class TestHLLFamily:
    @pytest.fixture(scope="class")
    def graph(self):
        return kronecker_graph(scale=8, edge_factor=6, seed=11)

    @pytest.fixture(scope="class")
    def sketches(self, graph):
        return HLLFamily(precision=7, seed=3).sketch_neighborhoods(graph.indptr, graph.indices)

    def test_batch_rows_match_per_set_sketches(self, graph, sketches):
        family = HLLFamily(precision=7, seed=3)
        for v in [0, 1, graph.num_vertices // 2, graph.num_vertices - 1]:
            single = family.sketch(graph.neighbors(v))
            assert np.array_equal(sketches.registers[v], single.registers)

    def test_storage_accounting(self, graph, sketches):
        family = HLLFamily(precision=7, seed=3)
        assert family.bits_per_set == (1 << 7) * HLL_REGISTER_BITS
        assert sketches.total_storage_bits == graph.num_vertices * family.bits_per_set

    def test_cardinalities_track_degrees(self, graph, sketches):
        degrees = graph.degrees.astype(np.float64)
        cards = sketches.cardinalities()
        mask = degrees >= 8
        rel = np.abs(cards[mask] - degrees[mask]) / degrees[mask]
        assert rel.mean() < 0.25

    def test_pair_intersections_clamped_and_chunk_identical(self, graph, sketches):
        rng = np.random.default_rng(7)
        u = rng.integers(0, graph.num_vertices, size=800).astype(np.int64)
        v = rng.integers(0, graph.num_vertices, size=800).astype(np.int64)
        est = sketches.pair_intersections(u, v)
        degrees = graph.degrees.astype(np.float64)
        assert np.all(est >= 0.0)
        assert np.all(est <= np.minimum(degrees[u], degrees[v]) + 1e-12)
        assert np.array_equal(est, sketches.pair_intersections_chunked(u, v, max_chunk_pairs=13))

    def test_pair_jaccards_bounded(self, graph, sketches):
        rng = np.random.default_rng(8)
        u = rng.integers(0, graph.num_vertices, size=300).astype(np.int64)
        v = rng.integers(0, graph.num_vertices, size=300).astype(np.int64)
        jac = sketches.pair_jaccards(u, v)
        assert np.all((jac >= 0.0) & (jac <= 1.0))

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            HLLFamily(precision=2)


class TestHLLBudgetResolution:
    def test_budget_resolves_precision(self):
        graph = kronecker_graph(scale=9, edge_factor=8, seed=1)
        precision, resolution = resolve_hll_precision(graph, 0.25)
        assert 4 <= precision <= 18
        assert resolution.bits_per_vertex == HLL_REGISTER_BITS << precision
        # The resolved precision is the largest whose packed size fits, so the
        # realized memory stays within the budget (above the minimum precision).
        per_vertex = 0.25 * graph.storage_bits / graph.num_vertices
        if resolution.bits_per_vertex > HLL_REGISTER_BITS << 4:
            assert resolution.bits_per_vertex <= per_vertex
        assert resolution.relative_memory <= 0.3

    def test_larger_budget_means_more_registers(self):
        graph = kronecker_graph(scale=9, edge_factor=8, seed=1)
        small, _ = resolve_hll_precision(graph, 0.1)
        large, _ = resolve_hll_precision(graph, 1.0)
        assert large > small

    def test_params_key_includes_precision(self):
        graph = kronecker_graph(scale=7, edge_factor=5, seed=2)
        a = resolve_sketch_params(graph, "hll", precision=6)
        b = resolve_sketch_params(graph, "hll", precision=7)
        assert a.representation is Representation.HLL
        assert a.key() != b.key()

    def test_hll_intersection_clamps(self):
        assert hll_intersection(10.0, 20.0, 25.0) == 5.0
        assert hll_intersection(10.0, 20.0, 12.0) == 10.0  # capped at min size
        assert hll_intersection(10.0, 20.0, 35.0) == 0.0  # floored at zero
        arr = hll_intersection(np.array([10.0]), np.array([20.0]), np.array([12.0]))
        assert arr.shape == (1,) and arr[0] == 10.0


class TestHLLEngineIntegration:
    @pytest.fixture(scope="class")
    def graph(self):
        return kronecker_graph(scale=8, edge_factor=6, seed=11)

    def test_session_cache_hit_and_miss(self, graph):
        session = PGSession()
        pg = session.probgraph(graph, representation="hll", storage_budget=0.25, seed=7)
        assert (session.stats.constructions, session.stats.cache_misses) == (1, 1)
        warm = session.probgraph(graph, representation="hll", storage_budget=0.25, seed=7)
        assert warm is pg
        assert (session.stats.constructions, session.stats.cache_hits) == (1, 1)
        # The budget entry and the explicit precision it resolved to are one entry.
        explicit = session.probgraph(graph, representation="hll", precision=pg.precision, seed=7)
        assert explicit is pg
        assert session.stats.constructions == 1
        # A different precision is a different sketch set.
        other = session.probgraph(graph, representation="hll", precision=pg.precision + 1, seed=7)
        assert other is not pg
        assert session.stats.constructions == 2
        # ... and so is a different family with otherwise equal parameters.
        kmv = session.probgraph(graph, representation="kmv", storage_budget=0.25, seed=7)
        assert kmv is not pg
        assert session.stats.constructions == 3

    def test_mismatched_estimator_rejected(self, graph):
        pg = ProbGraph(graph, representation="hll", precision=5, seed=1)
        with pytest.raises(ValueError):
            pg.pair_intersections(np.array([0]), np.array([1]), estimator="kH")
        with pytest.raises(ValueError):
            ProbGraph(graph, representation="kmv", k=4, estimator="HLL")
        with pytest.raises(ValueError):
            PGSession().probgraph(graph, representation="hll", precision=5, estimator="AND")

    def test_probgraph_alias_and_describe(self, graph):
        pg = ProbGraph(graph, representation="hyperloglog", precision=6, seed=1)
        assert pg.representation is Representation.HLL
        assert pg.describe()["precision"] == 6
        assert pg.relative_memory > 0
