"""Tests for the parallelism substrate: work-depth models, scheduler simulation, chunking, communication model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    Scheme,
    WorkDepth,
    algorithm_cost,
    chunked_ranges,
    communication_volume,
    construction_cost,
    intersection_cost,
    intersection_costs_per_edge,
    partition_vertices,
    simulate_algorithm_runtime,
    simulate_schedule,
    simulate_strong_scaling,
)
from repro.parallel.distributed import pair_shipments


@st.composite
def pair_batches(draw):
    """A pair list over ``n`` vertices, owners over 1–4 shards and degrees.

    Some batches keep every pair on one shard, so that no pair is cut."""
    n = draw(st.integers(min_value=1, max_value=60))
    num_shards = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    num_pairs = draw(st.integers(min_value=0, max_value=200))
    owners = rng.integers(0, num_shards, size=n).astype(np.int64)
    u = rng.integers(0, n, size=num_pairs).astype(np.int64)
    v = rng.integers(0, n, size=num_pairs).astype(np.int64)
    if draw(st.booleans()):
        v = np.where(owners[u] == owners[v], v, u)
    degrees = rng.integers(0, 5, size=n).astype(np.float64)  # ties in degree are common
    return u, v, owners, degrees


class TestWorkDepth:
    def test_table4_ordering(self, kron_small):
        d = kron_small.average_degree
        merge = intersection_cost(Scheme.CSR_MERGE, d, d)
        bloom = intersection_cost(Scheme.BLOOM, d, d, num_bits=512)
        onehash = intersection_cost(Scheme.ONEHASH, d, d, k=8)
        assert bloom.work < merge.work
        assert onehash.work < merge.work

    def test_merge_vs_galloping(self):
        # Galloping wins when the sizes are very different, merge when similar.
        merge = intersection_cost(Scheme.CSR_MERGE, 10, 10_000)
        gallop = intersection_cost(Scheme.CSR_GALLOPING, 10, 10_000)
        assert gallop.work < merge.work
        merge_eq = intersection_cost(Scheme.CSR_MERGE, 100, 100)
        gallop_eq = intersection_cost(Scheme.CSR_GALLOPING, 100, 100)
        assert merge_eq.work < gallop_eq.work

    def test_pg_costs_are_uniform_per_edge(self, kron_small):
        bloom_costs = intersection_costs_per_edge(kron_small, Scheme.BLOOM, num_bits=1024)
        csr_costs = intersection_costs_per_edge(kron_small, Scheme.CSR_MERGE)
        assert np.unique(bloom_costs).size == 1
        assert np.unique(csr_costs).size > 1

    def test_construction_costs_ordering(self, kron_small):
        degrees = kron_small.degrees
        bloom = construction_cost(Scheme.BLOOM, degrees, num_hashes=2)
        onehash = construction_cost(Scheme.ONEHASH, degrees)
        khash = construction_cost(Scheme.KHASH, degrees, k=16)
        csr = construction_cost(Scheme.CSR_MERGE, degrees)
        assert csr.work == 0
        assert onehash.work < bloom.work < khash.work

    def test_algorithm_cost_tc_advantage(self, kron_small):
        exact = algorithm_cost("triangle_count", kron_small, Scheme.CSR_MERGE)
        pg = algorithm_cost("triangle_count", kron_small, Scheme.BLOOM, num_bits=512)
        assert pg.work < exact.work
        assert pg.depth <= exact.depth + 1

    def test_kmv_and_hll_cost_models(self, kron_small):
        """The two extra families have their own Table IV rows: KMV intersects
        like the other value sketches (O(k)), HLL over 2^p packed registers."""
        kmv = intersection_cost(Scheme.KMV, 50, 50, k=8)
        onehash = intersection_cost(Scheme.ONEHASH, 50, 50, k=8)
        assert kmv == onehash
        hll_small = intersection_cost(Scheme.HLL, 50, 50, precision=8)
        hll_large = intersection_cost(Scheme.HLL, 50, 50, precision=14)
        assert hll_small.work < hll_large.work  # scales with 2^p, not with k
        assert hll_large.work == (6 << 14) // 64
        # Per-edge costs stay uniform (the load-balancing property).
        for scheme in (Scheme.KMV, Scheme.HLL):
            costs = intersection_costs_per_edge(kron_small, scheme, k=8, precision=10)
            assert np.unique(costs).size == 1
        # Construction: one hash pass per element, like 1-hash.
        degrees = kron_small.degrees
        assert construction_cost(Scheme.KMV, degrees) == construction_cost(Scheme.ONEHASH, degrees)
        assert construction_cost(Scheme.HLL, degrees) == construction_cost(Scheme.ONEHASH, degrees)

    def test_workdepth_composition(self):
        a, b = WorkDepth(10, 2), WorkDepth(5, 4)
        assert (a + b) == WorkDepth(15, 4)
        assert a.then(b) == WorkDepth(15, 6)

    def test_unknown_algorithm_rejected(self, kron_small):
        with pytest.raises(ValueError):
            algorithm_cost("page_rank", kron_small, Scheme.BLOOM)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            intersection_cost("quantum", 3, 3)


class TestScheduleSimulator:
    def test_single_worker_makespan_is_total_work(self):
        costs = np.array([1.0, 2.0, 3.0])
        result = simulate_schedule(costs, 1, task_overhead=0.0)
        assert result.makespan == pytest.approx(6.0)
        assert result.parallel_efficiency == pytest.approx(1.0)

    def test_more_workers_never_slower(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(10.0, size=500)
        times = [simulate_schedule(costs, p).makespan for p in (1, 2, 4, 8, 16)]
        assert all(t2 <= t1 + 1e-9 for t1, t2 in zip(times, times[1:]))

    def test_uniform_tasks_scale_almost_ideally(self):
        costs = np.full(3200, 5.0)
        one = simulate_schedule(costs, 1).makespan
        many = simulate_schedule(costs, 32).makespan
        assert one / many == pytest.approx(32, rel=0.05)

    def test_skewed_tasks_hit_imbalance(self):
        costs = np.ones(1000)
        costs[0] = 5000.0  # one huge neighborhood dominates
        result = simulate_schedule(costs, 32)
        assert result.makespan >= 5000.0
        assert result.load_imbalance > 5.0

    def test_dynamic_scheduling_beats_static_on_skew(self):
        rng = np.random.default_rng(3)
        costs = np.sort(rng.pareto(1.2, size=2000) * 10)[::-1].copy()
        static = simulate_schedule(costs, 16, scheduling="static").makespan
        dynamic = simulate_schedule(costs, 16, scheduling="dynamic").makespan
        assert dynamic <= static + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            simulate_schedule(np.array([1.0]), 2, scheduling="magic")

    def test_strong_scaling_pg_faster_than_exact(self, kron_small):
        exact = simulate_strong_scaling(kron_small, Scheme.CSR_MERGE, [1, 32])
        pg = simulate_strong_scaling(kron_small, Scheme.BLOOM, [1, 32], num_bits=512)
        assert pg[32] < exact[32]

    def test_runtime_includes_construction(self, kron_small):
        without = simulate_algorithm_runtime(kron_small, Scheme.BLOOM, 4, include_construction=False)
        with_build = simulate_algorithm_runtime(kron_small, Scheme.BLOOM, 4, include_construction=True)
        assert with_build > without


class TestExecutor:
    def test_chunked_ranges_cover_everything(self):
        ranges = chunked_ranges(103, 10)
        assert ranges[0] == (0, 10)
        assert ranges[-1] == (100, 103)
        assert sum(b - a for a, b in ranges) == 103

    def test_chunked_ranges_invalid(self):
        with pytest.raises(ValueError):
            chunked_ranges(-1, 10)
        with pytest.raises(ValueError):
            chunked_ranges(10, 0)


class TestDistributedModel:
    def test_partition_balanced(self, kron_small):
        owners = partition_vertices(kron_small, 4, seed=1)
        counts = np.bincount(owners, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_reduction_factor_positive(self, kron_small):
        volume = communication_volume(kron_small, 4, sketch_bits_per_vertex=512, seed=1)
        assert volume.cut_edges > 0
        assert volume.reduction_factor > 0

    def test_shipments_deduped_per_vertex_partition_pair(self, kron_small):
        volume = communication_volume(kron_small, 4, sketch_bits_per_vertex=512, seed=1)
        # One shipment per (vertex, remote partition): never more than the cut
        # edges, never more than the 4-partition ceiling per vertex, and on a
        # skewed Kronecker graph strictly fewer than one-per-cut-edge.
        assert 0 < volume.shipments < volume.cut_edges
        assert volume.shipments <= 3 * kron_small.num_vertices
        # Both schemes charge exactly one representation per shipment.
        assert volume.sketch_bytes == volume.shipments * 512 / 8.0

    def test_smaller_sketches_reduce_more(self, kron_small):
        small = communication_volume(kron_small, 4, sketch_bits_per_vertex=256, seed=1)
        large = communication_volume(kron_small, 4, sketch_bits_per_vertex=4096, seed=1)
        assert small.reduction_factor > large.reduction_factor

    def test_single_partition_no_communication(self, kron_small):
        volume = communication_volume(kron_small, 1, seed=1)
        assert volume.cut_edges == 0
        assert volume.csr_bytes == 0.0

    @given(batch=pair_batches())
    @settings(max_examples=60, deadline=None)
    def test_pair_shipments_equal_the_hashed_dedup(self, batch):
        u, v, owners, degrees = batch
        cut, shipped = pair_shipments(u, v, owners, degrees)
        ou, ov = owners[u], owners[v]
        assert np.array_equal(cut, ou != ov)
        ship_u = degrees[u[cut]] <= degrees[v[cut]]
        destination = np.where(ship_u, ov[cut], ou[cut])
        n = owners.shape[0]
        keys = destination * n + np.where(ship_u, u[cut], v[cut])
        expected = np.unique(keys) % n
        assert shipped.dtype == expected.dtype
        assert np.array_equal(shipped, expected)
        if np.unique(owners).shape[0] == 1:  # a single shard cuts nothing
            assert not cut.any() and shipped.shape == (0,)

    def test_pair_shipments_without_cut_pairs(self):
        owners = np.asarray([0, 0, 1, 1], dtype=np.int64)
        degrees = np.ones(4)
        cut, shipped = pair_shipments(np.asarray([0, 2]), np.asarray([1, 3]), owners, degrees)
        assert not cut.any() and shipped.shape == (0,)
        cut, shipped = pair_shipments(np.asarray([0]), np.asarray([3]), np.zeros(4, np.int64), degrees)
        assert not cut.any() and shipped.shape == (0,)

    def test_invalid_inputs(self, kron_small):
        with pytest.raises(ValueError):
            partition_vertices(kron_small, 0)
        with pytest.raises(ValueError):
            communication_volume(kron_small, owners=np.array([0, 1]))
