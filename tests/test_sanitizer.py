"""Tests for reprosan, the runtime race/lifecycle/determinism sanitizer.

Three seeded bad fixtures — a lock-order inversion, an unlocked
guarded-state mutation, and a diverged seed stream — must each be caught
with the right detector code and call-site attribution, while a clean
engine workout under the sanitizer reports zero findings.  The leaked and
double-released store handles of the lifecycle ledger are covered in
``tests/test_storage.py::TestMmapLedger``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import runtime
from repro.analysis import sanitizer as reprosan
from repro.dynamic import DynamicGraph
from repro.engine import LSHIndex, PGSession, ShardedEngine
from repro.graph import erdos_renyi_graph, kronecker_graph

HERE = __file__


@pytest.fixture(autouse=True)
def _clean_sanitizer_state():
    """Every test starts and ends with an empty findings/segments/edges ledger."""
    runtime.reset()
    yield
    runtime.reset()


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# activation & suppression plumbing
# ---------------------------------------------------------------------------
class TestActivation:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        assert not runtime.active()
        # Factories hand back plain primitives when off.
        assert not isinstance(runtime.make_rlock("X"), runtime.SanRLock)
        d = runtime.guard_mapping({}, threading.RLock(), "X")
        assert not isinstance(d, runtime.GuardedOrderedDict)

    def test_env_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "1")
        assert runtime.active()
        assert isinstance(runtime.make_rlock("X"), runtime.SanRLock)

    def test_region_activates_and_deactivates(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        assert not runtime.active()
        with reprosan.enabled(strict=False):
            assert runtime.active()
        assert not runtime.active()

    def test_report_is_noop_when_inactive(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        assert runtime.report("SAN402", "nothing") is None
        assert runtime.findings() == []

    def test_strict_region_raises_at_detection_point(self):
        with pytest.raises(runtime.SanitizerError, match="SAN402"):
            with reprosan.enabled(strict=True):
                runtime.report("SAN402", "boom")

    def test_allow_requires_justification(self):
        with pytest.raises(ValueError, match="justification"):
            with runtime.allow("SAN402", ""):
                pass

    def test_allow_suppresses_by_code_and_category(self):
        with reprosan.enabled(strict=False) as region:
            with runtime.allow("SAN402", "fixture exercises the raw report path"):
                runtime.report("SAN402", "suppressed by code")
            with runtime.allow("lock", "category selector"):
                runtime.report("SAN402", "suppressed by category")
            runtime.report("SAN402", "this one is live")
        assert codes(region.findings) == ["SAN402"]


# ---------------------------------------------------------------------------
# bad fixture 1: lock-order inversion (SAN401)
# ---------------------------------------------------------------------------
class TestLockOrderInversion:
    def test_ab_then_ba_is_flagged_with_sites(self):
        with reprosan.enabled(strict=False) as region:
            a = runtime.make_rlock("FixtureA")
            b = runtime.make_rlock("FixtureB")
            with a:
                with b:
                    pass
            with b:
                with a:  # reverse order: the deadlock-capable pair
                    pass
        found = region.findings
        assert codes(found) == ["SAN401"]
        assert "FixtureA" in found[0].message and "FixtureB" in found[0].message
        # Attribution: the inversion site is in this file, and the message
        # carries the first edge's site for the opposite order.
        assert HERE in found[0].site
        assert HERE in found[0].message

    def test_consistent_order_is_clean(self):
        with reprosan.enabled(strict=False) as region:
            a = runtime.make_rlock("FixtureA")
            b = runtime.make_rlock("FixtureB")
            for _ in range(3):
                with a:
                    with b:
                        pass
        assert region.findings == []

    def test_same_name_nesting_is_not_an_inversion(self):
        # Two instances of the same class share a lock name; re-entrancy and
        # instance-pair nesting must not fabricate edges.
        with reprosan.enabled(strict=False) as region:
            a1 = runtime.make_rlock("Fixture")
            a2 = runtime.make_rlock("Fixture")
            with a1:
                with a2:
                    with a1:
                        pass
            with a2:
                with a1:
                    pass
        assert region.findings == []

    def test_inversion_across_threads_is_flagged(self):
        with reprosan.enabled(strict=False) as region:
            a = runtime.make_rlock("FixtureA")
            b = runtime.make_rlock("FixtureB")
            with a:
                with b:
                    pass

            def reversed_order():
                with b:
                    with a:
                        pass

            t = threading.Thread(target=reversed_order)
            t.start()
            t.join()
        assert codes(region.findings) == ["SAN401"]


# ---------------------------------------------------------------------------
# bad fixture 2: guarded-state mutation without the owning lock (SAN402)
# ---------------------------------------------------------------------------
class TestUnlockedGuardedMutation:
    def test_session_cache_mutation_without_lock(self, small_er_graph):
        with reprosan.enabled(strict=False) as region:
            session = PGSession()
            session.probgraph(small_er_graph, "bloom", num_bits=64)
            # The historical PGSession bug shape: touching the cache directly,
            # no `with session._lock`.
            session._cache.popitem()
        found = [f for f in region.findings if f.code == "SAN402"]
        assert len(found) == 1
        assert "PGSession._cache" in found[0].message
        assert HERE in found[0].site  # attributed to the mutating line here

    def test_locked_session_usage_is_clean(self, small_er_graph):
        with reprosan.enabled(strict=False) as region:
            session = PGSession(max_entries=2)
            for bits in (64, 128, 256):  # exercises insert + LRU eviction
                session.probgraph(small_er_graph, "bloom", num_bits=bits)
            session.clear()
        assert region.findings == []

    def test_bare_stamp_without_lock(self):
        with reprosan.enabled(strict=False) as region:
            lock = runtime.make_rlock("FixtureState")
            runtime.stamp_write(lock, "FixtureState.table")  # not holding it
            with lock:
                runtime.stamp_write(lock, "FixtureState.table")  # fine
        assert codes(region.findings) == ["SAN402"]
        assert runtime.write_epoch("FixtureState.table") == 2

    def test_lsh_rekey_is_stamped_and_clean(self, small_er_graph):
        with reprosan.enabled(strict=False) as region:
            dyn = DynamicGraph(small_er_graph)
            session = PGSession()
            pg = session.probgraph(dyn.snapshot(), "khash", k=8)
            index = LSHIndex(pg, num_bands=4, rows_per_band=2)
            before = runtime.write_epoch("LSHIndex.tables")
            delta = dyn.apply_edges(insertions=[[0, 5], [1, 7]])
            pg.apply_delta(delta)
            index.apply_delta(delta)
            assert runtime.write_epoch("LSHIndex.tables") > before
        assert region.findings == []


# ---------------------------------------------------------------------------
# bad fixture 3: diverged seed stream (SAN101)
# ---------------------------------------------------------------------------
class TestDeterminism:
    def _build(self, graph, seed):
        session = PGSession()
        return session.probgraph(graph, "khash", k=8, seed=seed)

    def test_same_build_same_digest(self, small_er_graph):
        with reprosan.trace_determinism() as first:
            self._build(small_er_graph, seed=7)
        with reprosan.trace_determinism() as second:
            self._build(small_er_graph, seed=7)
        assert first.events  # the hook actually saw kernel seed derivations
        assert first.digest == second.digest
        assert reprosan.compare_traces(first, second) is None

    def test_diverged_seed_pinpoints_first_site(self, small_er_graph, monkeypatch):
        # Pin the env off: under REPRO_SAN=1 compare_traces routes through
        # report() and raises; the inactive path must return the finding.
        monkeypatch.delenv("REPRO_SAN", raising=False)
        with reprosan.trace_determinism() as first:
            self._build(small_er_graph, seed=7)
        with reprosan.trace_determinism() as second:
            self._build(small_er_graph, seed=8)  # the deliberate divergence
        finding = reprosan.compare_traces(first, second)
        assert finding is not None
        assert finding.code == "SAN101"
        assert "event #0" in finding.message
        # Attribution: the divergent call site is inside the sketch kernels.
        assert "repro" in finding.site and "sketches" in finding.site

    def test_divergence_raises_under_strict_region(self, small_er_graph):
        with reprosan.trace_determinism() as first:
            self._build(small_er_graph, seed=7)
        with reprosan.trace_determinism() as second:
            self._build(small_er_graph, seed=8)
        with pytest.raises(runtime.SanitizerError, match="SAN101"):
            with reprosan.enabled(strict=True):
                reprosan.compare_traces(first, second)

    def test_threaded_sharded_builds_trace_one_digest(self, monkeypatch):
        # The row ranges hash in their own threads, whose events would arrive
        # in no fixed order; only the tracing thread's events are recorded.
        import os

        from repro.core import probgraph

        monkeypatch.setattr(probgraph, "_SLOTS_PER_RANGE", 1 << 12)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        graph = kronecker_graph(scale=12, edge_factor=8, seed=5)
        digests = set()
        for _ in range(5):
            with reprosan.trace_determinism() as trace:
                engine = ShardedEngine(graph, 2, representation="khash", k=16, seed=7)
            assert engine.build_threads > 1
            assert trace.events  # the partition RNG, drawn in this thread
            digests.add(trace.digest)
        assert len(digests) == 1

    def test_hook_restores_bindings(self, small_er_graph):
        from repro.sketches import hashing

        original = hashing.splitmix64
        with reprosan.trace_determinism():
            assert hashing.splitmix64 is not original
        assert hashing.splitmix64 is original
        assert np.random.default_rng.__module__ != __name__


# ---------------------------------------------------------------------------
# engine lifecycle protocol (the satellite close()/__exit__)
# ---------------------------------------------------------------------------
class TestEngineLifecycle:
    def test_close_is_idempotent(self, small_er_graph):
        engine = ShardedEngine(small_er_graph, num_shards=2, num_bits=64)
        engine.close()
        engine.close()

    def test_query_after_close_raises(self, small_er_graph):
        engine = ShardedEngine(small_er_graph, num_shards=2, num_bits=64)
        engine.close()
        u = np.array([0], dtype=np.int64)
        with pytest.raises(RuntimeError, match="closed"):
            engine.pair_intersections(u, u)

    def test_apply_delta_after_close_raises(self, small_er_graph):
        dyn = DynamicGraph(small_er_graph)
        engine = ShardedEngine(dyn, num_shards=2, num_bits=64)
        engine.close()
        delta = dyn.apply_edges(insertions=[[0, 9]])
        with pytest.raises(RuntimeError, match="closed"):
            engine.apply_delta(delta)

    def test_context_manager_closes(self, small_er_graph):
        with ShardedEngine(small_er_graph, num_shards=2, num_bits=64) as engine:
            u = np.array([0, 1], dtype=np.int64)
            engine.pair_intersections(u, u)
        u = np.array([0], dtype=np.int64)
        with pytest.raises(RuntimeError, match="closed"):
            engine.pair_intersections(u, u)


# ---------------------------------------------------------------------------
# clean tier-1-style workout: zero findings end to end
# ---------------------------------------------------------------------------
class TestCleanRun:
    def test_full_engine_workout_under_strict_sanitizer(self, small_er_graph):
        """Build → query → delta → repartition → close, strict: nothing fires."""
        with reprosan.enabled(strict=True) as region:
            dyn = DynamicGraph(small_er_graph)
            with ShardedEngine(
                dyn, num_shards=2, representation="khash", k=8
            ) as engine:
                u = np.array([0, 1, 2, 3], dtype=np.int64)
                v = np.array([4, 5, 6, 7], dtype=np.int64)
                base = engine.pair_intersections(u, v)
                delta = dyn.apply_edges(insertions=[[0, 9], [2, 11]])
                engine.apply_delta(delta)
                engine.repartition()
                engine.pair_intersections(u, v)
                assert base.shape == (4,)

            session = PGSession()
            pg = session.probgraph(dyn.snapshot(), "khash", k=8)
            index = session.lsh_index(pg, num_bands=4, rows_per_band=2)
            index.query_candidates(np.array([0, 1], dtype=np.int64))
            delta2 = dyn.apply_edges(insertions=[[1, 12]])
            session.apply_delta(delta2)
        assert region.findings == []


@pytest.fixture
def small_er_graph():
    return erdos_renyi_graph(24, 0.25, seed=3)
