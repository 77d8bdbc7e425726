"""Tests for the versioned sketch store (format v1, keyed store, consumers).

Layers under test, bottom-up: the block **format** (byte layout, checksums,
version policy, eager vs zero-copy mmap loading), the declared **storage
schema** on every sketch family, the typed **store** functions and the keyed
:class:`SketchStore` directory, and the three engine consumers —
:class:`PGSession` (store-backed cache misses), :class:`ShardedEngine`
(``save``/``open`` cold starts), and :class:`LSHIndex` (probe-ready table
files).  The load-bearing invariant throughout: a loaded sketch set answers
every query **bit-identically** to the one that was saved, in both load
modes, and corrupted or mismatched files are rejected instead of served.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import runtime
from repro.analysis import sanitizer as reprosan
from repro.core import ProbGraph
from repro.core.probgraph import resolve_sketch_params
from repro.dynamic import DynamicGraph
from repro.engine import LSHIndex, PGSession, ShardedEngine
from repro.graph import CSRGraph, erdos_renyi_graph
from repro.sketches import SKETCH_CONTAINER_TYPES
from repro.sketches.base import (
    ROW_MATRIX,
    ROW_VECTOR,
    ArraySpec,
    StorageSchema,
    concat_sketch_rows,
)
from repro.storage import (
    BLOCK_ALIGN,
    FORMAT_VERSION,
    MAGIC,
    SketchStore,
    StoreCorruptError,
    StoreFormatError,
    StoreHandle,
    StoreVersionError,
    load_graph,
    load_partition,
    load_sketches,
    open_blocks,
    read_store_header,
    save_graph,
    save_partition,
    save_sketches,
    sketch_params_from_meta,
    sketch_params_meta,
    write_blocks,
)

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]

#: Explicit parameters pin each family independent of graph-size budget math.
EXPLICIT_PARAMS = {
    "bloom": {"num_bits": 128, "num_hashes": 2},
    "khash": {"k": 8},
    "1hash": {"k": 8},
    "kmv": {"k": 8},
    "hll": {"precision": 5},
}


@pytest.fixture(autouse=True)
def _clean_sanitizer_state():
    runtime.reset()
    yield
    runtime.reset()


@pytest.fixture
def graph():
    return erdos_renyi_graph(120, 0.08, seed=3)


def _build(graph, representation, oriented=False, seed=0):
    return ProbGraph(
        graph,
        representation=representation,
        oriented=oriented,
        seed=seed,
        **EXPLICIT_PARAMS[representation],
    )


def _query_pairs(graph, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    n = graph.num_vertices
    return rng.integers(0, n, size=60), rng.integers(0, n, size=60)


# ---------------------------------------------------------------------------
# block format
# ---------------------------------------------------------------------------
class TestBlockFormat:
    def test_round_trip_both_modes(self, tmp_path):
        path = tmp_path / "t.pgsk"
        a = np.arange(24, dtype=np.uint64).reshape(6, 4)
        b = np.linspace(0.0, 1.0, 6)
        write_blocks(path, "sketches", {"a": a, "b": b}, meta={"x": 1})
        for mode in ("eager", "mmap"):
            with open_blocks(path, mode=mode) as handle:
                assert handle.kind == "sketches"
                assert handle.meta == {"x": 1}
                assert np.array_equal(handle.arrays["a"], a)
                assert np.array_equal(handle.arrays["b"], b)
                if mode == "mmap":
                    assert not handle.arrays["a"].flags.writeable
                    handle.verify()
                else:
                    assert handle.arrays["a"].flags.writeable

    def test_save_is_byte_deterministic(self, tmp_path):
        arrays = {"a": np.arange(10, dtype=np.int64)}
        write_blocks(tmp_path / "x.pgsk", "csr", arrays, meta={"k": 2})
        write_blocks(tmp_path / "y.pgsk", "csr", arrays, meta={"k": 2})
        assert (tmp_path / "x.pgsk").read_bytes() == (tmp_path / "y.pgsk").read_bytes()

    def test_blocks_are_aligned(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(
            path, "sketches",
            {"a": np.arange(7, dtype=np.uint8), "b": np.arange(5, dtype=np.uint64)},
        )
        header = read_store_header(path)
        for desc in header["arrays"]:
            assert desc["offset"] % BLOCK_ALIGN == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(StoreFormatError, match="bad magic"):
            read_store_header(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(StoreFormatError, match="too short"):
            read_store_header(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(3, dtype=np.int64)})
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreVersionError, match="format version"):
            read_store_header(path)

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(3, dtype=np.int64)})
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF  # a byte inside the header JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptError, match="header checksum"):
            read_store_header(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(1000, dtype=np.int64)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-64])
        with pytest.raises(StoreCorruptError, match="truncated payload"):
            read_store_header(path)

    def test_corrupted_block_rejected_eagerly(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(1000, dtype=np.int64)})
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF  # inside the last block's bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptError, match="checksum mismatch"):
            open_blocks(path, mode="eager")

    def test_corrupted_block_caught_by_mmap_verify(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(1000, dtype=np.int64)})
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF
        path.write_bytes(bytes(raw))
        with open_blocks(path, mode="mmap") as handle:
            with pytest.raises(StoreCorruptError, match="checksum mismatch"):
                handle.verify()

    def test_descriptor_nbytes_consistency_checked(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(4, dtype=np.int64)})
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack("<I", raw[12:16])[0]
        header = json.loads(bytes(raw[24:24 + header_len]))
        header["arrays"][0]["nbytes"] = 8  # claims 1 element for shape (4,)
        # Re-encode with a valid checksum so only the semantic check can fire.
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        preamble = struct.pack(
            "<8sIIII", MAGIC, FORMAT_VERSION, len(new_header),
            zlib.crc32(new_header), 0,
        )
        path.write_bytes(preamble + new_header + bytes(raw[24 + header_len:]))
        with pytest.raises(StoreCorruptError, match="claims 8 bytes"):
            read_store_header(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(3, dtype=np.int64)})
        with pytest.raises(ValueError, match="mode"):
            open_blocks(path, mode="lazy")

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(3, dtype=np.int64)})
        assert not os.path.exists(str(path) + ".tmp")

    def test_handle_close_is_idempotent_and_views_survive(self, tmp_path):
        path = tmp_path / "t.pgsk"
        write_blocks(path, "csr", {"a": np.arange(8, dtype=np.int64)})
        handle = open_blocks(path, mode="mmap")
        view = handle.arrays["a"]
        handle.close()
        handle.close()
        assert handle.closed
        assert np.array_equal(view, np.arange(8))  # live views outlast close()
        with pytest.raises(ValueError, match="closed"):
            handle.verify()


# ---------------------------------------------------------------------------
# the declared storage schema
# ---------------------------------------------------------------------------
class TestStorageSchema:
    def test_every_family_declares_a_schema(self):
        for cls in SKETCH_CONTAINER_TYPES:
            schema = cls.storage_schema
            assert schema.arrays, cls.__name__
            assert schema.params, cls.__name__
            assert any(spec.role == ROW_MATRIX for spec in schema.arrays)
            assert any(
                spec.name == "exact_sizes" and spec.role == ROW_VECTOR
                for spec in schema.arrays
            )

    def test_arrayspec_rejects_bad_role_and_dtype(self):
        with pytest.raises(ValueError, match="role"):
            ArraySpec("x", "uint64", "diagonal")
        with pytest.raises(ValueError, match="canonical"):
            ArraySpec("x", "u8", ROW_MATRIX)  # must be the canonical name

    def test_validate_catches_dtype_and_shape_drift(self, graph):
        pg = _build(graph, "bloom")
        schema = type(pg.sketches).storage_schema
        schema.validate(pg.sketches)
        bad = pg.sketches.take_rows(np.arange(pg.sketches.num_sets))
        bad.words = bad.words.astype(np.uint32)
        with pytest.raises(TypeError, match="dtype"):
            schema.validate(bad)
        bad2 = pg.sketches.take_rows(np.arange(pg.sketches.num_sets))
        bad2.exact_sizes = bad2.exact_sizes[:-1]
        with pytest.raises(ValueError, match="rows"):
            schema.validate(bad2)

    def test_from_storage_reports_missing_arrays(self, graph):
        pg = _build(graph, "bloom")
        cls = type(pg.sketches)
        arrays = pg.sketches.storage_arrays()
        arrays.pop("exact_sizes")
        with pytest.raises(ValueError, match="exact_sizes"):
            cls.from_storage(arrays, pg.sketches.storage_params())

    def test_storage_round_trip_in_memory(self, graph):
        for rep in REPRESENTATIONS:
            pg = _build(graph, rep)
            sk = pg.sketches
            clone = type(sk).from_storage(sk.storage_arrays(), sk.storage_params())
            u, v = _query_pairs(graph)
            assert np.array_equal(
                sk.pair_intersections(u, v), clone.pair_intersections(u, v)
            )

    def test_promote_rows_writable(self, graph, tmp_path):
        pg = _build(graph, "bloom")
        save_sketches(tmp_path / "s.pgsk", pg.sketches)
        sk, handle = load_sketches(tmp_path / "s.pgsk", mode="mmap")
        assert not sk.words.flags.writeable
        assert sk.promote_rows_writable()
        assert sk.words.flags.writeable
        assert not sk.promote_rows_writable()  # second call is a no-op
        handle.close()


# ---------------------------------------------------------------------------
# satellite regressions: take_rows / concat_sketch_rows edge cases
# ---------------------------------------------------------------------------
class TestRowOpsEdgeCases:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_take_rows_empty_preserves_dtype_and_width(self, graph, representation):
        sk = _build(graph, representation).sketches
        empty = sk.take_rows([])
        assert empty.num_sets == 0
        for name in type(sk).storage_schema.row_arrays:
            src, dst = getattr(sk, name), getattr(empty, name)
            assert dst.shape[0] == 0
            assert dst.dtype == src.dtype
            assert dst.shape[1:] == src.shape[1:]

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_single_part_concat_shares_memory(self, graph, representation):
        sk = _build(graph, representation).sketches
        merged = concat_sketch_rows([sk])
        assert merged is not sk
        for name in type(sk).storage_schema.row_arrays:
            assert np.shares_memory(getattr(merged, name), getattr(sk, name))
            assert getattr(merged, name).dtype == getattr(sk, name).dtype

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_concat_with_empty_part_keeps_dtype(self, graph, representation):
        sk = _build(graph, representation).sketches
        merged = concat_sketch_rows([sk.take_rows([0, 1]), sk.take_rows([])])
        assert merged.num_sets == 2
        for name in type(sk).storage_schema.row_arrays:
            assert getattr(merged, name).dtype == getattr(sk, name).dtype
        u = np.array([0, 1]); v = np.array([1, 0])
        assert np.array_equal(
            merged.pair_intersections(u, v),
            sk.take_rows([0, 1]).pair_intersections(u, v),
        )


# ---------------------------------------------------------------------------
# typed store functions + the keyed SketchStore
# ---------------------------------------------------------------------------
class TestTypedStore:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("mode", ["eager", "mmap"])
    def test_sketches_round_trip_bit_identical(self, tmp_path, graph, representation, mode):
        pg = _build(graph, representation, seed=5)
        path = tmp_path / "s.pgsk"
        save_sketches(path, pg.sketches)
        loaded, handle = load_sketches(path, mode=mode)
        with handle:
            assert type(loaded) is type(pg.sketches)
            for name in type(loaded).storage_schema.row_arrays:
                assert np.array_equal(getattr(loaded, name), getattr(pg.sketches, name))
            u, v = _query_pairs(graph)
            assert np.array_equal(
                pg.sketches.pair_intersections(u, v),
                loaded.pair_intersections(u, v),
            )

    def test_wrong_kind_rejected(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        with pytest.raises(StoreFormatError, match="not a sketch store entry"):
            load_sketches(tmp_path / "g.pgsk")

    def test_unknown_family_rejected(self, tmp_path):
        write_blocks(
            tmp_path / "s.pgsk", "sketches",
            {"words": np.zeros((2, 2), dtype=np.uint64)},
            meta={"family": "CountMinSketch", "params": {}},
        )
        with pytest.raises(StoreFormatError, match="unknown sketch family"):
            load_sketches(tmp_path / "s.pgsk")

    def test_graph_round_trip(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        for mode in ("eager", "mmap"):
            loaded, handle = load_graph(tmp_path / "g.pgsk", mode=mode)
            with handle:
                assert loaded.fingerprint() == graph.fingerprint()
                assert np.array_equal(loaded.indptr, graph.indptr)
                assert np.array_equal(loaded.indices, graph.indices)

    def test_partition_round_trip(self, tmp_path, graph):
        from repro.graph.partition import partition_graph

        part = partition_graph(graph, 3, method="hash", seed=1)
        save_partition(tmp_path / "p.pgsk", part)
        loaded = load_partition(tmp_path / "p.pgsk")
        assert loaded.num_shards == 3
        assert np.array_equal(loaded.owners, part.owners)
        assert np.array_equal(loaded.shard_sizes(), part.shard_sizes())

    def test_sketch_params_meta_round_trip(self, graph):
        for rep in REPRESENTATIONS:
            pg = _build(graph, rep)
            meta = sketch_params_meta(pg.sketch_params)
            json.dumps(meta)  # must be JSON-serializable
            assert sketch_params_from_meta(meta).key() == pg.sketch_params.key()

    def test_store_put_load_hit_and_miss(self, tmp_path, graph):
        store = SketchStore(tmp_path / "store")
        pg = _build(graph, "bloom", seed=2)
        assert store.load(graph, pg.sketch_params, seed=2) is None
        path = store.put(pg)
        assert os.path.exists(path)
        assert store.contains(graph.fingerprint(), pg.sketch_params, seed=2)
        hit = store.load(graph, pg.sketch_params, seed=2)
        assert hit is not None
        loaded, handle = hit
        with handle:
            u, v = _query_pairs(graph)
            assert np.array_equal(
                pg.pair_intersections(u, v), loaded.pair_intersections(u, v)
            )
            assert loaded.construction_seconds == pg.construction_seconds
        # a different seed is a different entry → miss
        assert store.load(graph, pg.sketch_params, seed=3) is None

    def test_store_rejects_foreign_fingerprint(self, tmp_path, graph):
        store = SketchStore(tmp_path / "store")
        pg = _build(graph, "bloom")
        entry = store.put(pg)
        other = erdos_renyi_graph(graph.num_vertices, 0.05, seed=9)
        # Force a key collision by renaming the entry to the other graph's key.
        os.replace(
            entry,
            store.entry_path(other.fingerprint(), pg.sketch_params, False, 0),
        )
        with pytest.raises(StoreFormatError, match="fingerprint"):
            store.load(other, pg.sketch_params)

    @pytest.mark.parametrize(
        "key", [{"k": 16}, {"seed": 3}, {"oriented": True}],
        ids=["other-params", "other-seed", "other-orientation"],
    )
    def test_store_rejects_entry_under_another_key(self, tmp_path, graph, key):
        store = SketchStore(tmp_path / "store")
        pg = _build(graph, "khash", seed=2)
        entry = store.put(pg)
        params = resolve_sketch_params(graph, "khash", k=key.get("k", 8))
        oriented, seed = key.get("oriented", False), key.get("seed", 2)
        shutil.copyfile(entry, store.entry_path(graph.fingerprint(), params, oriented, seed))
        with pytest.raises(StoreFormatError, match="does not match"):
            store.load(graph, params, oriented=oriented, seed=seed)


# ---------------------------------------------------------------------------
# hypothesis: save → load bit-identity and corruption rejection
# ---------------------------------------------------------------------------
class TestStoreProperties:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @given(
        oriented=st.booleans(),
        mode=st.sampled_from(["eager", "mmap"]),
        seed=st.sampled_from([0, 11, 999]),
        graph_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_round_trip_bit_identical(self, tmp_path_factory, representation, oriented, mode, seed, graph_seed):
        graph = erdos_renyi_graph(40, 0.12, seed=graph_seed)
        pg = _build(graph, representation, oriented=oriented, seed=seed)
        path = tmp_path_factory.mktemp("prop") / "s.pgsk"
        save_sketches(path, pg.sketches)
        loaded, handle = load_sketches(path, mode=mode)
        with handle:
            for name in type(loaded).storage_schema.row_arrays:
                assert np.array_equal(getattr(loaded, name), getattr(pg.sketches, name))
            assert loaded.storage_params() == pg.sketches.storage_params()

    @given(
        flip=st.integers(min_value=0, max_value=2**20),
        data=st.binary(min_size=0, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_header_corruption_is_rejected(self, tmp_path_factory, flip, data):
        """Flipping any pre-payload byte must never yield a silent wrong load."""
        path = tmp_path_factory.mktemp("corrupt") / "s.pgsk"
        arr = np.arange(64, dtype=np.uint64)
        write_blocks(path, "csr", {"a": arr}, meta={"fingerprint": "f" * 40})
        raw = bytearray(path.read_bytes())
        header_end = 24 + struct.unpack("<I", raw[12:16])[0]
        pos = flip % header_end
        raw[pos] ^= 0xFF
        raw[len(raw) - len(data):] = data  # also jitter the tail
        path.write_bytes(bytes(raw))
        try:
            with open_blocks(path, mode="eager") as handle:
                # The rare survivable flips (e.g. inside the reserved word or
                # a meta string) must still load the payload bytes intact.
                assert np.array_equal(handle.arrays["a"], arr)
        except StoreFormatError:
            pass  # rejection (version/corrupt/format) is the expected outcome

    @given(cut=st.integers(min_value=1, max_value=511))
    @settings(max_examples=25, deadline=None)
    def test_any_truncation_is_rejected(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("trunc") / "s.pgsk"
        write_blocks(path, "csr", {"a": np.arange(64, dtype=np.uint64)})
        raw = path.read_bytes()
        path.write_bytes(raw[: max(0, len(raw) - cut)])
        with pytest.raises(StoreFormatError):
            open_blocks(path, mode="eager").verify()


# ---------------------------------------------------------------------------
# PGSession store-backed cache
# ---------------------------------------------------------------------------
class TestSessionStore:
    def test_miss_builds_and_saves_hit_loads(self, tmp_path, graph):
        with PGSession(store=tmp_path / "store") as s1:
            pg = s1.probgraph(graph, representation="bloom", seed=4, num_bits=128)
            assert s1.stats.constructions == 1
            assert s1.stats.store_saves == 1

        with PGSession(store=tmp_path / "store") as s2:
            pg2 = s2.probgraph(graph, representation="bloom", seed=4, num_bits=128)
            assert s2.stats.constructions == 0
            assert s2.stats.store_hits == 1
            assert not pg2.sketches.words.flags.writeable  # zero-copy mmap rows
            u, v = _query_pairs(graph)
            assert np.array_equal(pg.pair_intersections(u, v), pg2.pair_intersections(u, v))

    def test_eager_store_mode_loads_writable(self, tmp_path, graph):
        s1 = PGSession(store=tmp_path / "store")
        s1.probgraph(graph, representation="bloom", seed=4, num_bits=128)
        s2 = PGSession(store=tmp_path / "store", store_mode="eager")
        pg2 = s2.probgraph(graph, representation="bloom", seed=4, num_bits=128)
        assert s2.stats.store_hits == 1
        assert pg2.sketches.words.flags.writeable
        assert not s2._handles  # eager loads leave no handle behind

    def test_bad_store_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="store_mode"):
            PGSession(store=tmp_path, store_mode="lazy")

    def test_delta_patch_promotes_mmap_entry(self, tmp_path, graph):
        with PGSession(store=tmp_path / "store") as s1:
            s1.probgraph(graph, representation="bloom", seed=4, num_bits=128)
        with PGSession(store=tmp_path / "store") as s2:
            pg2 = s2.probgraph(graph, representation="bloom", seed=4, num_bits=128)
            dyn = DynamicGraph(graph)
            delta = dyn.apply_edges(insertions=[(0, graph.num_vertices - 1), (3, 7)])
            assert s2.apply_delta(delta) == 1
            assert pg2.sketches.words.flags.writeable  # promoted on first patch
            fresh = _build(dyn.snapshot(), "bloom", seed=4)
            assert np.array_equal(fresh.sketches.words, pg2.sketches.words)

    def test_close_releases_handles_and_is_idempotent(self, tmp_path, graph):
        with PGSession(store=tmp_path / "store") as warm:
            warm.probgraph(graph, representation="bloom", seed=4, num_bits=128)
        s = PGSession(store=tmp_path / "store")
        with s as entered:
            assert entered is s
            pg = s.probgraph(graph, representation="bloom", seed=4, num_bits=128)
            handle = s._handles[id(pg)]
        assert handle.closed
        assert not s._handles and len(s) == 0
        s.close()  # a second close is a no-op
        u, v = _query_pairs(graph)
        assert pg.pair_intersections(u, v).shape == u.shape  # held objects still answer

    def test_eviction_and_clear_close_handles(self, tmp_path, graph):
        store_dir = tmp_path / "store"
        warm = PGSession(store=store_dir)
        for rep in ("bloom", "khash"):
            warm.probgraph(graph, representation=rep, seed=1, **EXPLICIT_PARAMS[rep])

        s = PGSession(max_entries=1, store=store_dir)
        s.probgraph(graph, representation="bloom", seed=1, **EXPLICIT_PARAMS["bloom"])
        assert len(s._handles) == 1
        s.probgraph(graph, representation="khash", seed=1, **EXPLICIT_PARAMS["khash"])
        assert s.stats.evictions == 1
        assert len(s._handles) == 1  # the evicted entry's handle was closed
        s.clear()
        assert not s._handles

    def test_persist_requires_a_store(self, graph):
        s = PGSession()
        pg = s.probgraph(graph, representation="bloom", num_bits=128)
        with pytest.raises(ValueError, match="no sketch store"):
            s.persist(pg)


# ---------------------------------------------------------------------------
# ShardedEngine.save / ShardedEngine.open
# ---------------------------------------------------------------------------
class TestShardedPersistence:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_cold_start_bit_identical(self, tmp_path, graph, representation, num_shards):
        with ShardedEngine(
            graph, num_shards=num_shards, representation=representation,
            seed=6, **EXPLICIT_PARAMS[representation],
        ) as eng:
            eng.save(tmp_path / "eng")
            u, v = _query_pairs(graph)
            ref = eng.pair_intersections(u, v)
        for mode in ("mmap", "eager"):
            with ShardedEngine.open(tmp_path / "eng", mode=mode) as eng2:
                assert eng2.num_shards == num_shards
                assert np.array_equal(ref, eng2.pair_intersections(u, v))

    def test_open_then_delta_matches_fresh_build(self, tmp_path, graph):
        with ShardedEngine(
            graph, num_shards=2, representation="bloom", seed=6, num_bits=128,
        ) as eng:
            eng.save(tmp_path / "eng")
        dyn = DynamicGraph(graph)
        delta = dyn.apply_edges(insertions=[(0, 5), (1, graph.num_vertices - 1)])
        with ShardedEngine.open(tmp_path / "eng") as eng2:
            eng2.apply_delta(delta)
            u, v = _query_pairs(graph)
            got = eng2.pair_intersections(u, v)
        with ShardedEngine(
            dyn.snapshot(), num_shards=2, representation="bloom", seed=6, num_bits=128,
        ) as fresh:
            assert np.array_equal(fresh.pair_intersections(u, v), got)

    def test_manifest_mismatch_rejected(self, tmp_path, graph):
        with ShardedEngine(
            graph, num_shards=2, representation="bloom", seed=6, num_bits=128,
        ) as eng:
            eng.save(tmp_path / "eng")
        manifest_path = tmp_path / "eng" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["fingerprint"] = "0" * 40
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="fingerprint"):
            ShardedEngine.open(tmp_path / "eng")

    @pytest.mark.parametrize(
        "change", [{"k": 16}, {"seed": 7}, {"oriented": True}],
        ids=["other-k", "other-seed", "other-orientation"],
    )
    def test_foreign_same_graph_sketch_file_rejected(self, tmp_path, graph, change):
        params = dict(representation="khash", k=8, seed=6, oriented=False)
        with ShardedEngine(graph, num_shards=2, **params) as eng:
            eng.save(tmp_path / "eng")
        with ShardedEngine(
            graph, num_shards=2, **{**params, **change}
        ) as other:
            other.save(tmp_path / "other")
        shutil.copyfile(tmp_path / "other" / "sketches.pgsk", tmp_path / "eng" / "sketches.pgsk")
        for mode in ("mmap", "eager"):
            with pytest.raises(StoreFormatError, match="does not match"):
                ShardedEngine.open(tmp_path / "eng", mode=mode)

    def test_wrong_manifest_kind_rejected(self, tmp_path):
        os.makedirs(tmp_path / "eng", exist_ok=True)
        for manifest in ({"kind": "zoo"}, {"kind": "sharded-engine", "format": 1}):
            (tmp_path / "eng" / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(StoreFormatError, match="manifest"):
                ShardedEngine.open(tmp_path / "eng")

    def test_closed_open_engine_rejects_queries(self, tmp_path, graph):
        with ShardedEngine(
            graph, num_shards=2, representation="bloom", seed=6, num_bits=128,
        ) as eng:
            eng.save(tmp_path / "eng")
        eng2 = ShardedEngine.open(tmp_path / "eng")
        eng2.close()
        eng2.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            eng2.pair_intersections(np.array([0]), np.array([1]))

    # -- the saved LSH tables (lsh.pgsk) -------------------------------------
    @staticmethod
    def _saved(root, graph, representation="khash", num_shards=2, **change):
        params = {"seed": 6, **EXPLICIT_PARAMS[representation], **change}
        with ShardedEngine(
            graph, num_shards=num_shards, representation=representation, **params,
        ) as eng:
            eng.save(root)
        return root

    @staticmethod
    def _assert_same_tables(index, reference):
        sources = np.arange(0, 120, 7)
        got = index.topk_similar_batch(sources, 5)  # a read re-keys marked rows
        want = reference.topk_similar_batch(sources, 5)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(index._keys, reference._keys)
        assert np.array_equal(index._verts, reference._verts)

    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_cold_start_maps_the_built_lsh_tables(self, tmp_path, graph, representation, num_shards):
        root = self._saved(tmp_path / "eng", graph, representation, num_shards)
        for mode in ("mmap", "eager"):
            with ShardedEngine.open(root, mode=mode) as eng2:
                index = eng2.lsh_index()
                assert index._handle is not None and index._handle.mode == mode
                self._assert_same_tables(index, LSHIndex(eng2.to_probgraph()))

    @pytest.mark.parametrize("representation", ["bloom", "hll"])
    def test_unbanded_families_save_no_lsh_tables(self, tmp_path, graph, representation):
        # Saved over a k-hash directory, so its lsh.pgsk must go too.
        root = self._saved(tmp_path / "eng", graph)
        assert os.path.exists(root / "lsh.pgsk")
        self._saved(root, graph, representation)
        assert not os.path.exists(root / "lsh.pgsk")
        with ShardedEngine.open(root) as eng2:
            assert not eng2.lsh_index().banded

    def test_delta_rekeys_mapped_tables_into_fresh_arrays(self, tmp_path, graph):
        root = self._saved(tmp_path / "eng", graph)
        saved_bytes = (root / "lsh.pgsk").read_bytes()
        n = graph.num_vertices
        delta = DynamicGraph(graph).apply_edges(insertions=[(0, n), (5, n + 1), (n, 7)])
        with ShardedEngine.open(root) as eng2:
            index = eng2.lsh_index()
            assert isinstance(index._keys, np.memmap)
            eng2.apply_delta(delta)
            assert eng2.num_vertices == n + 2
            self._assert_same_tables(index, LSHIndex(eng2.to_probgraph()))
            assert not isinstance(index._keys, np.memmap)
            assert (root / "lsh.pgsk").read_bytes() == saved_bytes
            rebuilt = eng2.lsh_index()
            assert rebuilt._handle is None
            self._assert_same_tables(rebuilt, index)

    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    def test_mapped_tables_take_successive_deltas(self, tmp_path, graph, representation):
        # The first delta replaces the rows' entries (a mapped index keeps no
        # key matrix) and builds the matrix; the second splices changed cells.
        root = self._saved(tmp_path / "eng", graph, representation)
        saved_bytes = (root / "lsh.pgsk").read_bytes()
        dyn = DynamicGraph(graph)
        edges = graph.edge_array()
        with ShardedEngine.open(root) as eng2:
            index = eng2.lsh_index()
            assert index._handle is not None and index._key_matrix is None
            for step in ({"insertions": [(0, 9), (3, 40), (17, 80)]},
                         {"deletions": edges[::11], "insertions": [(2, 90)]}):
                eng2.apply_delta(dyn.apply_edges(**step))
                self._assert_same_tables(index, LSHIndex(eng2.to_probgraph()))
                assert index._key_matrix is not None
                assert (root / "lsh.pgsk").read_bytes() == saved_bytes

    def test_directory_without_lsh_tables_builds_in_memory(self, tmp_path, graph):
        # A format-2 directory from before the tables were saved.
        root = self._saved(tmp_path / "eng", graph)
        os.remove(root / "lsh.pgsk")
        with ShardedEngine.open(root) as eng2:
            index = eng2.lsh_index()
            assert index._handle is None
            self._assert_same_tables(index, LSHIndex(eng2.to_probgraph()))

    def test_other_band_split_builds_in_memory(self, tmp_path, graph):
        root = self._saved(tmp_path / "eng", graph)
        with ShardedEngine.open(root) as eng2:
            index = eng2.lsh_index(num_bands=4, rows_per_band=2)
            assert index._handle is None
            ref = LSHIndex(eng2.to_probgraph(), num_bands=4, rows_per_band=2)
            self._assert_same_tables(index, ref)
            # The saved default split, asked for explicitly, still maps.
            assert eng2.lsh_index(num_bands=8, rows_per_band=1)._handle is not None

    @pytest.mark.parametrize(
        "donor, message",
        [({"seed": 7}, "checksum mismatch"), ({"representation": "kmv"}, "built over"),
         ({"split": (4, 2)}, "band split")],
        ids=["other-seed", "other-family", "other-split"],
    )
    def test_foreign_lsh_tables_rejected(self, tmp_path, graph, donor, message):
        root = self._saved(tmp_path / "eng", graph)
        if "split" in donor:
            with ShardedEngine.open(root) as eng:
                b, r = donor["split"]
                LSHIndex(eng, num_bands=b, rows_per_band=r).save(root / "lsh.pgsk")
        else:
            other = self._saved(tmp_path / "other", graph, **donor)
            shutil.copyfile(other / "lsh.pgsk", root / "lsh.pgsk")
        for mode in ("mmap", "eager"):
            with ShardedEngine.open(root, mode=mode) as eng2:
                with pytest.raises(StoreFormatError, match=message):
                    eng2.lsh_index()

    def test_truncated_lsh_tables_rejected(self, tmp_path, graph):
        root = self._saved(tmp_path / "eng", graph)
        path = root / "lsh.pgsk"
        path.write_bytes(path.read_bytes()[: os.path.getsize(path) // 2])
        with reprosan.enabled(strict=False) as region:
            for mode in ("mmap", "eager"):
                with ShardedEngine.open(root, mode=mode) as eng2:
                    with pytest.raises(StoreFormatError, match="truncated"):
                        eng2.lsh_index()
        assert region.findings == []

    @pytest.mark.parametrize("change", [{"k": 16}, {}], ids=["other-k", "identical"])
    def test_interrupted_lsh_write_during_resave(self, tmp_path, graph, monkeypatch, change):
        root = self._saved(tmp_path / "eng", graph)
        with ShardedEngine.open(root, mode="eager") as eng:
            u, v = _query_pairs(graph)
            pairs = eng.pair_intersections(u, v)
            top = eng.lsh_index().topk_similar_batch(np.arange(30), 5)

        def interrupted(self, path):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(LSHIndex, "save", interrupted)
            with pytest.raises(OSError, match="disk full"):
                self._saved(root, graph, **change)
        for mode in ("mmap", "eager"):
            if change:
                with pytest.raises(StoreFormatError, match="does not match"):
                    ShardedEngine.open(root, mode=mode)
                continue
            with ShardedEngine.open(root, mode=mode) as eng2:
                assert np.array_equal(eng2.pair_intersections(u, v), pairs)
                index = eng2.lsh_index()
                assert index._handle is not None
                got = index.topk_similar_batch(np.arange(30), 5)
                assert np.array_equal(got.indices, top.indices)
                assert np.array_equal(got.scores, top.scores)


# ---------------------------------------------------------------------------
# LSHIndex table persistence
# ---------------------------------------------------------------------------
class TestLSHPersistence:
    @pytest.mark.parametrize("representation", ["khash", "1hash", "kmv"])
    @pytest.mark.parametrize("mode", ["mmap", "eager"])
    def test_probe_ready_round_trip(self, tmp_path, graph, representation, mode):
        pg = _build(graph, representation, seed=8)
        index = LSHIndex(pg, num_bands=4, rows_per_band=2)
        index.save(tmp_path / "t.pgsk")
        with LSHIndex.open(tmp_path / "t.pgsk", pg, mode=mode) as loaded:
            assert loaded.num_bands == index.num_bands
            assert loaded.rows_per_band == index.rows_per_band
            sources = np.arange(30)
            for a, b in zip(
                index.query_candidates_batch(sources),
                loaded.query_candidates_batch(sources),
            ):
                assert np.array_equal(a, b)
            r1 = index.topk_similar_batch(sources, k=4)
            r2 = loaded.topk_similar_batch(sources, k=4)
            assert np.array_equal(r1.indices, r2.indices)
            assert np.array_equal(r1.scores, r2.scores)

    def test_foreign_container_rejected(self, tmp_path, graph):
        pg = _build(graph, "khash", seed=8)
        LSHIndex(pg, num_bands=4, rows_per_band=2).save(tmp_path / "t.pgsk")
        other = _build(graph, "khash", seed=9)
        with pytest.raises(StoreFormatError, match="checksum mismatch"):
            LSHIndex.open(tmp_path / "t.pgsk", other)
        wrong_family = _build(graph, "kmv", seed=8)
        with pytest.raises(StoreFormatError, match="built over"):
            LSHIndex.open(tmp_path / "t.pgsk", wrong_family)

    def test_unbanded_index_has_nothing_to_save(self, graph, tmp_path):
        pg = _build(graph, "bloom")
        with pytest.raises(ValueError, match="nothing to persist"):
            LSHIndex(pg).save(tmp_path / "t.pgsk")


# ---------------------------------------------------------------------------
# sanitizer: mmap handles live in the segment ledger
# ---------------------------------------------------------------------------
class TestMmapLedger:
    def test_leaked_handle_reported_at_region_exit(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        with reprosan.enabled(strict=False) as region:
            handle = open_blocks(tmp_path / "g.pgsk", mode="mmap")
            del handle  # leaked: never closed before the region ends
        assert "SAN601" in [f.code for f in region.findings]
        finding = [f for f in region.findings if f.code == "SAN601"][0]
        assert "mmap-backed store handle" in finding.message

    def test_closed_handle_is_clean(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        with reprosan.enabled(strict=False) as region:
            with open_blocks(tmp_path / "g.pgsk", mode="mmap") as handle:
                assert handle.arrays["indptr"].shape[0] == graph.num_vertices + 1
        assert region.findings == []

    def test_double_close_is_not_a_double_release(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        with reprosan.enabled(strict=False) as region:
            handle = open_blocks(tmp_path / "g.pgsk", mode="mmap")
            handle.close()
            handle.close()  # handle.close() is idempotent → no SAN602
        assert region.findings == []

    def test_owner_scoped_leak_reported_at_owner_check(self, tmp_path, graph):
        class Owner:
            pass

        owner = Owner()
        save_graph(tmp_path / "g.pgsk", graph)
        with reprosan.enabled(strict=False) as region:
            handle = open_blocks(tmp_path / "g.pgsk", mode="mmap", owner=owner)
            found = runtime.check_owner_segments(owner)
            assert [f.code for f in found] == ["SAN601"]
        # Already reported at the owner check; region exit must not repeat it.
        assert [f.code for f in region.findings] == ["SAN601"]
        handle.close()

    def test_second_release_of_a_token_is_flagged(self, tmp_path, graph):
        save_graph(tmp_path / "g.pgsk", graph)
        with reprosan.enabled(strict=False) as region:
            handle = open_blocks(tmp_path / "g.pgsk", mode="mmap")
            handle.close()  # the first release of its ledger token
            runtime.release_mmap(handle._san_token)
        assert [f.code for f in region.findings] == ["SAN602"]
        assert "mmap-backed store handle" in region.findings[0].message

    def test_engine_close_releases_owned_handles(self, tmp_path, graph):
        with ShardedEngine(
            graph, num_shards=2, representation="bloom", seed=6, num_bits=128,
        ) as eng:
            eng.save(tmp_path / "eng")
        with ShardedEngine(
            graph, num_shards=2, representation="khash", seed=6, k=8,
        ) as eng:
            eng.save(tmp_path / "khash")
        with reprosan.enabled(strict=False) as region:
            with ShardedEngine.open(tmp_path / "eng") as eng2:
                eng2.pair_intersections(np.array([0, 1]), np.array([2, 3]))
            # The mapped LSH tables are one more handle the engine releases.
            with ShardedEngine.open(tmp_path / "khash") as eng2:
                index = eng2.lsh_index()
                assert index._handle is not None
                index.topk_similar_batch(np.array([0, 1]), 3)
        assert [f.code for f in region.findings] == []

    def test_session_sweep_releases_handles(self, tmp_path, graph):
        warm = PGSession(store=tmp_path / "store")
        warm.probgraph(graph, representation="bloom", seed=1, num_bits=128)
        with reprosan.enabled(strict=False) as region:
            s = PGSession(store=tmp_path / "store")
            s.probgraph(graph, representation="bloom", seed=1, num_bits=128)
            s.clear()
        assert [f.code for f in region.findings] == []
