"""Property-based tests for incremental sketch maintenance (hypothesis).

The central dynamic-graph invariant: for an **insert-only** edge stream,
incrementally maintained sketches are bit-identical to sketches rebuilt from
scratch on the final graph — for every sketch family, oriented and unoriented,
across hash seeds and arbitrary batch boundaries.  A second property extends
the check to mixed insert/delete streams (where deletions remove slots and
resketch their rows) and to vertex growth; there, the LSH bucket
tables of the families that band (k-hash, 1-hash, KMV) are re-keyed through
every delta and must equal a fresh build's after each one.  A third property
checks the graph side alone: every snapshot shares the dynamic graph's
arrays read-only and keeps its own edge set as later batches land.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProbGraph
from repro.dynamic import DynamicGraph, EdgeBatch, EdgeStream
from repro.engine import LSHIndex
from repro.graph import CSRGraph

NUM_VERTICES = 48

REPRESENTATIONS = ["bloom", "khash", "1hash", "kmv", "hll"]

#: Explicit sketch parameters (budget resolution depends on the graph size,
#: which changes under the stream; explicit params pin the sketch family).
EXPLICIT_PARAMS = {
    "bloom": {"num_bits": 128, "num_hashes": 2},
    "khash": {"k": 6},
    "1hash": {"k": 6},
    "kmv": {"k": 6},
    "hll": {"precision": 5},
}

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_VERTICES - 1),
        st.integers(min_value=0, max_value=NUM_VERTICES - 1),
    ),
    min_size=1,
    max_size=160,
)

#: Edges that reach past the initial vertex range, so a delta grows the graph.
growth_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_VERTICES + 7),
        st.integers(min_value=NUM_VERTICES, max_value=NUM_VERTICES + 7),
    ),
    max_size=8,
)

#: Families whose containers hold a signature matrix, so LSH tables exist.
BANDED = {"khash", "1hash", "kmv"}


def _payload(pg: ProbGraph) -> np.ndarray:
    sk = pg.sketches
    for attr in ("words", "signatures", "registers", "values"):
        if hasattr(sk, attr):
            return getattr(sk, attr)
    raise AssertionError("unknown sketch container")


def _assert_maintained_equals_rebuilt(dyn: DynamicGraph, pg: ProbGraph, representation, oriented, seed):
    fresh = ProbGraph(
        dyn.snapshot(),
        representation=representation,
        oriented=oriented,
        seed=seed,
        **EXPLICIT_PARAMS[representation],
    )
    assert np.array_equal(_payload(pg), _payload(fresh))
    assert np.array_equal(pg.sketches.exact_sizes, fresh.sketches.exact_sizes)
    # And the query surface agrees everywhere, not just the raw storage.
    pairs = dyn.snapshot().edge_array()
    if pairs.shape[0]:
        assert np.array_equal(
            pg.pair_intersections(pairs[:, 0], pairs[:, 1]),
            fresh.pair_intersections(pairs[:, 0], pairs[:, 1]),
        )


@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("oriented", [False, True])
@given(
    edges=edge_lists,
    batch_size=st.integers(min_value=1, max_value=60),
    seed=st.sampled_from([0, 7, 1234]),
)
@settings(max_examples=12, deadline=None)
def test_insert_only_stream_bit_identical(representation, oriented, edges, batch_size, seed):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dyn = DynamicGraph(num_vertices=NUM_VERTICES)
    pg = ProbGraph(
        dyn.snapshot(),
        representation=representation,
        oriented=oriented,
        seed=seed,
        **EXPLICIT_PARAMS[representation],
    )
    for batch in EdgeStream.insert_only(arr, batch_size=batch_size):
        pg.apply_delta(dyn.apply(batch))
    assert dyn.snapshot() == CSRGraph.from_edges(arr, num_vertices=NUM_VERTICES)
    _assert_maintained_equals_rebuilt(dyn, pg, representation, oriented, seed)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("oriented", [False, True])
@given(
    edges=edge_lists,
    deletions=edge_lists,
    growth=growth_edges,
    split=st.integers(min_value=1, max_value=4),
    drop_every=st.integers(min_value=2, max_value=5),
    seed=st.sampled_from([0, 31]),
)
@settings(max_examples=8, deadline=None)
def test_mixed_stream_bit_identical(
    representation, oriented, edges, deletions, growth, split, drop_every, seed
):
    ins = np.asarray(edges + growth, dtype=np.int64).reshape(-1, 2)
    dels = np.asarray(deletions, dtype=np.int64).reshape(-1, 2)
    params = dict(
        representation=representation, oriented=oriented, seed=seed,
        **EXPLICIT_PARAMS[representation],
    )
    dyn = DynamicGraph(num_vertices=NUM_VERTICES)
    pg = ProbGraph(dyn.snapshot(), **params)
    index = LSHIndex(pg) if representation in BANDED else None
    ins_chunks = np.array_split(ins, split)
    del_chunks = np.array_split(dels, split)
    inserted = np.empty((0, 2), dtype=np.int64)
    for chunk_ins, chunk_del in zip(ins_chunks, del_chunks):
        # Random pairs rarely hit an edge; also delete some that exist.
        doomed = np.concatenate([chunk_del, inserted[::drop_every]])
        delta = dyn.apply(EdgeBatch(insertions=chunk_ins, deletions=doomed))
        pg.apply_delta(delta)
        inserted = np.concatenate([inserted, chunk_ins])
        if index is not None:
            index.apply_delta(delta)
            fresh = LSHIndex(ProbGraph(dyn.snapshot(), **params))
            assert np.array_equal(index._keys, fresh._keys)
            assert np.array_equal(index._verts, fresh._verts)
    _assert_maintained_equals_rebuilt(dyn, pg, representation, oriented, seed)


#: A vertex range past NUM_VERTICES, so insertions grow the graph.
grow_ids = st.integers(min_value=0, max_value=NUM_VERTICES + 7)


@given(data=st.data(), num_batches=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_shared_snapshots_stay_valid_and_read_only(data, num_batches):
    dyn = DynamicGraph(num_vertices=NUM_VERTICES)
    initial = dyn.snapshot()
    tracked: set[tuple[int, int]] = set()
    removed: set[tuple[int, int]] = set()
    n = NUM_VERTICES
    history: list[tuple[CSRGraph, CSRGraph]] = []
    for _ in range(num_batches):
        insertions = data.draw(st.lists(st.tuples(grow_ids, grow_ids), max_size=40))
        # Random pairs rarely hit an edge: also delete present edges and
        # re-insert deleted ones.
        if removed:
            insertions += data.draw(st.lists(st.sampled_from(sorted(removed)), max_size=10))
        present = sorted(tracked)
        deletions = data.draw(st.lists(st.sampled_from(present), max_size=15)) if present else []
        deletions += data.draw(st.lists(st.tuples(grow_ids, grow_ids), max_size=5))
        dyn.apply_edges(insertions=insertions, deletions=deletions)
        for u, v in deletions:
            edge = (min(u, v), max(u, v))
            if edge in tracked:
                tracked.discard(edge)
                removed.add(edge)
        for u, v in insertions:
            if u != v:
                tracked.add((min(u, v), max(u, v)))
                n = max(n, u + 1, v + 1)
        expected = CSRGraph.from_edges(np.asarray(sorted(tracked), dtype=np.int64).reshape(-1, 2), n)
        snap = dyn.snapshot()
        assert snap == expected
        history.append((snap, expected))
        for old_snap, old_expected in history:
            assert old_snap == old_expected
        if snap is not initial:
            for arr in (snap.indptr, snap.indices):
                with pytest.raises(ValueError):
                    arr[...] = 0
