"""Spans around the library's public calls, and the per-layer metrics they give.

A traced run patches the public functions and methods of each layer (see
:func:`instrument`) so that every call opens a span named after its layer
metric.  Spans are kept in memory; at the end a layer's *self time* is its
spans' durations minus the part of each span that its child spans cover
(:func:`self_times`).  Counts are recorded by the same wrappers, either from
the call's arguments or as the difference of an existing stats object across
the call.  Nothing here changes what the library computes.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple, Sequence

#: Family label of each sketch family / container class name.
FAMILY_LABELS = {
    "BloomFamily": "bloom",
    "KHashFamily": "khash",
    "BottomKFamily": "1hash",
    "KMVFamily": "kmv",
    "HLLFamily": "hll",
    "BloomNeighborhoodSketches": "bloom",
    "KHashNeighborhoodSketches": "khash",
    "BottomKNeighborhoodSketches": "1hash",
    "KMVNeighborhoodSketches": "kmv",
    "HLLNeighborhoodSketches": "hll",
}
FAMILIES = ("bloom", "khash", "1hash", "kmv", "hll")

#: Per-layer metrics as ``(name, unit, better)``.  Times are self times and,
#: like counts, are given per unit of work of the workload (a ``mine`` round,
#: a ``serve`` iteration, a ``stream`` batch); ratios are over the traced run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("graph.oriented_s", "s", "lower"),
    ("graph.oriented_calls", "count", "lower"),
    ("graph.fingerprint_s", "s", "lower"),
    *((f"sketches.build_s.{f}", "s", "lower") for f in FAMILIES),
    *((f"sketches.pair_s.{f}", "s", "lower") for f in FAMILIES),
    *((f"sketches.pairs.{f}", "count", "lower") for f in FAMILIES),
    ("sketches.hash_calls", "count", "lower"),
    ("sketches.hash_elems", "count", "lower"),
    ("sketches.patch_s", "s", "lower"),
    ("sketches.patched_rows", "count", "lower"),
    ("core.estimator_s", "s", "lower"),
    ("core.estimator_calls", "count", "lower"),
    ("core.apply_delta_self_s", "s", "lower"),
    ("core.rel_err", "ratio", "lower"),
    ("engine.batch.self_s", "s", "lower"),
    ("engine.batch.chunks", "count", "lower"),
    ("engine.batch.pairs", "count", "lower"),
    ("engine.topk.self_s", "s", "lower"),
    ("engine.topk.candidates", "count", "lower"),
    ("engine.lsh.build_s", "s", "lower"),
    ("engine.lsh.band_keys_s", "s", "lower"),
    ("engine.lsh.probe_s", "s", "lower"),
    ("engine.lsh.select_s", "s", "lower"),
    ("engine.lsh.query_self_s", "s", "lower"),
    ("engine.lsh.candidates_per_source", "count", "lower"),
    ("engine.lsh.useful_ratio", "ratio", "higher"),
    ("engine.lsh.recall", "ratio", "higher"),
    ("engine.lsh.rekey_s", "s", "lower"),
    ("engine.lsh.rekeyed_rows", "count", "lower"),
    ("engine.session.apply_delta_self_s", "s", "lower"),
    ("engine.session.hits", "count", "higher"),
    ("engine.session.misses", "count", "lower"),
    ("engine.sharded.route_s", "s", "lower"),
    ("engine.sharded.cut_fraction", "ratio", "lower"),
    ("engine.sharded.shipped_rows", "count", "lower"),
    ("engine.sharded.lsh_self_s", "s", "lower"),
    ("storage.load_s", "s", "lower"),
    ("storage.bytes", "count", "lower"),
    ("dynamic.apply_s", "s", "lower"),
    ("algorithms.self_s.tc", "s", "lower"),
    ("algorithms.self_s.jp", "s", "lower"),
    ("algorithms.self_s.clique4", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.units", "count", "higher"),
)

#: Ratio metrics: ``name -> (numerator count, denominator count)``.
_RATIOS = {
    "engine.lsh.candidates_per_source": ("lsh.candidates", "lsh.sources"),
    "engine.lsh.useful_ratio": ("lsh.results", "lsh.candidates"),
    "engine.sharded.cut_fraction": ("sharded.cut_pairs", "sharded.routed_pairs"),
}


class Span(NamedTuple):
    """One finished span; ``parent`` indexes the enclosing span (-1 for a root)."""

    name: str
    start: float
    end: float
    parent: int


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the length of the union of its
    direct children's intervals, each clipped to the span.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span.name] += max(span.end - span.start - covered, 0.0)
    return dict(totals)


class Tracer:
    """In-memory span and counter recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        sid = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(float("nan"))
        self._stack.append(sid)
        self._starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self._ends[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self._names[sid]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def inside(self, *names: str) -> bool:
        """Whether any open span carries one of ``names``."""
        return any(self._names[sid] in names for sid in self._stack)

    def spans(self) -> list[Span]:
        return [
            Span(n, s, e, p)
            for n, s, e, p in zip(self._names, self._starts, self._ends, self._parents)
        ]

    def layer_metrics(self, units: int, extra: dict[str, float]) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``extra`` supplies the non-traced ones."""
        selfs = self_times(self.spans())
        per = 1.0 / max(units, 1)
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            if name in extra:
                out[name] = float(extra[name])
            elif name in _RATIOS:
                num, den = _RATIOS[name]
                out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            elif unit == "s":
                out[name] = selfs.get(name, 0.0) * per
            else:
                out[name] = self.counts[name] * per
        return out


class _NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = _NullTracer()


# ---------------------------------------------------------------------------
# patching the library
# ---------------------------------------------------------------------------
class _Patcher:
    """Replaces attributes and restores them, in reverse order, on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original: Any, replacement: Any) -> None:
        """Point every ``repro`` module-level name bound to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _timed(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    before: Callable[..., Any] | None = None,
    after: Callable[..., None] | None = None,
) -> Callable[..., Any]:
    """``fn`` inside a span named ``name``.

    ``before(*args, **kwargs)`` runs ahead of the span and its return value is
    handed to ``after(state, result, *args, **kwargs)``, which records counts.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(*args, **kwargs) if before is not None else None
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(state, result, *args, **kwargs)
        return result

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer boundary of ``repro`` to record into ``tracer``."""
    import numpy as np

    from repro import algorithms, storage
    from repro.core import estimators
    from repro.core.probgraph import ProbGraph
    from repro.dynamic import DynamicGraph
    from repro.engine import PGSession, batch, lsh, sharded, topk
    from repro.graph import CSRGraph
    from repro.sketches import hashing
    from repro.sketches.base import NeighborhoodSketches, SketchFamily

    counts = tracer.counts

    def add(name: str, amount: Callable[..., float]) -> Callable[..., None]:
        """An ``after`` hook adding ``amount(result, *args, **kwargs)`` to a counter."""
        def after(state: Any, result: Any, *args: Any, **kwargs: Any) -> None:
            counts[name] += amount(result, *args, **kwargs)
        return after

    def diff(fields: dict[str, str], source: Callable[..., Any]) -> tuple[Callable, Callable]:
        """``before``/``after`` hooks adding the change of ``source(...).field`` per counter."""
        def before(*args: Any, **kwargs: Any) -> tuple[float, ...]:
            obj = source(*args, **kwargs)
            return tuple(getattr(obj, f) for f in fields.values())

        def after(state: tuple[float, ...], result: Any, *args: Any, **kwargs: Any) -> None:
            obj = source(*args, **kwargs)
            for (counter, field), old in zip(fields.items(), state):
                counts[counter] += getattr(obj, field) - old
        return before, after

    once = lambda *a, **k: 1  # noqa: E731
    patch = _Patcher()
    try:
        # graph
        patch.set(CSRGraph, "oriented", _timed(
            tracer, "graph.oriented_s", CSRGraph.oriented, after=add("graph.oriented_calls", once)))
        patch.set(CSRGraph, "fingerprint", _timed(tracer, "graph.fingerprint_s", CSRGraph.fingerprint))

        # sketches: construction, pair kernels, patches, hashing
        for cls in _subclasses(SketchFamily):
            if "sketch_neighborhoods" in cls.__dict__ and cls.__name__ in FAMILY_LABELS:
                patch.set(cls, "sketch_neighborhoods", _timed(
                    tracer, f"sketches.build_s.{FAMILY_LABELS[cls.__name__]}",
                    cls.__dict__["sketch_neighborhoods"]))
        rows = lambda r, self, vertices, *a, **k: np.size(vertices)  # noqa: E731
        for cls in _subclasses(NeighborhoodSketches):
            label = FAMILY_LABELS.get(cls.__name__)
            if label is None:
                continue
            if "pair_intersections" in cls.__dict__:
                patch.set(cls, "pair_intersections", _timed(
                    tracer, f"sketches.pair_s.{label}", cls.__dict__["pair_intersections"],
                    after=add(f"sketches.pairs.{label}", lambda r, self, u, *a, **k: np.size(u))))
            for method in ("apply_delta", "resketch_rows"):
                if method in cls.__dict__:
                    patch.set(cls, method, _timed(
                        tracer, "sketches.patch_s", cls.__dict__[method],
                        after=add("sketches.patched_rows", rows)))

        real_splitmix64 = hashing.splitmix64

        def counted_splitmix64(x: Any, seed: int = 0) -> Any:
            counts["sketches.hash_calls"] += 1
            counts["sketches.hash_elems"] += np.size(x)
            return real_splitmix64(x, seed)

        patch.rebind(real_splitmix64, counted_splitmix64)

        # core: estimator formulas and the ProbGraph delta path
        for fn in list(vars(estimators).values()):
            if isinstance(fn, types.FunctionType) and fn.__module__ == estimators.__name__:
                patch.rebind(fn, _timed(tracer, "core.estimator_s", fn,
                                        after=add("core.estimator_calls", once)))
        patch.set(ProbGraph, "apply_delta",
                  _timed(tracer, "core.apply_delta_self_s", ProbGraph.apply_delta))

        # engine: batched pair kernels; chunk and pair counts from EngineStats,
        # taken at the outermost call only (batched_pair_jaccard nests another).
        engine_before, engine_after = diff(
            {"engine.batch.chunks": "chunks", "engine.batch.pairs": "pairs"},
            lambda *a, **k: batch.engine_stats())

        def batch_before(*args: Any, **kwargs: Any) -> Any:
            return None if tracer.inside("engine.batch.self_s") else engine_before()

        def batch_after(state: Any, result: Any, *args: Any, **kwargs: Any) -> None:
            if state is not None:
                engine_after(state, result)

        for fn in (batch.batched_pair_intersections, batch.batched_pair_jaccard,
                   batch.sum_pair_intersections, batch.scatter_add_pair_intersections):
            patch.rebind(fn, _timed(tracer, "engine.batch.self_s", fn,
                                    before=batch_before, after=batch_after))

        # engine: full-scan top-k (in process and sharded)
        def scanned(candidates_at: int) -> Callable[..., float]:
            def amount(result: Any, owner: Any, *args: Any, **kwargs: Any) -> float:
                sources = _arg(args, kwargs, 0, "sources")
                cands = _arg(args, kwargs, candidates_at, "candidates")
                return np.size(sources) * (owner.num_vertices if cands is None else np.size(cands))
            return amount

        patch.rebind(topk.topk_per_source, _timed(
            tracer, "engine.topk.self_s", topk.topk_per_source,
            after=add("engine.topk.candidates", scanned(2))))
        patch.set(sharded.ShardedEngine, "top_k_similar_batch", _timed(
            tracer, "engine.topk.self_s", sharded.ShardedEngine.top_k_similar_batch,
            after=add("engine.topk.candidates", scanned(3))))

        # engine: LSH build, keys, probe, selection, queries, re-keying
        for cls in (lsh.LSHIndex, sharded.ShardedLSHIndex):
            patch.set(cls, "__init__", _timed(tracer, "engine.lsh.build_s", cls.__init__))
        real_band_keys = lsh.LSHIndex.band_keys
        traced_band_keys = _timed(tracer, "engine.lsh.band_keys_s", real_band_keys)

        def band_keys(self: Any, rows: Any) -> Any:
            # Keys computed while building or re-keying belong to that span.
            if tracer.inside("engine.lsh.build_s", "engine.lsh.rekey_s"):
                return real_band_keys(self, rows)
            return traced_band_keys(self, rows)

        patch.set(lsh.LSHIndex, "band_keys", band_keys)
        patch.set(lsh.LSHIndex, "probe", _timed(tracer, "engine.lsh.probe_s", lsh.LSHIndex.probe))
        patch.rebind(lsh.select_topk_rows,
                     _timed(tracer, "engine.lsh.select_s", lsh.select_topk_rows))
        probe_before, probe_after = diff(
            {"lsh.sources": "probed_sources", "lsh.candidates": "candidates_scored"},
            lambda index, *a, **k: index.stats)
        returned = add("lsh.results", lambda r, *a, **k: int(np.count_nonzero(r.indices >= 0)))

        def lsh_after(state: Any, result: Any, *args: Any, **kwargs: Any) -> None:
            probe_after(state, result, *args, **kwargs)
            returned(state, result, *args, **kwargs)

        for cls, name in ((lsh.LSHIndex, "engine.lsh.query_self_s"),
                          (sharded.ShardedLSHIndex, "engine.sharded.lsh_self_s")):
            patch.set(cls, "topk_similar_batch", _timed(
                tracer, name, cls.topk_similar_batch, before=probe_before, after=lsh_after))
        patch.set(lsh.LSHIndex, "apply_delta",
                  _timed(tracer, "engine.lsh.rekey_s", lsh.LSHIndex.apply_delta))
        patch.set(lsh.LSHIndex, "rekey_rows", _timed(
            tracer, "engine.lsh.rekey_s", lsh.LSHIndex.rekey_rows,
            after=add("engine.lsh.rekeyed_rows", lambda r, *a, **k: r)))

        # engine: session cache and delta fan-out
        hit_before, hit_after = diff(
            {"engine.session.hits": "cache_hits", "engine.session.misses": "cache_misses"},
            lambda session, *a, **k: session.stats)
        real_probgraph = PGSession.probgraph

        @functools.wraps(real_probgraph)
        def probgraph(self: Any, *args: Any, **kwargs: Any) -> Any:
            state = hit_before(self)
            result = real_probgraph(self, *args, **kwargs)
            hit_after(state, result, self)
            return result

        patch.set(PGSession, "probgraph", probgraph)
        patch.set(PGSession, "apply_delta", _timed(
            tracer, "engine.session.apply_delta_self_s", PGSession.apply_delta))

        # engine: sharded routing
        route_before, route_after = diff(
            {"sharded.routed_pairs": "routed_pairs", "sharded.cut_pairs": "cut_pairs",
             "engine.sharded.shipped_rows": "shipments"},
            lambda engine, *a, **k: engine.comm)
        patch.set(sharded.ShardedEngine, "pair_intersections", _timed(
            tracer, "engine.sharded.route_s", sharded.ShardedEngine.pair_intersections,
            before=route_before, after=route_after))

        # storage
        loaded = add("storage.bytes",
                     lambda r, *a, **k: sum(int(x.nbytes) for x in r[1].arrays.values()))
        for fn in (storage.load_graph, storage.load_sketches):
            patch.rebind(fn, _timed(tracer, "storage.load_s", fn, after=loaded))

        # dynamic graph
        patch.set(DynamicGraph, "apply", _timed(tracer, "dynamic.apply_s", DynamicGraph.apply))

        # algorithms
        for fn, name in ((algorithms.triangle_count, "algorithms.self_s.tc"),
                         (algorithms.jarvis_patrick_clustering, "algorithms.self_s.jp"),
                         (algorithms.four_clique_count, "algorithms.self_s.clique4")):
            patch.rebind(fn, _timed(tracer, name, fn))
        yield tracer
    finally:
        patch.undo()


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
