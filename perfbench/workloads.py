"""The three workloads: ``mine``, ``serve`` and ``stream``.

Each workload builds its inputs and exact references in :meth:`setup` (from
the seed only), then runs a closed loop of *units* with one caller and no
think time: a ``mine`` round, a ``serve`` iteration, a ``stream`` batch.
Every unit records the latency of its three operation kinds ``op_a``,
``op_b`` and ``op_c`` and checks the answers it can; :meth:`finish` checks
the remaining gates and the accuracy after the loop, untimed.

The library is driven only through its public entry points, looked up on the
``repro`` package at call time so that a traced run's wrappers see them.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro
from repro.engine import LSHIndex, batched_pair_jaccard, topk_per_source
from repro.graph import kronecker_graph

from . import reference
from .measure import median, tail
from .tracing import NULL_TRACER, PER_LAYER, Tracer, instrument

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` its self-test."""

    mine_scale: int = 15
    clique_scale: int = 8
    serve_scale: int = 17
    stream_scale: int = 16
    edge_factor: int = 8
    pair_batch: int = 4096
    lsh_sources: int = 8
    scan_every: int = 16
    stream_batch: int = 2000
    stream_pairs: int = 1024
    deletions: int = 20
    delete_every: int = 5
    probe_pairs: int = 16384
    recall_sources: int = 16
    pool: int = 128
    setup_repeats: int = 3
    ready_repeats: int = 7


FULL = Sizes()
TINY = Sizes(
    mine_scale=9, clique_scale=7, serve_scale=10, stream_scale=10, pair_batch=256,
    stream_batch=200, stream_pairs=128, probe_pairs=128, recall_sources=8, pool=4,
    setup_repeats=2, ready_repeats=2,
)

#: The five sketch families (TC and JP jobs) and the four of the 4-clique job.
#: HLL is left out of 4-clique counting: ``four_clique_count`` raises on an
#: HLL ProbGraph (HyperLogLog.intersection_cardinality takes no ``size_self``).
FAMILIES = ("bloom", "khash", "1hash", "kmv", "hll")
CLIQUE_FAMILIES = ("bloom", "khash", "1hash", "kmv")
SERVE_K = 16
#: The graphs are the workloads' fixed datasets; a seed-dependent graph made
#: every timing move with the graph's shape across seeds.  The run's seed
#: drives the stream order, query batches and probe sets, and the sketch hash
#: seed of ``mine``.  ``serve`` and ``stream`` sketch with a fixed hash seed
#: because their LSH bucket sizes, and so their query cost, follow it.
GRAPH_SEED = 1
STORE_SEED = 1
TOP_K = 10
RECALL_FLOOR = 0.9


@dataclass
class Recorder:
    """Samples, attempted/failed operation counts and failure notes of one run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    units: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Run one operation; returns ``(result, seconds)``, result ``None`` on failure."""
        self.attempted += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None, clock() - start
        return result, clock() - start

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are forked, as the library's own pool is by default on Linux.

    The benchmark starts no thread before set-up forks.  With ``spawn`` or
    ``forkserver`` the pool's semaphores would start a resource tracker
    process, and ``forkserver`` a fork server, that outlive the run.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def stop_child_processes() -> None:
    """Wait for every process this one started, helpers included, to end.

    Pool workers are joined; the resource tracker and fork server that
    :mod:`multiprocessing` may start would otherwise outlive the process.
    Meant for the end of a benchmark process: stopping the resource tracker
    unlinks any shared-memory segment still registered with it.
    """
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def _relative_l1(approx: np.ndarray, exact: np.ndarray) -> float:
    """``Σ|approx − exact| / Σ exact``: the error of a batch of estimates, relative to it."""
    return float(np.abs(approx - exact).sum() / exact.sum())


def _same_topk(a: Any, b: Any) -> bool:
    return np.array_equal(a.indices, b.indices) and np.array_equal(a.scores, b.scores)


def _recall(served: Any, full_scan: Any) -> float:
    """Share of the full scan's nonzero-scored top-k the served answer retrieved."""
    hits = found = 0
    for row in range(full_scan.indices.shape[0]):
        scored = (full_scan.indices[row] >= 0) & (full_scan.scores[row] > 0)
        hits += int(scored.sum())
        found += int(np.isin(full_scan.indices[row][scored], served.indices[row]).sum())
    return found / hits if hits else 1.0


class Workload:
    """Shared shape: ``setup`` → ``start`` → ``unit``… → ``finish`` → ``close``."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = int(seed)
        self.workdir = workdir

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def setup(self) -> None:
        raise NotImplementedError

    def start(self, rec: Recorder) -> None:
        """Cold start before the loop (one ``ready`` sample), if the workload has one."""

    def restart(self, rec: Recorder) -> None:
        """Another cold start, taken between units; the loop then carries on."""
        self.start(rec)

    def unit(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> dict[str, Any]:
        """Untimed gates and accuracy: ``{"gates": {...}, "rel_err": x, ...}``."""
        raise NotImplementedError

    def report(self, rec: Recorder, outcome: dict[str, Any]) -> dict[str, float]:
        """The workload's own metrics under their workload-prefixed names."""
        raise NotImplementedError

    def close(self) -> None:
        """Release engines and files."""


# ---------------------------------------------------------------------------
class Mine(Workload):
    """One-shot mining jobs: TC, Jarvis–Patrick and 4-clique counting per family."""

    name = "mine"

    def setup(self) -> None:
        s = self.sizes
        self.graph = kronecker_graph(scale=s.mine_scale, edge_factor=s.edge_factor, seed=GRAPH_SEED)
        self.small = kronecker_graph(scale=s.clique_scale, edge_factor=s.edge_factor, seed=GRAPH_SEED)
        reference.check_small(self.small)
        edges, counts = reference.edge_common_neighbors(self.graph)
        self.exact = {
            "tc": float(reference.triangles_from_counts(counts)),
            "jp": float(reference.jp_clusters(self.graph, edges, counts)),
            "clique4": float(repro.four_clique_count(self.small).count),
        }
        self.first: list[float] | None = None
        self.changed = 0

    def _job(self, rec: Recorder, graph: Any, family: str, oriented: bool,
             algorithm: Callable[[Any], float]) -> tuple[float, float, float]:
        """Build a ProbGraph and run one algorithm; returns ``(estimate, build_s, total_s)``."""
        built: list[float] = []

        def job() -> float:
            start = clock()
            pg = repro.ProbGraph(graph, representation=family, oriented=oriented, seed=self.seed)
            built.append(clock() - start)
            return float(algorithm(pg))

        value, total = rec.call(job)
        return (float("nan") if value is None else value), sum(built), total

    def unit(self, rec: Recorder) -> None:
        estimates: list[float] = []
        times = {"op_a": 0.0, "op_b": 0.0, "op_c": 0.0}
        build = 0.0
        jobs = (
            [("op_a", self.graph, f, True, lambda pg: repro.triangle_count(pg).count) for f in FAMILIES]
            + [("op_b", self.graph, f, False, lambda pg: repro.jarvis_patrick_clustering(
                pg, measure="jaccard").num_clusters) for f in FAMILIES]
            + [("op_c", self.small, f, True, lambda pg: repro.four_clique_count(pg).count)
               for f in CLIQUE_FAMILIES]
        )
        for kind, graph, family, oriented, algorithm in jobs:
            value, built, total = self._job(rec, graph, family, oriented, algorithm)
            estimates.append(value)
            build += built
            times[kind] += total
        for kind, seconds in times.items():
            rec.add(kind, seconds * 1e3)
        rec.add("ready", build)
        rec.add("unit", sum(times.values()))
        if self.first is None:
            self.first = estimates
        else:
            for cell, (a, b) in enumerate(zip(self.first, estimates)):
                if not a == b:  # also catches a NaN from a failed job
                    self.changed += 1
                    rec.fail(f"round estimate {cell} changed: {a!r} -> {b!r}")

    def cells(self) -> list[tuple[str, float]]:
        kinds = ["tc"] * len(FAMILIES) + ["jp"] * len(FAMILIES) + ["clique4"] * len(CLIQUE_FAMILIES)
        return list(zip(kinds, self.first or []))

    def finish(self, rec: Recorder) -> dict[str, Any]:
        cells = self.cells()
        errors = [abs(v / self.exact[k] - 1.0) for k, v in cells if self.exact[k] > 0]
        return {
            "gates": {
                "every_job_answered": len(cells) == 14 and all(np.isfinite([v for _, v in cells])),
                "rounds_identical": self.changed == 0,
            },
            # The median cell: at the default budget a single family's TC
            # error swings from -0.1 to +2.1 between sketch seeds.
            "rel_err": float(np.median(errors)) if errors else float("nan"),
        }

    def report(self, rec: Recorder, outcome: dict[str, Any]) -> dict[str, float]:
        s = rec.samples
        return {
            "mine.tc_s": median(s["op_a"]) / 1e3,
            "mine.jp_s": median(s["op_b"]) / 1e3,
            "mine.clique4_s": median(s["op_c"]) / 1e3,
        }


# ---------------------------------------------------------------------------
class Serve(Workload):
    """Read-only retrieval from a 2-shard k-hash store opened cold."""

    name = "serve"

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng(1)
        graph = kronecker_graph(scale=s.serve_scale, edge_factor=s.edge_factor, seed=GRAPH_SEED)
        self.store = self.workdir / "serve-store"
        shutil.rmtree(self.store, ignore_errors=True)
        # The benchmark's own pool, so that its two workers are joined here;
        # pickled row blocks, as shared-memory transport starts a resource
        # tracker process that outlives the run.
        with _worker_pool(2) as pool, repro.ShardedEngine(
            graph, 2, representation="khash", k=SERVE_K, seed=STORE_SEED, pool=pool,
            transport="pickle",
        ) as built:
            built.save(self.store)
        pg = repro.ProbGraph(graph, representation="khash", k=SERVE_K, seed=STORE_SEED)
        index = LSHIndex(pg)
        n = graph.num_vertices
        edges = graph.edge_array()
        weights = graph.degrees / graph.degrees.sum()
        half = s.pair_batch // 2
        self.pairs = []
        for _ in range(s.pool):
            picked = edges[rng.integers(0, edges.shape[0], half)]
            self.pairs.append((
                np.concatenate([rng.integers(0, n, half), picked[:, 0]]),
                np.concatenate([rng.integers(0, n, half), picked[:, 1]]),
            ))
        self.lsh_sources = [rng.choice(n, s.lsh_sources, p=weights) for _ in range(s.pool)]
        self.scan_sources = [rng.choice(n, 1, p=weights) for _ in range(s.pool)]
        # In-process answers for every pair batch and the first two LSH and
        # scan batches: the served answers must equal them bit for bit.
        self.expected_pairs = [batched_pair_jaccard(pg, u, v) for u, v in self.pairs]
        self.expected_lsh = [index.topk_similar_batch(src, TOP_K) for src in self.lsh_sources[:2]]
        self.expected_scan = [topk_per_source(pg, src, TOP_K) for src in self.scan_sources[:2]]
        self.recall_sources = rng.choice(n, s.recall_sources, replace=False, p=weights)
        self.full_scan = topk_per_source(pg, self.recall_sources, TOP_K)
        probe = edges[rng.integers(0, edges.shape[0], s.probe_pairs)]
        self.probe = (probe[:, 0], probe[:, 1], reference.pair_jaccard(graph, *probe.T))
        self.engine: Any = None
        self.iteration = 0

    def start(self, rec: Recorder) -> None:
        def cold() -> tuple[Any, Any]:
            engine = repro.ShardedEngine.open(self.store)
            return engine, engine.lsh_index()

        self.close()
        opened, seconds = rec.call(cold)
        if opened is not None:
            self.engine, self.index = opened
        rec.add("ready", seconds)

    def unit(self, rec: Recorder) -> None:
        i, pool = self.iteration, self.sizes.pool
        self.iteration += 1
        b = i % pool
        answer, pair_s = rec.call(self.engine.pair_jaccard, *self.pairs[b])
        if answer is not None and not np.array_equal(answer, self.expected_pairs[b]):
            rec.fail(f"pair batch {b} differs from the in-process answer")
        top, lsh_s = rec.call(self.index.topk_similar_batch, self.lsh_sources[b], TOP_K)
        if top is not None and b < len(self.expected_lsh) and not _same_topk(top, self.expected_lsh[b]):
            rec.fail(f"LSH batch {b} differs from the in-process answer")
        rec.add("op_a", pair_s * 1e3)
        rec.add("op_b", lsh_s * 1e3)
        total = pair_s + lsh_s
        if i % self.sizes.scan_every == 0:
            c = (i // self.sizes.scan_every) % pool
            top, scan_s = rec.call(self.engine.top_k_similar_batch, self.scan_sources[c], TOP_K)
            if top is not None and c < len(self.expected_scan) and not _same_topk(top, self.expected_scan[c]):
                rec.fail(f"scan {c} differs from the in-process answer")
            rec.add("op_c", scan_s * 1e3)
            total += scan_s
        rec.add("unit", total)

    def finish(self, rec: Recorder) -> dict[str, Any]:
        u, v, exact = self.probe
        served = self.engine.pair_jaccard(u, v)
        recall = _recall(self.index.topk_similar_batch(self.recall_sources, TOP_K), self.full_scan)
        probe_ok = (
            np.array_equal(self.engine.pair_jaccard(*self.pairs[0]), self.expected_pairs[0])
            and all(_same_topk(self.index.topk_similar_batch(src, TOP_K), exp)
                    for src, exp in zip(self.lsh_sources, self.expected_lsh))
            and all(_same_topk(self.engine.top_k_similar_batch(src, TOP_K), exp)
                    for src, exp in zip(self.scan_sources, self.expected_scan))
        )
        return {
            "gates": {"probe_bit_identical": bool(probe_ok), "lsh_recall_floor": recall >= RECALL_FLOOR},
            "rel_err": _relative_l1(served, exact),
            "lsh_recall": recall,
        }

    def report(self, rec: Recorder, outcome: dict[str, Any]) -> dict[str, float]:
        s = rec.samples
        out = {
            "serve.ready_s": median(s["ready"]),
            "serve.pair_p50_ms": median(s["op_a"]),
            "serve.lsh_p50_ms": median(s["op_b"]),
            "serve.scan_p50_ms": median(s["op_c"]),
            "serve.lsh_recall": outcome["lsh_recall"],
        }
        for kind, label in (("op_a", "pair"), ("op_b", "lsh")):
            named = tail(s[kind])
            if named is not None and named[0] != "p50":
                out[f"serve.{label}_{named[0]}_ms"] = named[1]
        return out

    def close(self) -> None:
        if getattr(self, "engine", None) is not None:
            self.engine.close()
            self.engine = None


# ---------------------------------------------------------------------------
class Stream(Workload):
    """Edge batches patched into a session-cached k-hash entry, queried in between."""

    name = "stream"

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng(2)
        graph = kronecker_graph(scale=s.stream_scale, edge_factor=s.edge_factor, seed=GRAPH_SEED)
        self.n = graph.num_vertices
        edges = graph.edge_array()
        edges = edges[rng.permutation(edges.shape[0])]
        half = edges.shape[0] // 2
        self.preload, rest = edges[:half], edges[half:]
        doomed = self.preload[rng.permutation(half)]
        self.batches = []
        deleted = 0
        for b, lo in enumerate(range(0, rest.shape[0], s.stream_batch)):
            ins = rest[lo:lo + s.stream_batch]
            dels = None
            if b % s.delete_every == s.delete_every - 1:
                dels = doomed[deleted:deleted + s.deletions]
                deleted += s.deletions
            k = s.stream_pairs // 2
            u = np.concatenate([ins[:k, 0], rng.integers(0, self.n, k)])
            v = np.concatenate([ins[:k, 1], rng.integers(0, self.n, k)])
            self.batches.append((ins, dels, u, v, ins[:s.lsh_sources, 0].copy()))
        self.session: Any = None
        self.passes_checked: list[bool] = []

    def _params(self) -> dict[str, Any]:
        return {"representation": "khash", "k": SERVE_K, "seed": STORE_SEED}

    def _preload(self, rec: Recorder) -> tuple[Any, Any, Any, Any]:
        begin = clock()
        dyn = repro.DynamicGraph(num_vertices=self.n)
        dyn.apply(repro.EdgeBatch(insertions=self.preload))
        session = repro.PGSession()
        pg = session.probgraph(dyn.snapshot(), **self._params())
        index = session.lsh_index(pg)
        rec.add("ready", clock() - begin)
        return dyn, session, pg, index

    def start(self, rec: Recorder) -> None:
        self.dyn, self.session, self.pg, self.index = self._preload(rec)
        self.cursor = 0

    def restart(self, rec: Recorder) -> None:
        """A cold preload beside the stream, which carries on where it was."""
        self._preload(rec)

    def _bit_identical(self) -> bool:
        """Patched sketch rows and LSH tables equal a fresh build on the snapshot."""
        fresh = repro.ProbGraph(self.dyn.snapshot(), **self._params())
        ours, theirs = self.pg.sketches.storage_arrays(), fresh.sketches.storage_arrays()
        same = ours.keys() == theirs.keys() and all(np.array_equal(ours[k], theirs[k]) for k in ours)
        rebuilt = LSHIndex(fresh)
        # LSHIndex has no public view of its bucket tables; compare them directly.
        return bool(same and np.array_equal(self.index._keys, rebuilt._keys)
                    and np.array_equal(self.index._verts, rebuilt._verts))

    def unit(self, rec: Recorder) -> None:
        if self.cursor == len(self.batches):
            self.passes_checked.append(self._bit_identical())
            self.start(rec)
        ins, dels, u, v, sources = self.batches[self.cursor]
        self.cursor += 1

        def ingest() -> None:
            self.session.apply_delta(self.dyn.apply(repro.EdgeBatch(insertions=ins, deletions=dels)))

        def pairs() -> Any:
            self.pg = self.session.probgraph(self.dyn.snapshot(), **self._params())
            return self.session.pair_jaccard(self.pg, u, v)

        def lsh() -> Any:
            self.index = self.session.lsh_index(self.pg)
            return self.index.topk_similar_batch(sources, TOP_K)

        seconds = [rec.call(op)[1] for op in (ingest, pairs, lsh)]
        for kind, value in zip(("op_a", "op_b", "op_c"), seconds):
            rec.add(kind, value * 1e3)
        rec.add("unit", sum(seconds))
        rec.add("inserted", float(ins.shape[0]))

    def finish(self, rec: Recorder) -> dict[str, Any]:
        self.passes_checked.append(self._bit_identical())
        snapshot = self.dyn.snapshot()
        rng = self.rng(3)
        edges = snapshot.edge_array()
        probe = edges[rng.integers(0, edges.shape[0], self.sizes.probe_pairs)]
        exact = reference.pair_jaccard(snapshot, probe[:, 0], probe[:, 1])
        served = self.session.pair_jaccard(self.pg, probe[:, 0], probe[:, 1])
        sources = self.batches[0][4]
        recall = _recall(self.index.topk_similar_batch(sources, TOP_K),
                         topk_per_source(self.pg, sources, TOP_K))
        return {
            "gates": {"patched_equals_rebuild": all(self.passes_checked)},
            "rel_err": _relative_l1(served, exact),
            "lsh_recall": recall,
            "passes_checked": len(self.passes_checked),
        }


    def report(self, rec: Recorder, outcome: dict[str, Any]) -> dict[str, float]:
        s = rec.samples
        out = {
            "stream.ingest_eps": sum(s["inserted"]) / (sum(s["op_a"]) / 1e3),
            "stream.delta_p50_ms": median(s["op_a"]),
            "stream.query_p50_ms": median([b + c for b, c in zip(s["op_b"], s["op_c"])]),
        }
        named = tail(s["op_a"])
        if named is not None and named[0] != "p50":
            out[f"stream.delta_{named[0]}_ms"] = named[1]
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Mine, Serve, Stream)}


# ---------------------------------------------------------------------------
#: End-to-end metrics as ``(name, unit)``; every workload reports every one.
END_TO_END = (
    ("setup_s", "s"),
    ("ready_s", "s"),
    ("op_a_ms", "ms"),
    ("op_b_ms", "ms"),
    ("op_c_ms", "ms"),
    ("work_per_s", "1/s"),
)


def _loop(workload: Workload, rec: Recorder, seconds: float, tracer: Any = NULL_TRACER) -> None:
    """Cold start, then units for ``seconds`` (at least one unit).

    The other ``ready_repeats - 1`` cold starts are spread evenly over the
    run, so that their median, like the units', covers the whole run rather
    than its first seconds.  Time spent in them does not count toward
    ``seconds``.
    """
    with tracer.span("bench.start"):
        workload.start(rec)
    repeats = workload.sizes.ready_repeats
    begin = clock()
    restarts = 0
    aside = 0.0
    while True:
        with tracer.span("bench.unit"):
            workload.unit(rec)
        rec.units += 1
        elapsed = clock() - begin - aside
        if elapsed >= seconds:
            return
        if restarts + 1 < repeats and elapsed >= (restarts + 1) * seconds / repeats:
            restarted = clock()
            with tracer.span("bench.start"):
                workload.restart(rec)
            aside += clock() - restarted
            restarts += 1


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep the measured thread on one CPU (the highest allowed), then restore.

    On a 2-CPU host the two CPUs ran a pure-Python loop ~10% apart, and a
    run's timings shifted together with the CPU it happened to land on.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = FULL) -> dict[str, Any]:
    """Set up ``sizes.setup_repeats`` times, measure, check; returns the run's record.

    Untraced runs measure for ``seconds``.  Traced runs measure half of it
    untraced and half traced, so that the tracing overhead is measured on
    the same inputs.
    """
    workload = WORKLOADS[name](sizes, seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(sizes.setup_repeats):
            begin = clock()
            workload.setup()
            setup_times.append(clock() - begin)
        rec = Recorder()
        traced = Recorder()
        tracer = Tracer()
        with _one_cpu():
            if trace:
                _loop(workload, rec, seconds / 2)
                with instrument(tracer):
                    _loop(workload, traced, seconds / 2, tracer)
            else:
                _loop(workload, rec, seconds)
        outcome = workload.finish(rec)
        report = workload.report(rec, outcome)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = rec.samples
    e2e = {
        "setup_s": median(setup_times),
        "ready_s": median(samples["ready"]),
        "op_a_ms": median(samples["op_a"]),
        "op_b_ms": median(samples["op_b"]),
        "op_c_ms": median(samples["op_c"]),
        "work_per_s": rec.units / sum(samples["unit"]),
    }
    if trace:
        overhead = 100.0 * (median(traced.samples["unit"]) / median(samples["unit"]) - 1.0)
        values = tracer.layer_metrics(traced.units, {
            "core.rel_err": outcome["rel_err"],
            "engine.lsh.recall": outcome.get("lsh_recall", 0.0),
            "trace.overhead_pct": overhead,
            "trace.units": traced.units,
        })
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    attempted = rec.attempted + traced.attempted
    failed = rec.failed + traced.failed
    correct = (
        failed == 0
        and all(outcome["gates"].values())
        and all(np.isfinite(m["value"]) for m in metrics.values())
    )
    return {
        "result": {"correct": bool(correct), "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "end_to_end": e2e,
        "report": report,
        "gates": outcome["gates"],
        "rel_err": outcome["rel_err"],
        "samples": {kind: len(values) for kind, values in samples.items()},
        "units": rec.units,
        "notes": rec.notes + traced.notes,
    }
