"""Self-tests of the benchmark: statistics, span arithmetic, results file, tiny runs.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.measure import ResultsFileError, append_result, percentile, samples_beyond, tail
from perfbench.tracing import PER_LAYER, Span, Tracer, instrument, self_times
from perfbench.workloads import END_TO_END, TINY, WORKLOADS, Recorder, Workload, _loop, run

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------- percentiles
def test_percentile_is_nearest_rank() -> None:
    samples = list(range(1, 1001))  # 1..1000
    assert percentile(samples, 99) == 990
    assert percentile(samples[::-1], 50) == 500
    assert samples_beyond(1000, 99) == 10


def test_percentile_needs_ten_samples_beyond() -> None:
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="9 samples beyond"):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


@pytest.mark.parametrize(
    "n, label",
    [(1000, "p99"), (999, "p95"), (200, "p95"), (199, "p90"), (100, "p90"),
     (99, "p75"), (40, "p75"), (39, "p50"), (20, "p50")],
)
def test_tail_picks_the_highest_supported_percentile(n: int, label: str) -> None:
    named = tail([float(i) for i in range(n)])
    assert named is not None and named[0] == label
    assert samples_beyond(n, float(label[1:])) >= 10


def test_tail_of_too_few_samples_is_none() -> None:
    assert tail([1.0] * 19) is None


# ------------------------------------------------------------------ self times
def test_self_time_subtracts_union_of_children() -> None:
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),   # overlaps a: the union [1, 5] counts once
        Span("c", 8.0, 12.0, 0),  # runs past the parent: clipped to [8, 10]
        Span("a", 3.0, 4.0, 2),   # grandchild: only reduces b
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs["b"] == pytest.approx(3.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0 + 1.0)
    assert selfs["c"] == pytest.approx(4.0)


def test_same_name_nesting_counts_each_instant_once() -> None:
    spans = [Span("x", 0.0, 4.0, -1), Span("x", 1.0, 2.0, 0), Span("y", 2.5, 3.0, 1)]
    # y is outside its parent's interval, so it reduces nothing.
    assert self_times(spans) == {"x": pytest.approx(4.0), "y": pytest.approx(0.5)}


def test_tracer_records_nested_spans_and_normalises_per_unit() -> None:
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("engine.batch.self_s"):
        with tracer.span("core.estimator_s"):
            pass
    tracer.counts["engine.batch.pairs"] += 40
    assert tracer.spans() == [
        Span("engine.batch.self_s", 0.0, 10.0, -1),
        Span("core.estimator_s", 1.0, 3.0, 0),
    ]
    values = tracer.layer_metrics(units=2, extra={"trace.units": 2})
    assert values["engine.batch.self_s"] == pytest.approx(4.0)
    assert values["core.estimator_s"] == pytest.approx(1.0)
    assert values["engine.batch.pairs"] == pytest.approx(20.0)
    assert values["trace.units"] == 2
    assert set(values) == {name for name, _, _ in PER_LAYER}


def test_tracer_rejects_out_of_order_close() -> None:
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        tracer.end(outer)


def test_instrument_restores_the_library() -> None:
    import repro
    from repro.engine import lsh
    from repro.sketches import minhash

    before = (repro.triangle_count, lsh.LSHIndex.__dict__["probe"], minhash.splitmix64)
    with instrument(Tracer()):
        now = (repro.triangle_count, lsh.LSHIndex.__dict__["probe"], minhash.splitmix64)
        assert all(a is not b for a, b in zip(now, before))
    assert (repro.triangle_count, lsh.LSHIndex.__dict__["probe"], minhash.splitmix64) == before


# ---------------------------------------------------------------- results file
def test_results_are_appended_atomically(tmp_path: Path) -> None:
    path = tmp_path / "out" / "results.json"
    assert append_result(path, {"run": 1}) == 1
    assert append_result(path, {"run": 2}) == 2
    assert json.loads(path.read_text())["runs"] == [{"run": 1}, {"run": 2}]
    assert [p.name for p in path.parent.iterdir()] == ["results.json"]


@pytest.mark.parametrize("content", ["{not json", '{"runs": 3}', "[]"])
def test_unreadable_results_file_is_never_overwritten(tmp_path: Path, content: str) -> None:
    path = tmp_path / "results.json"
    path.write_text(content)
    with pytest.raises(ResultsFileError):
        append_result(path, {"run": 1})
    assert path.read_text() == content


# ------------------------------------------------------------------- workloads
def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_gate(tmp_path: Path, name: str, trace: bool) -> None:
    children = set(multiprocessing.active_children())
    record = run(name, seed=3, seconds=0.2, trace=trace, workdir=tmp_path / "work", sizes=TINY)
    result = record["result"]
    assert result["correct"], (record["gates"], record["notes"])
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {n for n, _, _ in PER_LAYER} if trace else {n for n, _ in END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(record["gates"].values())
    assert not (tmp_path / "work").exists()
    assert set(multiprocessing.active_children()) <= children


def test_cold_starts_are_spread_over_the_run() -> None:
    class Fake(Workload):
        events: list[str] = []

        def start(self, rec: Recorder) -> None:
            self.events.append("start")

        def restart(self, rec: Recorder) -> None:
            self.events.append("restart")
            time.sleep(0.05)  # time aside, not counted toward the run

        def unit(self, rec: Recorder) -> None:
            self.events.append("unit")
            time.sleep(0.01)

    fake = Fake(replace(TINY, ready_repeats=4), seed=0, workdir=Path("."))
    begin = time.perf_counter()
    _loop(fake, Recorder(), seconds=0.2)
    assert time.perf_counter() - begin >= 0.2 + 3 * 0.05
    events = Fake.events
    assert events[0] == "start" and events.count("restart") == 3
    restarts = [i for i, e in enumerate(events) if e == "restart"]
    assert all(b - a > 2 for a, b in zip(restarts, restarts[1:]))
    assert events[-1] == "unit"
