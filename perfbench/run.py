"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Every
run is also appended, with its environment block, to
``.perfbench/results.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seed used while the benchmark and later changes are tuned.
DEFAULT_SEED = 1
#: Seed kept out of tuning, for confirming a claimed gain.
HELDOUT_SEED = 7919


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mine", "serve", "stream"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; nothing to run",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import ResultsFileError, append_result, environment
    from perfbench.workloads import run, stop_child_processes

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        stop_child_processes()
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        env=environment(ROOT, {"seed": args.seed, "default": DEFAULT_SEED,
                               "heldout": HELDOUT_SEED}),
    )
    try:
        runs = append_result(ROOT / ".perfbench" / "results.json", record)
    except ResultsFileError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    result = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  units {record['units']}  "
          f"samples {record['samples']}  (run {runs} in .perfbench/results.json)")
    for name, value in {**record["end_to_end"], **record["report"],
                        "rel_err": record["rel_err"]}.items():
        print(f"  {name:<28} {value:.6g}")
    print(f"  gates {record['gates']}  attempted {result['attempted']}  failed {result['failed']}")
    for note in record["notes"]:
        print(f"  failure: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
