"""Measure reprosan's wall-clock overhead on the focused concurrency subset.

Runs the concurrency-sensitive tier-1 tests twice — baseline, then with
``REPRO_SAN=1`` (strict mode) — in fresh interpreter processes, and checks
the engineered budget of the runtime sanitizer: **both runs green, zero
findings (strict mode turns any finding into a test failure), and less than
2× wall-clock**.  CI runs this as the ``sanitize`` job so the ratio is
recorded in every build's log::

    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The concurrency-sensitive subset: sharded engine (locks, thread-built rows),
#: session cache (guarded state), LSH tables (stamped writes, including the
#: session-path re-key splices of ``test_dynamic.py``), the store handles an
#: opened engine acquires and releases, and the sanitizer's own fixture tests.
FOCUSED_TESTS = [
    "tests/test_sharded.py",
    "tests/test_sharded_stream.py",
    "tests/test_engine.py",
    "tests/test_lsh.py",
    "tests/test_dynamic.py",
    "tests/test_sanitizer.py",
    "tests/test_storage.py",
    "tests/test_properties_sharded.py",
]

MAX_OVERHEAD = 2.0


def run_subset(sanitize: bool) -> float:
    """One fresh-process pytest run of the subset; returns wall-clock seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if sanitize:
        env["REPRO_SAN"] = "1"
    else:
        env.pop("REPRO_SAN", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *FOCUSED_TESTS, "-q", "--no-header"],
        cwd=REPO,
        env=env,
    )
    seconds = time.perf_counter() - start
    label = "REPRO_SAN=1" if sanitize else "baseline"
    if proc.returncode != 0:
        raise SystemExit(f"{label} run failed with exit code {proc.returncode}")
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_OVERHEAD,
        help=f"fail above this sanitized/baseline ratio (default {MAX_OVERHEAD})",
    )
    args = parser.parse_args()
    print(f"== baseline run ({len(FOCUSED_TESTS)} test files) ==", flush=True)
    baseline = run_subset(sanitize=False)
    print("== sanitized run (REPRO_SAN=1, strict) ==", flush=True)
    sanitized = run_subset(sanitize=True)
    ratio = sanitized / baseline
    print(
        f"\nreprosan overhead: baseline {baseline:.2f}s, "
        f"sanitized {sanitized:.2f}s, ratio {ratio:.2f}x "
        f"(budget {args.max_overhead:.1f}x)"
    )
    if ratio >= args.max_overhead:
        print("FAIL: sanitizer overhead exceeds the budget", file=sys.stderr)
        return 1
    print("OK: strict sanitized run green (zero findings) within the overhead budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
