"""Sample statistics, the environment block, and the append-only results file."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

#: Percentiles tried, highest first, when reporting a latency tail.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A named percentile needs at least this many samples above it.
MIN_BEYOND = 10


class ResultsFileError(RuntimeError):
    """The results file exists but cannot be read as a results document."""


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(p / 100.0 * n)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile; refuses one with < ``MIN_BEYOND`` samples above it."""
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    n = len(samples)
    beyond = samples_beyond(n, p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} samples beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return sorted(samples)[math.ceil(p / 100.0 * n) - 1]


def tail(samples: Sequence[float]) -> tuple[str, float] | None:
    """``("p99", value)`` for the highest percentile the sample count supports, or ``None``."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(samples), p) >= MIN_BEYOND:
            return f"p{p:g}", percentile(samples, p)
    return None


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))


def _git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` without running git, or ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seeds: dict[str, int]) -> dict[str, Any]:
    """The environment block stored with every result."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "seeds": dict(seeds),
        "argv": list(sys.argv),
    }


def append_result(path: Path, record: dict[str, Any]) -> int:
    """Append ``record`` to the results document at ``path``; returns the run count.

    The document is ``{"runs": [...]}``.  The new document is written to a
    temporary file in the same directory and moved over the old one with
    ``os.replace``, so a crash never leaves a half-written file.  An existing
    file that does not parse as a results document raises
    :class:`ResultsFileError` and is left untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    runs: list[Any] = []
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ResultsFileError(f"{path}: unreadable results file ({exc}); not overwriting") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise ResultsFileError(f"{path}: not a results document; not overwriting")
        runs = doc["runs"]
    runs.append(record)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({"runs": runs}, f, indent=1, sort_keys=True)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(runs)
