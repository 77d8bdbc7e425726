"""Append-only benchmark trajectories — shared by every ``BENCH_*.json`` writer.

The ROADMAP mandates committed perf trajectories so re-anchors can see the
curve, which only works if (a) the files are tracked and (b) each run
*appends* a timestamped record instead of overwriting the previous one.
:func:`append_run` implements the shared format::

    {"benchmark": "<name>", "runs": [{..., "timestamp": "..."}, ...]}

Every record carries an ``environment`` block (CPU count, Python and numpy
versions, commit), so two runs of one config that differ can be told apart
from two environments.  The write is atomic (``<path>.tmp``, then
``os.replace``), and a file that cannot be read as a trajectory raises
instead of being replaced, so no run ever silently drops a file's history.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


class TrajectoryFileError(ValueError):
    """An existing trajectory file is unreadable or not a trajectory document."""


def environment() -> dict:
    """CPU count, Python and numpy versions, and the checked-out commit.

    The commit is the full hash (tags ignored), with a ``-dirty`` suffix when
    the working tree has uncommitted changes, so a run of unrecorded code
    does not pass for one of its parent commit.
    """
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def append_run(path: Path, benchmark: str, payload: dict) -> dict:
    """Append one timestamped run record, with its environment, to ``path``.

    Returns the full document written.  An existing file that is unreadable
    or not a ``{"runs": [...]}`` document raises :class:`TrajectoryFileError`
    and is left untouched.
    """
    record = dict(payload)
    record.setdefault(
        "timestamp", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    record.setdefault("environment", environment())
    runs: list = []
    path = Path(path)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TrajectoryFileError(f"{path}: unreadable trajectory ({exc}); not overwriting") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise TrajectoryFileError(f"{path}: not a trajectory document; not overwriting")
        runs = doc["runs"]
    runs.append(record)
    doc = {"benchmark": benchmark, "runs": runs}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)
    return doc
