"""Append-only benchmark trajectories — shared by every ``BENCH_*.json`` writer.

The ROADMAP mandates committed perf trajectories so re-anchors can see the
curve, which only works if (a) the files are tracked and (b) each run
*appends* a timestamped record instead of overwriting the previous one.
:func:`append_run` implements the shared format::

    {"benchmark": "<name>", "runs": [{..., "timestamp": "..."}, ...]}

The write is atomic (``<path>.tmp``, then ``os.replace``), and a file that
cannot be read as a trajectory raises instead of being replaced, so no run
ever silently drops a file's history.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path


class TrajectoryFileError(ValueError):
    """An existing trajectory file is unreadable or not a trajectory document."""


def append_run(path: Path, benchmark: str, payload: dict) -> dict:
    """Append one timestamped run record to the trajectory file at ``path``.

    Returns the full document written.  An existing file that is unreadable
    or not a ``{"runs": [...]}`` document raises :class:`TrajectoryFileError`
    and is left untouched.
    """
    record = dict(payload)
    record.setdefault(
        "timestamp", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
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
