"""reprosan: the opt-in runtime race/lifecycle/determinism sanitizer.

The dynamic counterpart of :mod:`repro.analysis.lint`.  Enable it for a whole
process with ``REPRO_SAN=1`` (strict: findings raise
:class:`~repro.analysis.runtime.SanitizerError` at the detection point;
``REPRO_SAN=warn`` downgrades to warnings), or for a scoped region::

    from repro.analysis import sanitizer as reprosan

    with reprosan.enabled(strict=False) as region:
        ...exercise the engine...
    assert region.findings == []

Three detectors, all near-zero-cost when the sanitizer is off:

* **Lock/race** (``SAN401``/``SAN402``) — instrumented RLocks in
  ``PGSession``, ``ShardedEngine``, and ``LSHIndex`` feed a per-thread
  lock-acquisition graph that flags lock-order inversions, and registered
  guarded state (session caches, LSH bucket tables, the engine's sketch
  rows) is write-epoch stamped so a mutation without the owning lock is
  attributed to its call site.
* **Mmap lifecycle** (``SAN601``/``SAN602``) — every store-opened memory
  mapping is registered with its opening site; handles still live at their
  owner's ``close()`` (``ShardedEngine``, ``PGSession``) or at region exit,
  and double releases, become findings instead of silent leaks.
* **Determinism** (``SAN101``) — :func:`trace_determinism` hooks the kernel
  seed-derivation root (``splitmix64``) and ``np.random.default_rng`` and
  records a digest of ``(seed, call-site)`` events; :func:`compare_traces`
  diffs two runs and pinpoints the first divergent call site — the runtime
  analogue of the static ``REPRO101``–``REPRO103`` rules.

Suppression mirrors reprolint's inline comments: wrap the intentional
pattern in ``with reprosan.allow("SAN402", "why this is safe"):`` — the
justification is mandatory.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .runtime import (
    SAN_CATEGORIES,
    SanFinding,
    SanitizerError,
    SanitizerRegion,
    SanRLock,
    active,
    allow,
    call_site,
    check_owner_segments,
    enabled,
    findings,
    guard_mapping,
    make_rlock,
    report,
    reset,
    stamp_write,
    write_epoch,
)

__all__ = [
    "SAN_CATEGORIES",
    "DeterminismTrace",
    "SanFinding",
    "SanitizerError",
    "SanitizerRegion",
    "SanRLock",
    "active",
    "allow",
    "check_owner_segments",
    "compare_traces",
    "enabled",
    "findings",
    "guard_mapping",
    "make_rlock",
    "report",
    "reset",
    "stamp_write",
    "trace_determinism",
    "write_epoch",
]

#: Modules whose global ``splitmix64`` binding is rerouted while tracing.
#: ``hashing`` is the derivation root (hash_u64 / families route through its
#: module global), the others import the symbol directly.
_SEED_MODULES = (
    "repro.sketches.hashing",
    "repro.sketches.minhash",
    "repro.sketches.hll",
    "repro.sketches",
    "repro.engine.lsh",
)


@dataclass
class DeterminismTrace:
    """Ordered ledger of seed-consumption events from one sanitized run."""

    events: list[tuple[str, str]] = field(default_factory=list)

    def record(self, seed_repr: str, site: str) -> None:
        self.events.append((seed_repr, site))

    @property
    def digest(self) -> str:
        """SHA-256 over the ordered ``(seed, call-site)`` stream."""
        h = hashlib.sha256()
        for seed_repr, site in self.events:
            h.update(seed_repr.encode())
            h.update(b"\x00")
            h.update(site.encode())
            h.update(b"\x01")
        return h.hexdigest()

    def first_divergence(
        self, other: "DeterminismTrace"
    ) -> tuple[int, tuple[str, str] | None, tuple[str, str] | None] | None:
        """Index and the two events at the first mismatch; ``None`` if identical."""
        for i, (a, b) in enumerate(zip(self.events, other.events)):
            if a != b:
                return (i, a, b)
        if len(self.events) != len(other.events):
            i = min(len(self.events), len(other.events))
            a_evt = self.events[i] if i < len(self.events) else None
            b_evt = other.events[i] if i < len(other.events) else None
            return (i, a_evt, b_evt)
        return None


def _seed_repr(seed: Any) -> str:
    try:
        return repr(int(seed))
    except (TypeError, ValueError):
        return repr(seed)


@contextmanager
def trace_determinism() -> Iterator[DeterminismTrace]:
    """Record every kernel seed-derivation and RNG-construction event.

    Patches the ``splitmix64`` module globals across the sketch/LSH kernels
    and ``np.random.default_rng`` for the duration of the block; each call
    appends ``(seed, caller file:line)`` to the yielded
    :class:`DeterminismTrace`.  Two traces of the same logical build must be
    identical — diff them with :func:`compare_traces`.

    Only calls from the thread that opened the trace are recorded: calls from
    other threads arrive in no fixed order, so a build whose row ranges hash
    in their own threads records no kernel events (a ``ShardedEngine`` build
    then records only its partition RNG).  A :class:`~repro.core.ProbGraph`
    build covers the kernels only when it hashes one range, in the calling
    thread: any graph below ``2**20`` adjacency slots, or any graph when the
    caller is pinned to one CPU.  Trace a larger build with the caller
    pinned to one CPU (``os.sched_setaffinity``, or ``taskset -c 0``).
    """
    trace = DeterminismTrace()
    tracing_thread = threading.get_ident()

    hashing = importlib.import_module("repro.sketches.hashing")
    real_splitmix64: Callable[..., Any] = hashing.splitmix64

    def traced_splitmix64(x: Any, seed: int = 0) -> Any:
        if threading.get_ident() == tracing_thread:
            trace.record(_seed_repr(seed), call_site(1))
        return real_splitmix64(x, seed)

    real_default_rng = np.random.default_rng

    def traced_default_rng(seed: Any = None) -> Any:
        if threading.get_ident() == tracing_thread:
            trace.record(f"default_rng({_seed_repr(seed)})", call_site(1))
        return real_default_rng(seed)

    patched: list[tuple[Any, str, Any]] = []
    for name in _SEED_MODULES:
        module = importlib.import_module(name)
        if module.__dict__.get("splitmix64") is real_splitmix64:
            patched.append((module, "splitmix64", real_splitmix64))
            module.__dict__["splitmix64"] = traced_splitmix64
    patched.append((np.random, "default_rng", real_default_rng))
    np.random.default_rng = traced_default_rng  # type: ignore[assignment]
    try:
        yield trace
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def compare_traces(
    first: DeterminismTrace, second: DeterminismTrace
) -> SanFinding | None:
    """Diff two determinism traces; a mismatch is a ``SAN101`` finding.

    Returns ``None`` when the traces are identical.  When they differ, the
    finding's site is the first divergent call site; it is also routed
    through :func:`report` (raising/warning per the active mode) when the
    sanitizer is live, and returned directly otherwise so callers can assert
    on it.
    """
    if first.digest == second.digest:
        return None
    divergence = first.first_divergence(second)
    assert divergence is not None  # digests differ -> events differ
    index, a_evt, b_evt = divergence
    site = (a_evt or b_evt or ("", "<unknown>"))[1]

    def _describe(evt: tuple[str, str] | None) -> str:
        if evt is None:
            return "<no event -- run ended early>"
        return f"seed {evt[0]} at {evt[1]}"

    message = (
        f"determinism divergence at event #{index}: "
        f"first run {_describe(a_evt)}, second run {_describe(b_evt)} -- "
        "the two builds consumed different seed streams"
    )
    reported = report("SAN101", message, site=site)
    if reported is not None:
        return reported
    return SanFinding("SAN101", message, site)
