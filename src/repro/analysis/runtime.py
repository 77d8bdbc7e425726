"""reprosan runtime: shared state and primitives of the dynamic sanitizer.

reprolint (:mod:`repro.analysis.lint`) checks what the source *says*; this
module checks what an execution *does*.  It holds the activation state,
findings ledger, and the three primitive layers the ``reprosan`` detectors
(:mod:`repro.analysis.sanitizer`) are built from:

* **Activation** — :func:`active` / :func:`enabled`: opt-in via the
  ``REPRO_SAN`` environment variable (``1`` = strict, findings raise
  :class:`SanitizerError` at the detection point; ``warn`` = warning-only)
  or a scoped ``with reprosan.enabled():`` region (``strict=False`` collects
  findings for inspection — the fixture-test mode).
* **Lock instrumentation** — :class:`SanRLock` via :func:`make_rlock`:
  re-entrant locks that record a per-thread lock-acquisition graph keyed by
  lock *name* and flag lock-order inversions (``SAN401``), the static
  ``REPRO401`` rule's dynamic counterpart for deadlocks rather than races.
* **Write-epoch stamping** — :func:`guard_mapping` / :func:`stamp_write`:
  registered guarded state (``PGSession._cache``, LSH bucket tables, the
  sharded engine's sketch rows) bumps a per-label write epoch on every mutation and
  verifies the owning lock is held by the mutating thread (``SAN402``) —
  one predicate per *mutation site*, never per bytecode.
* **Resource ledger** — :func:`track_mmap` / :func:`release_mmap`: every
  tracked store-opened memory mapping remembers its acquisition site;
  unreleased handles are reported at region exit or owner close
  (:func:`check_owner_segments`, ``SAN601``), double releases at call time
  (``SAN602``).

Everything is a near-no-op when the sanitizer is inactive: the factories
return plain :mod:`threading` locks and untouched containers, and the
stamp/track entry points return after a single predicate check, so
production paths pay nothing for carrying the hooks.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "SAN_CATEGORIES",
    "SanFinding",
    "SanitizerError",
    "SanRLock",
    "active",
    "allow",
    "check_owner_segments",
    "enabled",
    "findings",
    "guard_mapping",
    "make_rlock",
    "release_mmap",
    "report",
    "reset",
    "stamp_write",
    "track_mmap",
    "write_epoch",
]

#: Detector code → category (the name usable in :func:`allow` selectors).
#: Numbering mirrors the static rule families: 1xx determinism, 4xx lock
#: discipline, 6xx resource lifecycle.
SAN_CATEGORIES = {
    "SAN101": "determinism",
    "SAN401": "lock",
    "SAN402": "lock",
    "SAN601": "lifecycle",
    "SAN602": "lifecycle",
}


@dataclass(frozen=True)
class SanFinding:
    """One runtime-detector violation at an observed call site."""

    code: str
    message: str
    site: str

    @property
    def category(self) -> str:
        return SAN_CATEGORIES[self.code]

    def render(self) -> str:
        return f"{self.site}: {self.code} [{self.category}] {self.message}"


class SanitizerError(RuntimeError):
    """Raised at the detection point when the sanitizer runs in strict mode."""

    def __init__(self, finding: SanFinding) -> None:
        super().__init__(finding.render())
        self.finding = finding


@dataclass
class _SegmentRecord:
    """One tracked store-opened memory mapping, keyed by its ledger token."""

    name: str
    site: str
    owner_id: int | None
    purpose: str
    released: bool = False


class _ThreadState(threading.local):
    """Per-thread held-lock stack and active suppression selectors."""

    def __init__(self) -> None:
        self.held: list[tuple[int, str, str]] = []  # (id(lock), name, site)
        self.allowed: list[frozenset[str]] = []


class _SanitizerState:
    """Process-global sanitizer state (its own mutex — never an instrumented lock)."""

    def __init__(self) -> None:
        self.mutex = threading.Lock()
        self.depth = 0
        self.region_strict: list[bool] = []
        self.findings: list[SanFinding] = []
        #: (earlier lock name, later lock name) → first site that took the edge.
        self.lock_edges: dict[tuple[str, str], str] = {}
        self.segments: dict[str, _SegmentRecord] = {}
        self.write_epochs: dict[str, int] = {}
        self.tls = _ThreadState()


_STATE = _SanitizerState()

#: Environment switch: ``1``/``true``/``on``/``strict`` → strict, ``warn`` →
#: warning-only.  Read live so test harnesses can monkeypatch it.
SAN_ENV = "REPRO_SAN"


def _env_mode() -> str | None:
    value = os.environ.get(SAN_ENV, "").strip().lower()
    if value in ("1", "true", "on", "strict"):
        return "strict"
    if value in ("warn", "warning"):
        return "warn"
    return None


def active() -> bool:
    """Whether any detector is live (env-enabled or inside an :func:`enabled` region)."""
    return _STATE.depth > 0 or _env_mode() is not None


def _mode() -> str:
    """``"strict"`` | ``"warn"`` | ``"collect"`` — the innermost region wins."""
    if _STATE.region_strict:
        return "strict" if _STATE.region_strict[-1] else "collect"
    return _env_mode() or "collect"


def call_site(depth: int = 1) -> str:
    """``file:line`` of the frame ``depth`` levels above the caller."""
    frame = sys._getframe(depth + 1)
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _suppressed(code: str, category: str) -> bool:
    for selectors in _STATE.tls.allowed:
        if code in selectors or category.upper() in selectors:
            return True
    return False


def report(code: str, message: str, site: str | None = None) -> SanFinding | None:
    """Record one finding (no-op when inactive; raises in strict mode).

    Returns the recorded :class:`SanFinding`, or ``None`` when the sanitizer
    is inactive or an :func:`allow` region suppresses the finding's code or
    category.
    """
    if not active():
        return None
    category = SAN_CATEGORIES[code]
    if _suppressed(code, category):
        return None
    if site is None:
        site = call_site(1)
    finding = SanFinding(code, message, site)
    with _STATE.mutex:
        _STATE.findings.append(finding)
    mode = _mode()
    if mode == "strict":
        raise SanitizerError(finding)
    if mode == "warn":
        warnings.warn(finding.render(), RuntimeWarning, stacklevel=3)
    return finding


def findings() -> list[SanFinding]:
    """Snapshot of every finding recorded since the last :func:`reset`."""
    with _STATE.mutex:
        return list(_STATE.findings)


def reset() -> None:
    """Drop all findings, lock-order edges, ledger records, and write epochs."""
    with _STATE.mutex:
        _STATE.findings.clear()
        _STATE.lock_edges.clear()
        _STATE.segments.clear()
        _STATE.write_epochs.clear()


@contextmanager
def allow(selector: str, justification: str) -> Iterator[None]:
    """Suppress findings of the given codes/categories within the block.

    The runtime mirror of the inline ``# reprolint: allow[<sel>] -- why``
    comment: ``selector`` is a comma-separated list of detector codes
    (``SAN401``) or categories (``lock``), and the justification is mandatory
    — an empty one raises :class:`ValueError` (the ``REPRO001`` contract).
    """
    if not justification or not justification.strip():
        raise ValueError(
            "reprosan.allow() requires a justification -- state why the "
            "suppressed pattern is safe (mirrors `# reprolint: allow[...] -- why`)"
        )
    selectors = frozenset(
        s.strip().upper() for s in selector.split(",") if s.strip()
    )
    if not selectors:
        raise ValueError("reprosan.allow() requires at least one code or category")
    _STATE.tls.allowed.append(selectors)
    try:
        yield
    finally:
        _STATE.tls.allowed.pop()


class SanitizerRegion:
    """Context manager activating the sanitizer; exposes the region's findings."""

    def __init__(self, strict: bool) -> None:
        self._strict = strict
        self._start = 0

    def __enter__(self) -> "SanitizerRegion":
        with _STATE.mutex:
            _STATE.depth += 1
            _STATE.region_strict.append(self._strict)
            self._start = len(_STATE.findings)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            # Region end is the lifecycle boundary: every tracked handle must
            # be released by now (raises here in strict mode).
            if exc_type is None:
                check_owner_segments(None)
        finally:
            with _STATE.mutex:
                _STATE.region_strict.pop()
                _STATE.depth -= 1

    @property
    def findings(self) -> list[SanFinding]:
        """Findings recorded since this region was entered."""
        with _STATE.mutex:
            return list(_STATE.findings[self._start:])


def enabled(strict: bool = True) -> SanitizerRegion:
    """Activate the sanitizer for a ``with`` block.

    ``strict=True`` (the default, and the ``REPRO_SAN=1`` behaviour) raises
    :class:`SanitizerError` at the detection point; ``strict=False`` collects
    findings on the returned region for inspection — the mode the seeded
    bad-fixture tests use.  Regions nest; the innermost strictness wins.
    """
    return SanitizerRegion(strict)


# ---------------------------------------------------------------------------
# lock instrumentation (SAN401) + ownership oracle for SAN402
# ---------------------------------------------------------------------------
class SanRLock:
    """A named re-entrant lock feeding the global lock-order graph.

    Semantically identical to :func:`threading.RLock` (create through
    :func:`make_rlock`, which only returns the instrumented flavour while the
    sanitizer is active).  On every *outermost* acquisition the lock records
    a ``held → acquiring`` edge per lock currently held by the thread; if the
    reverse edge was ever taken — by any thread — the two code paths can
    deadlock against each other, and ``SAN401`` fires *before* the lock is
    taken (so strict mode never leaves the lock dangling).  Edges are keyed
    by lock name, so one discipline is enforced across all instances of a
    class; same-name nesting (two instances of one class) is skipped rather
    than treated as an inversion.
    """

    __slots__ = ("name", "_lock", "_owner", "_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.RLock()
        self._owner: int | None = None
        self._count = 0

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def _check_order(self, site: str) -> None:
        held = _STATE.tls.held
        if not held or not active():
            return
        for _lock_id, held_name, held_site in held:
            if held_name == self.name:
                continue
            edge = (held_name, self.name)
            reverse = (self.name, held_name)
            with _STATE.mutex:
                _STATE.lock_edges.setdefault(edge, f"{held_site} -> {site}")
                reverse_site = _STATE.lock_edges.get(reverse)
            if reverse_site is not None:
                report(
                    "SAN401",
                    f"lock-order inversion: {self.name!r} acquired while "
                    f"holding {held_name!r}, but the opposite order was taken "
                    f"at [{reverse_site}] -- the two paths can deadlock",
                    site=site,
                )

    def acquire(
        self, blocking: bool = True, timeout: float = -1, *, _site: str | None = None
    ) -> bool:
        site = _site or call_site(1)
        if not self.held_by_current_thread():  # re-entry records no edges
            self._check_order(site)
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            me = threading.get_ident()
            if self._owner == me:
                self._count += 1
            else:
                self._owner = me
                self._count = 1
            _STATE.tls.held.append((id(self), self.name, site))
        return ok

    def release(self) -> None:
        if self._owner == threading.get_ident():
            self._count -= 1
            if self._count == 0:
                self._owner = None
        held = _STATE.tls.held
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == id(self):
                del held[i]
                break
        self._lock.release()

    def __enter__(self) -> bool:
        # Attribute the acquisition to the `with` statement, not this frame.
        return self.acquire(_site=call_site(1))

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SanRLock({self.name!r}, held={self._owner is not None})"


def make_rlock(name: str) -> Any:
    """An RLock for guarding ``name``-labelled state; instrumented when active.

    Objects constructed while the sanitizer is inactive carry plain
    :func:`threading.RLock` objects and are not instrumented retroactively —
    enable the sanitizer (env or region) *before* building what you want
    observed.
    """
    if active():
        return SanRLock(name)
    return threading.RLock()


def _lock_held(lock: Any) -> bool:
    """Best-effort: is ``lock`` held by the current thread? (True if unknowable.)"""
    if isinstance(lock, SanRLock):
        return lock.held_by_current_thread()
    is_owned = getattr(lock, "_is_owned", None)
    if callable(is_owned):  # plain threading.RLock (CPython)
        return bool(is_owned())
    return True


# ---------------------------------------------------------------------------
# guarded state: write-epoch stamping (SAN402)
# ---------------------------------------------------------------------------
def stamp_write(lock: Any, label: str) -> None:
    """Stamp one mutation of ``label``-guarded state; the thread must hold ``lock``.

    The write-epoch alternative to tracing every bytecode: mutation sites of
    registered guarded state (bucket tables, engine sketch rows) call this
    once per logical write.  Each call bumps the label's epoch and verifies
    lock ownership — a stamp without the lock held is a ``SAN402`` finding
    attributed to the mutating call site.  No-op when the sanitizer is off.
    """
    if not active():
        return
    with _STATE.mutex:
        _STATE.write_epochs[label] = _STATE.write_epochs.get(label, 0) + 1
    if not _lock_held(lock):
        report(
            "SAN402",
            f"{label} written without holding its owning lock",
            site=call_site(1),
        )


def write_epoch(label: str) -> int:
    """How many stamped writes ``label`` has seen since the last :func:`reset`."""
    with _STATE.mutex:
        return _STATE.write_epochs.get(label, 0)


class GuardedOrderedDict(OrderedDict):  # type: ignore[type-arg]
    """An :class:`~collections.OrderedDict` whose mutators are write-epoch stamped.

    Installed over ``PGSession._cache``-style registered state by
    :func:`guard_mapping`; every mutating method verifies the owning lock is
    held by the calling thread before delegating.  Reads are untouched.
    """

    _san_lock: Any
    _san_label: str

    def _san_stamp(self) -> None:
        lock = getattr(self, "_san_lock", None)
        if lock is None:  # still inside OrderedDict.__init__
            return
        if not active():
            return
        label = self._san_label
        with _STATE.mutex:
            _STATE.write_epochs[label] = _STATE.write_epochs.get(label, 0) + 1
        if not _lock_held(lock):
            report(
                "SAN402",
                f"{label} mutated without holding its owning lock",
                site=call_site(2),
            )

    def __setitem__(self, key: Any, value: Any) -> None:
        self._san_stamp()
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._san_stamp()
        super().__delitem__(key)

    def clear(self) -> None:
        self._san_stamp()
        super().clear()

    def pop(self, *args: Any, **kwargs: Any) -> Any:
        self._san_stamp()
        return super().pop(*args, **kwargs)

    def popitem(self, last: bool = True) -> Any:
        self._san_stamp()
        return super().popitem(last)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._san_stamp()
        super().update(*args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._san_stamp()
        return super().setdefault(key, default)

    def move_to_end(self, key: Any, last: bool = True) -> None:
        self._san_stamp()
        super().move_to_end(key, last)


def guard_mapping(mapping: Any, lock: Any, label: str) -> Any:
    """Wrap an OrderedDict-shaped cache so mutations are checked against ``lock``.

    Returns ``mapping`` untouched while the sanitizer is inactive; otherwise
    an order-preserving :class:`GuardedOrderedDict` copy registered as
    ``label``.  Re-call after rebinding the attribute (e.g. the re-key pass of
    ``PGSession.apply_delta``) so the replacement stays guarded.
    """
    if not active():
        return mapping
    guarded = GuardedOrderedDict(mapping)
    guarded._san_lock = lock
    guarded._san_label = label
    return guarded


# ---------------------------------------------------------------------------
# mmap lifecycle ledger (SAN601 / SAN602)
# ---------------------------------------------------------------------------
def _finalize_segment(name: str) -> None:
    """GC hook: a tracked handle was collected — warn if it was never released."""
    with _STATE.mutex:
        record = _STATE.segments.pop(name, None)
    if record is None or record.released or not active():
        return
    with _STATE.mutex:
        _STATE.findings.append(
            SanFinding(
                "SAN601",
                f"mmap-backed store handle {name!r} ({record.purpose}) was "
                "garbage-collected without being released; the OS object leaks "
                f"until process exit (acquired at {record.site})",
                record.site,
            )
        )
    # Never raise inside a GC callback, whatever the mode.
    warnings.warn(
        f"reprosan: leaked mmap-backed store handle {name!r} (acquired at {record.site})",
        RuntimeWarning,
    )


def check_owner_segments(owner: Any) -> list[SanFinding]:
    """Report every still-unreleased handle scoped to ``owner`` (SAN601).

    ``owner=None`` checks *all* tracked handles — the region-exit sweep.
    Reported handles are dropped from the ledger so nested/outer regions do
    not re-report them.  Returns the findings (empty when clean or inactive).
    """
    if not active():
        return []
    owner_id = id(owner) if owner is not None else None
    with _STATE.mutex:
        leaked = [
            record
            for record in _STATE.segments.values()
            if not record.released
            and (owner_id is None or record.owner_id == owner_id)
        ]
        for record in leaked:
            del _STATE.segments[record.name]
    out: list[SanFinding] = []
    for record in leaked:
        finding = report(
            "SAN601",
            f"mmap-backed store handle {record.name!r} ({record.purpose}) was "
            f"never released; acquired at {record.site}",
            site=record.site,
        )
        if finding is not None:
            out.append(finding)
    return out


def track_mmap(
    handle: Any,
    path: str,
    owner: Any = None,
    purpose: str = "",
    site: str | None = None,
) -> str:
    """Register a store-opened mmap handle; returns its ledger token.

    The token names the record in the ledger, so a leaked handle is
    attributed to the ``open()`` call-site that acquired it by two audits:
    :func:`check_owner_segments` on the owner's ``close()`` and the
    region-exit sweep.  A GC'd but never-closed handle warns via
    ``weakref.finalize``.  No-op (empty token) when the sanitizer is
    inactive.
    """
    if not active():
        return ""
    if site is None:
        site = call_site(1)
    token = f"{path}#{id(handle):x}"
    record = _SegmentRecord(
        name=token,
        site=site,
        owner_id=id(owner) if owner is not None else None,
        purpose=purpose or "sketch-store mmap",
    )
    with _STATE.mutex:
        _STATE.segments[token] = record
    weakref.finalize(handle, _finalize_segment, token)
    return token


def release_mmap(token: str) -> None:
    """Mark a tracked mmap handle released (the munmap itself happens when the
    last array view is garbage-collected).

    Releasing the same token twice is the double-close bug class: reports
    ``SAN602`` with the original acquisition site.  An empty token (handle
    opened while the sanitizer was inactive) is ignored.
    """
    if not token:
        return
    with _STATE.mutex:
        record = _STATE.segments.get(token)
    if record is None:
        return
    if record.released:
        report(
            "SAN602",
            f"mmap-backed store handle {token!r} ({record.purpose}) released twice "
            f"(acquired at {record.site})",
            site=call_site(1),
        )
        return
    with _STATE.mutex:
        record.released = True
