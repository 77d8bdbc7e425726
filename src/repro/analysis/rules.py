"""The reprolint rule set: repo-specific determinism, dtype, lock and lifecycle checks.

Every rule here encodes an invariant the paper's guarantees rest on — and
that at least one past regression has violated.  The sketch-container
contract is not linted: the ``SketchContainer`` Protocol, each family's
``StorageSchema`` and the conformance test in ``tests/test_reprolint.py``
state it.

* **determinism** (``REPRO101``–``REPRO103``): sketch construction must be a
  pure function of ``(graph, params, seed)``.  Process-salted ``hash()``
  seeding silently broke cross-process reproducibility once (the
  ``graph/datasets.py`` stand-in generator bug); global-RNG calls and
  wall-clock values are the same failure mode waiting to happen.
* **dtype** (``REPRO301``, ``REPRO305``): ``np.zeros``/``np.empty``/``np.full``
  in kernel modules must pin an explicit dtype — bit-identity across rebuild /
  incremental / sharded paths depends on every backing array having the same
  width everywhere — and an array pinned that way must not be *rebound* from
  arithmetic on itself, which silently promotes the width back out (the bug
  class behind the PR 8 float64 pins).
* **lock** (``REPRO401``): mutations of lock-guarded cache state must happen
  under ``with self._lock`` (the un-locked ``PGSession._cache`` mutation bug).
* **lifecycle** (``REPRO601``): OS-backed resources (SharedMemory segments,
  pools, file handles, ``np.memmap`` mappings) acquired outside a ``with``
  must have a reachable release — a ``close``/``__exit__`` method for
  instance attributes, a ``finally`` block (or an escape to the caller) for
  locals — the static half of the ``reprosan`` store-handle lifecycle
  tracker.

Rules operate on the AST plus a light import-alias resolution; they are
deliberately syntactic (no type inference) so the whole pass stays fast and
dependency-free.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Finding",
    "ModuleContext",
    "RULE_CATEGORIES",
    "KERNEL_PACKAGES",
    "all_rule_checks",
]

#: Sub-packages of ``repro`` whose modules are "kernel" code: they build or
#: mutate sketch state, so the determinism and dtype rules apply there.
KERNEL_PACKAGES = ("sketches", "core", "engine", "dynamic", "storage")

#: Finding code → rule category (the name usable in ``reprolint: allow[...]``).
RULE_CATEGORIES = {
    "REPRO001": "suppression",
    "REPRO101": "determinism",
    "REPRO102": "determinism",
    "REPRO103": "determinism",
    "REPRO301": "dtype",
    "REPRO305": "dtype",
    "REPRO401": "lock",
    "REPRO601": "lifecycle",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def category(self) -> str:
        return RULE_CATEGORIES[self.code]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} [{self.category}] {self.message}"


@dataclass
class ModuleContext:
    """Everything a rule needs to know about the module being linted."""

    path: str
    tree: ast.Module
    kernel: bool
    #: local name → canonical module path ("np" → "numpy").
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: name bound by ``from X import Y [as Z]`` → canonical dotted path.
    from_imports: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        self.module_aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = f"{node.module}.{alias.name}"

    def dotted(self, node: ast.expr) -> str | None:
        """Canonical dotted path of an expression, resolving import aliases.

        ``np.random.default_rng`` → ``"numpy.random.default_rng"`` when ``np``
        aliases numpy; returns ``None`` for expressions rooted in local names.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.module_aliases.get(cur.id) or self.from_imports.get(cur.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)])


# ---------------------------------------------------------------------------
# Rule 1: determinism (kernel modules only)
# ---------------------------------------------------------------------------

#: numpy.random constructors that are fine *when explicitly seeded*.
_SEEDED_RNG_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937", "RandomState"}
)

#: Wall-clock / monotonic time sources; any value derived from them differs
#: between two runs of the same build, so none may flow into kernel state.
_TIME_DEPENDENT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def check_determinism(ctx: ModuleContext) -> list[Finding]:
    """Ban ``hash()`` seeds, global-RNG calls, and time-dependent values in kernels."""
    if not ctx.kernel:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            findings.append(
                Finding(
                    ctx.path, node.lineno, node.col_offset, "REPRO101",
                    "builtin hash() is salted per process (PYTHONHASHSEED); derive seeds "
                    "with repro.sketches.hashing.splitmix64 or an explicit integer",
                )
            )
            continue
        dotted = ctx.dotted(func)
        if dotted is None:
            continue
        if dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[1]
            if tail not in _SEEDED_RNG_FACTORIES or not (node.args or node.keywords):
                findings.append(
                    Finding(
                        ctx.path, node.lineno, node.col_offset, "REPRO102",
                        f"{dotted}() draws from process-global or unseeded RNG state; "
                        "use np.random.default_rng(seed) with an explicit seed",
                    )
                )
            continue
        if dotted == "random.Random" and (node.args or node.keywords):
            continue  # explicitly seeded instance RNG
        if dotted.startswith("random."):
            findings.append(
                Finding(
                    ctx.path, node.lineno, node.col_offset, "REPRO102",
                    f"{dotted}() uses the process-global random module state; "
                    "use np.random.default_rng(seed) with an explicit seed",
                )
            )
            continue
        if dotted in _TIME_DEPENDENT:
            findings.append(
                Finding(
                    ctx.path, node.lineno, node.col_offset, "REPRO103",
                    f"{dotted}() is time-dependent; kernel values must be pure functions "
                    "of (graph, params, seed)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule 2: dtype discipline (kernel modules only)
# ---------------------------------------------------------------------------

#: numpy allocators and the positional index where dtype may appear.
_ALLOCATORS = {"numpy.zeros": 1, "numpy.empty": 1, "numpy.full": 2}


def check_dtype(ctx: ModuleContext) -> list[Finding]:
    """``np.zeros``/``np.empty``/``np.full`` in kernels must pin an explicit dtype."""
    if not ctx.kernel:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted not in _ALLOCATORS:
            continue
        dtype_pos = _ALLOCATORS[dotted]
        has_dtype = len(node.args) > dtype_pos or any(
            kw.arg == "dtype" for kw in node.keywords
        )
        if not has_dtype:
            findings.append(
                Finding(
                    ctx.path, node.lineno, node.col_offset, "REPRO301",
                    f"{dotted}() without an explicit dtype=; sketch bit-identity across "
                    "rebuild/incremental/sharded paths requires pinned array widths",
                )
            )
    return findings


def _allocator_with_dtype(ctx: ModuleContext, value: ast.expr) -> bool:
    """Whether ``value`` is an allocator call that pins an explicit dtype."""
    if not isinstance(value, ast.Call):
        return False
    dotted = ctx.dotted(value.func)
    if dotted in _ALLOCATORS:
        dtype_pos = _ALLOCATORS[dotted]
        return len(value.args) > dtype_pos or any(
            kw.arg == "dtype" for kw in value.keywords
        )
    # ``x.astype(np.float64)`` re-pins explicitly.
    return isinstance(value.func, ast.Attribute) and value.func.attr == "astype"


def _iter_scope_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one function/module scope in source order.

    Descends into compound statements (``if``/``for``/``with``/``try``) but
    not into nested function or class definitions — those are their own
    dataflow scopes.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for block in ("body", "orelse", "finalbody", "handlers"):
            children = getattr(stmt, block, None)
            if not children:
                continue
            for child in children:
                if isinstance(child, ast.ExceptHandler):
                    yield from _iter_scope_statements(child.body)
                elif isinstance(child, ast.stmt):
                    yield from _iter_scope_statements([child])


def check_dtype_widening(ctx: ModuleContext) -> list[Finding]:
    """An explicitly-pinned array must not be rebound from arithmetic on itself.

    ``counts = np.zeros(n, dtype=np.float64)`` followed by
    ``counts = counts / total`` silently promotes (or demotes) the backing
    dtype depending on the other operand — the width the first line pinned is
    gone.  In-place updates (``counts /= total``) and explicit re-pins
    (``counts = (counts / total).astype(np.float64)``) keep the dtype and are
    allowed.  REPRO305, the dataflow sibling of REPRO301.
    """
    if not ctx.kernel:
        return []
    findings: list[Finding] = []

    def scan(body: list[ast.stmt]) -> None:
        pinned: set[str] = set()
        for stmt in _iter_scope_statements(body):
            if isinstance(stmt, ast.AugAssign):
                continue  # in-place ops cast to the existing dtype
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            if value is None or len(targets) != 1 or not isinstance(targets[0], ast.Name):
                continue
            name = targets[0].id
            if _allocator_with_dtype(ctx, value):
                pinned.add(name)
                continue
            if (
                name in pinned
                and isinstance(value, ast.BinOp)
                and any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in ast.walk(value)
                )
            ):
                findings.append(
                    Finding(
                        ctx.path, stmt.lineno, stmt.col_offset, "REPRO305",
                        f"{name!r} was allocated with an explicit dtype but is rebound "
                        "from arithmetic on itself, which can promote the dtype; use an "
                        "in-place op or re-pin with .astype(...)",
                    )
                )
            pinned.discard(name)  # any other rebind loses the pin

    scan(ctx.tree.body)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan(node.body)
    return findings


# ---------------------------------------------------------------------------
# Rule 3: lock discipline (all modules)
# ---------------------------------------------------------------------------

#: Constructors whose result is treated as lock-guarded mutable cache state.
_GUARDED_FACTORIES = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)

#: Method calls that mutate a dict/list/set in place.
_MUTATOR_METHODS = frozenset(
    {
        "clear", "pop", "popitem", "update", "setdefault", "move_to_end",
        "append", "extend", "insert", "remove", "add", "discard",
    }
)


def _is_self_attr(node: ast.expr, names: set[str]) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in names
    ):
        return node.attr
    return None


def _lock_and_guarded_attrs(cls: ast.ClassDef) -> tuple[set[str], set[str]]:
    locks: set[str] = set()
    guarded: set[str] = set()
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            for t in targets:
                if not (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    continue
                name = t.attr
                if "lock" in name.lower():
                    locks.add(name)
                    continue
                if fn.name != "__init__" or value is None:
                    continue
                if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                    guarded.add(name)
                elif isinstance(value, ast.Call):
                    func = value.func
                    callee = (
                        func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else ""
                    )
                    if callee in _GUARDED_FACTORIES or name.endswith("_cache"):
                        guarded.add(name)
    return locks, guarded


def _walk_lock_scope(
    node: ast.AST, locks: set[str], under_lock: bool, visit: Callable[[ast.AST, bool], None]
) -> None:
    """Recursive walk tracking whether ``with self.<lock>`` encloses each node."""
    entered = under_lock
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if _is_self_attr(item.context_expr, locks):
                entered = True
    visit(node, entered)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested callables run later, under their own discipline
        _walk_lock_scope(child, locks, entered, visit)


def check_lock_discipline(ctx: ModuleContext) -> list[Finding]:
    """Guarded cache state may only be mutated under ``with self.<lock>``."""
    findings: list[Finding] = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks, guarded = _lock_and_guarded_attrs(cls)
        if not locks or not guarded:
            continue

        def report(attr: str, node: ast.AST) -> None:
            findings.append(
                Finding(
                    ctx.path, node.lineno, node.col_offset, "REPRO401",  # type: ignore[attr-defined]
                    f"self.{attr} is lock-guarded state ({'/'.join(sorted(locks))}) "
                    f"but is mutated outside `with self.{sorted(locks)[0]}`",
                )
            )

        def visit(node: ast.AST, under_lock: bool) -> None:
            if under_lock:
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    attr = _is_self_attr(t, guarded)
                    if attr is None and isinstance(t, ast.Subscript):
                        attr = _is_self_attr(t.value, guarded)
                    if attr is not None:
                        report(attr, node)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    base = t.value if isinstance(t, ast.Subscript) else t
                    attr = _is_self_attr(base, guarded)
                    if attr is not None:
                        report(attr, node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    attr = _is_self_attr(node.func.value, guarded)
                    if attr is not None:
                        report(attr, node)

        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
                _walk_lock_scope(fn, locks, False, visit)
    return findings


# ---------------------------------------------------------------------------
# Rule 4: resource lifecycle (all modules)
# ---------------------------------------------------------------------------

#: Canonical constructors whose result owns an OS-backed resource.
_ACQUISITION_CALLS = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "numpy.memmap",
    }
)

#: Methods that release such a resource.
_RELEASE_METHODS = frozenset({"close", "unlink", "shutdown", "terminate", "release"})

#: Class methods in which a release of an ``__init__``-acquired resource counts.
_RELEASE_SCOPES = frozenset({"close", "__exit__", "__del__", "shutdown", "stop"})


def _is_acquisition(ctx: ModuleContext, value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    if ctx.dotted(value.func) in _ACQUISITION_CALLS:
        return True
    return isinstance(value.func, ast.Name) and value.func.id == "open"


def _released_self_attrs(cls: ast.ClassDef) -> set[str]:
    """Attrs ``X`` referenced as ``self.X`` inside a release-scope method."""
    released: set[str] = set()
    for fn in cls.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in _RELEASE_SCOPES):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                released.add(node.attr)
    return released


def _locals_released_in_finally(fn: ast.AST) -> set[str]:
    """Local names with an ``x.<release>()`` call inside some ``finally`` block."""
    released: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, (ast.Try,)):
            continue
        for stmt in node.finalbody:
            for call in ast.walk(stmt):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _RELEASE_METHODS
                    and isinstance(call.func.value, ast.Name)
                ):
                    released.add(call.func.value.id)
    return released


def _escaping_locals(fn: ast.AST) -> set[str]:
    """Locals that leave the function: returned, yielded, or passed to a call."""
    escaping: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            for name in ast.walk(node.value):
                if isinstance(name, ast.Name):
                    escaping.add(name.id)
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    escaping.add(arg.id)
    return escaping


def check_resource_lifecycle(ctx: ModuleContext) -> list[Finding]:
    """Acquired resources need a reachable release path.  REPRO601.

    Two shapes: ``self.X = SharedMemory(...)`` in ``__init__`` demands a
    ``close``/``__exit__``-style method that touches ``self.X``; a bare local
    ``shm = SharedMemory(...)`` must either escape to the caller (returned or
    handed to another call — ownership transferred) or be released inside a
    ``finally`` block, because any exception between acquire and a straight-
    line ``shm.close()`` leaks the OS object — the exact shape of the sharded
    worker's attach-leak bug.  ``with`` acquisitions are exempt by
    construction.
    """
    findings: list[Finding] = []
    # -- instance attributes acquired in __init__ ---------------------------
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next(
            (
                f
                for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        released = _released_self_attrs(cls)
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _is_acquisition(ctx, node.value) and target.attr not in released:
                findings.append(
                    Finding(
                        ctx.path, node.lineno, node.col_offset, "REPRO601",
                        f"self.{target.attr} acquires an OS-backed resource in __init__ "
                        f"but no {'/'.join(sorted(_RELEASE_SCOPES))} method releases it; "
                        "the object cannot be shut down cleanly",
                    )
                )
    # -- function locals ----------------------------------------------------
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        released_locals = _locals_released_in_finally(fn)
        escaping = _escaping_locals(fn)
        for stmt in _iter_scope_statements(fn.body):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not _is_acquisition(ctx, stmt.value):
                continue
            name = target.id
            if name in released_locals or name in escaping:
                continue
            findings.append(
                Finding(
                    ctx.path, stmt.lineno, stmt.col_offset, "REPRO601",
                    f"{name!r} acquires an OS-backed resource with no release in a "
                    "finally block and no escape to the caller; an exception on any "
                    "later line leaks it -- use `with`, or close in finally",
                )
            )
    return findings


def all_rule_checks() -> Iterator[Callable[[ModuleContext], list[Finding]]]:
    """The registered rule entry points, in reporting order."""
    yield check_determinism
    yield check_dtype
    yield check_dtype_widening
    yield check_lock_discipline
    yield check_resource_lifecycle
