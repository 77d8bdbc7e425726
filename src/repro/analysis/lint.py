"""reprolint driver: file walking, suppression handling, and the CLI.

Run over the source tree with::

    PYTHONPATH=src python -m repro.analysis.lint src/

Exit status is 0 iff no unsuppressed findings remain.  A finding is
suppressed by an inline comment on the offending line or the line above::

    stats.seconds = time.perf_counter() - t0  # reprolint: allow[determinism] -- timing stat only

The bracket takes a comma-separated list of rule codes (``REPRO103``) or
category names (``determinism``).  The ``--`` justification is mandatory: a
suppression without one is itself a finding (``REPRO001``), so every silenced
rule carries its rationale in the diff.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .rules import (
    Finding,
    KERNEL_PACKAGES,
    ModuleContext,
    RULE_CATEGORIES,
    all_rule_checks,
)

__all__ = ["Finding", "PROFILES", "lint_source", "lint_file", "lint_paths", "main"]

#: Named rule profiles: category allow-list, or ``None`` for every rule.
#: ``src`` is the full set for library code; ``scripts`` is the relaxed set
#: for benchmarks/examples/tests — determinism, dtype and lock rules off
#: (scripts time things and seed ad hoc), suppression hygiene and lifecycle
#: rules on (a leaked handle is a bug anywhere).
PROFILES: dict[str, frozenset[str] | None] = {
    "src": None,
    "scripts": frozenset({"suppression", "lifecycle"}),
}

_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*allow\[([^\]]*)\]\s*(?:--\s*(\S.*))?"
)


def _is_kernel_path(path: str) -> bool:
    """Whether ``path`` lies in a kernel sub-package of ``repro``.

    Kernel packages (``sketches``, ``core``, ``engine``, ``dynamic``) build or
    mutate sketch state, so the determinism and dtype rules apply to them.
    """
    parts = Path(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in KERNEL_PACKAGES:
            return True
    return False


def _suppressions(source: str, path: str) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line allowed rule selectors, plus findings for bare suppressions."""
    allowed: dict[int, set[str]] = {}
    bare: list[Finding] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESSION_RE.search(line)
        if m is None:
            continue
        selectors = {s.strip().upper() for s in m.group(1).split(",") if s.strip()}
        justification = (m.group(2) or "").strip()
        if not justification:
            bare.append(
                Finding(
                    path, lineno, m.start(), "REPRO001",
                    "suppression without justification; write "
                    "`# reprolint: allow[<rule>] -- <why this is safe>`",
                )
            )
            continue
        # A suppression covers its own line and the line below, so it can sit
        # either trailing the offending statement or on its own line above it.
        for covered in (lineno, lineno + 1):
            allowed.setdefault(covered, set()).update(selectors)
    return allowed, bare


def _is_suppressed(finding: Finding, allowed: dict[int, set[str]]) -> bool:
    selectors = allowed.get(finding.line, set())
    return finding.code.upper() in selectors or finding.category.upper() in selectors


def lint_source(
    source: str,
    path: str = "<string>",
    kernel: bool | None = None,
    categories: frozenset[str] | None = None,
) -> list[Finding]:
    """Lint a source string; ``kernel`` overrides path-based scoping for tests.

    ``categories`` restricts reporting to the given rule categories (a
    :data:`PROFILES` value); ``None`` reports everything.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        col = exc.offset or 0
        return [Finding(path, line, col, "REPRO001", f"syntax error: {exc.msg}")]
    if kernel is None:
        kernel = _is_kernel_path(path)
    ctx = ModuleContext(path=path, tree=tree, kernel=kernel)
    findings: list[Finding] = []
    for check in all_rule_checks():
        findings.extend(check(ctx))
    allowed, bare = _suppressions(source, path)
    findings = [f for f in findings if not _is_suppressed(f, allowed)]
    findings.extend(bare)
    if categories is not None:
        findings = [f for f in findings if f.category in categories]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(path: Path, categories: frozenset[str] | None = None) -> list[Finding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path), categories=categories)


def _iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


def lint_paths(
    paths: Iterable[Path], categories: frozenset[str] | None = None
) -> list[Finding]:
    findings: list[Finding] = []
    for path in _iter_python_files(paths):
        findings.extend(lint_file(path, categories=categories))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="reprolint: determinism, dtype, lock and lifecycle checks for this repo",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule codes and exit"
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="src",
        help="rule profile: 'src' (all rules) or 'scripts' (suppression and "
        "lifecycle only, for benchmarks/examples/tests)",
    )
    ns = parser.parse_args(argv)
    if ns.list_rules:
        for code, category in sorted(RULE_CATEGORIES.items()):
            print(f"{code}  [{category}]")
        return 0
    targets = [Path(p) for p in ns.paths]
    missing = [p for p in targets if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    findings = lint_paths(targets, categories=PROFILES[ns.profile])
    for finding in findings:
        print(finding.render())
    n_files = sum(1 for _ in _iter_python_files(targets))
    if findings:
        print(
            f"reprolint: {len(findings)} finding(s) in {n_files} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"reprolint: clean ({n_files} file(s))", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
