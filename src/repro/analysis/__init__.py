"""Static and dynamic analysis for the repro codebase.

Two halves of one hygiene gate:

* **reprolint** (static, :mod:`repro.analysis.lint`) enforces the invariants
  the paper's accuracy and reproducibility guarantees depend on: hash-purity
  of sketch construction, pinned dtypes in kernel allocations (and their
  dataflow sibling REPRO305), lock discipline around shared caches, and
  resource-lifecycle reachability.  The five-family container contract is
  stated by the ``SketchContainer`` Protocol and each family's
  ``StorageSchema``, and checked by mypy and a conformance test, not here.
* **reprosan** (dynamic, :mod:`repro.analysis.sanitizer`) observes real
  executions: lock-order inversions, guarded-state writes without the owning
  lock, store-handle (mmap) leaks and double releases, and seed-stream
  divergence.  Opt in with ``REPRO_SAN=1`` or ``with reprosan.enabled():``.

Usage::

    PYTHONPATH=src python -m repro.analysis.lint src/
    PYTHONPATH=src python -m repro.analysis.lint --profile=scripts benchmarks/ examples/ tests/
    REPRO_SAN=1 PYTHONPATH=src python -m pytest tests/test_sharded.py

See :mod:`repro.analysis.rules` for the static rule catalogue and
:mod:`repro.analysis.runtime` for the runtime detector codes.
"""

from typing import Any

from .rules import Finding, RULE_CATEGORIES

__all__ = [
    "Finding",
    "PROFILES",
    "RULE_CATEGORIES",
    "SAN_CATEGORIES",
    "SanFinding",
    "SanitizerError",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "sanitizer",
]

_LINT_EXPORTS = ("PROFILES", "lint_file", "lint_paths", "lint_source", "main")
_RUNTIME_EXPORTS = ("SAN_CATEGORIES", "SanFinding", "SanitizerError")


# The drivers are imported lazily so `python -m repro.analysis.lint` does not
# trip runpy's found-in-sys.modules warning, and so importing the package does
# not pull numpy (via the sanitizer) for lint-only use.
def __getattr__(name: str) -> Any:
    if name in _LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    if name in _RUNTIME_EXPORTS:
        from . import runtime

        return getattr(runtime, name)
    if name == "sanitizer":
        # importlib, not `from . import`: the fromlist machinery would call
        # this __getattr__ again mid-import and recurse.
        import importlib

        return importlib.import_module(f"{__name__}.sanitizer")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
