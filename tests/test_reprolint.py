"""Tests for ``repro.analysis`` (reprolint) and the SketchContainer Protocol.

The bad fixtures are minimal reproductions of real regressions this repo has
shipped and later fixed: the PR 2 process-salted ``hash(name)`` seed and the
PR 5 un-locked ``PGSession._cache`` mutation.  Each rule category must fire on
its bad fixture and stay quiet on the clean equivalent, and a self-run over
``src/`` must report zero findings.  The sketch-container contract is checked
here too, over every container class, each clause shown failing on a broken
class.
"""

from __future__ import annotations

import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import PROFILES, lint_paths, lint_source
from repro.analysis.lint import main
from repro.sketches import (
    ROW_VECTOR,
    SKETCH_CONTAINER_TYPES,
    ArraySpec,
    BloomFamily,
    BottomKFamily,
    HLLFamily,
    KHashFamily,
    KHashNeighborhoodSketches,
    KMVFamily,
    NeighborhoodSketches,
    SketchContainer,
    StorageSchema,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def codes(source: str, **kwargs) -> list[str]:
    return [f.code for f in lint_source(textwrap.dedent(source), **kwargs)]


# ---------------------------------------------------------------------------
# determinism (REPRO101-103)
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_pr2_hash_seed_regression_fires(self):
        # Minimal reproduction of the PR 2 bug: builtin hash() is salted per
        # process, so this "seed" differs between two runs of the same build.
        bad = """
            def dataset_seed(name):
                return hash(name) & 0xFFFFFFFF
        """
        assert codes(bad, kernel=True) == ["REPRO101"]

    def test_splitmix_seed_equivalent_is_quiet(self):
        good = """
            from repro.sketches.hashing import splitmix64
            import numpy as np

            def dataset_seed(name_bytes: np.ndarray) -> int:
                return int(splitmix64(name_bytes, 0)[0])
        """
        assert codes(good, kernel=True) == []

    def test_global_numpy_rng_fires(self):
        bad = """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
        """
        assert codes(bad, kernel=True) == ["REPRO102"]

    def test_unseeded_default_rng_fires_seeded_is_quiet(self):
        assert codes(
            "import numpy as np\nrng = np.random.default_rng()\n", kernel=True
        ) == ["REPRO102"]
        assert codes(
            "import numpy as np\nrng = np.random.default_rng(42)\n", kernel=True
        ) == []

    def test_random_module_fires(self):
        bad = """
            import random

            def pick(xs):
                return random.choice(xs)
        """
        assert codes(bad, kernel=True) == ["REPRO102"]

    def test_time_dependent_value_fires(self):
        bad = """
            import time

            def make_seed():
                return int(time.time_ns())
        """
        assert codes(bad, kernel=True) == ["REPRO103"]

    def test_kernel_scoping_by_path(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes(src, path="src/repro/sketches/x.py") == ["REPRO103"]
        # evalharness/ and benchmarks are free to measure wall-clock time.
        assert codes(src, path="src/repro/evalharness/x.py") == []

    def test_attribute_named_hash_is_not_flagged(self):
        # HashFamily.hash(...) is the repo's own deterministic hash; only the
        # builtin hash() is banned.
        good = """
            def sketch(family, arr):
                return family.hash(arr, 0)
        """
        assert codes(good, kernel=True) == []


# ---------------------------------------------------------------------------
# dtype discipline (REPRO301)
# ---------------------------------------------------------------------------
class TestDtype:
    def test_missing_dtype_fires(self):
        assert codes("import numpy as np\nx = np.zeros(10)\n", kernel=True) == ["REPRO301"]

    def test_explicit_dtype_is_quiet(self):
        good = """
            import numpy as np
            a = np.zeros(10, dtype=np.float64)
            b = np.empty(0, np.int64)
            c = np.full((2, 3), 7, dtype=np.uint8)
        """
        assert codes(good, kernel=True) == []

    def test_missing_fill_dtype_fires(self):
        assert codes("import numpy as np\nx = np.full(4, 0.0)\n", kernel=True) == ["REPRO301"]

    def test_non_kernel_module_is_exempt(self):
        assert codes("import numpy as np\nx = np.zeros(10)\n", kernel=False) == []


# ---------------------------------------------------------------------------
# dtype widening dataflow (REPRO305)
# ---------------------------------------------------------------------------
class TestDtypeWidening:
    def test_rebind_from_arithmetic_fires(self):
        bad = """
            import numpy as np

            def normalize(n, total):
                counts = np.zeros(n, dtype=np.float32)
                counts = counts / total
                return counts
        """
        assert codes(bad, kernel=True) == ["REPRO305"]

    def test_inplace_op_is_quiet(self):
        good = """
            import numpy as np

            def normalize(n, total):
                counts = np.zeros(n, dtype=np.float32)
                counts /= total
                return counts
        """
        assert codes(good, kernel=True) == []

    def test_astype_repin_is_quiet(self):
        good = """
            import numpy as np

            def normalize(n, total):
                counts = np.zeros(n, dtype=np.float32)
                counts = (counts / total).astype(np.float32)
                return counts
        """
        assert codes(good, kernel=True) == []

    def test_unrelated_rebind_clears_pin(self):
        # Rebinding to something else drops the pin: arithmetic on the *new*
        # value is no longer the allocator's concern.
        ok = """
            import numpy as np

            def mix(n, other, total):
                counts = np.zeros(n, dtype=np.float32)
                counts = other
                counts = counts / total
                return counts
        """
        assert codes(ok, kernel=True) == []

    def test_non_kernel_module_is_exempt(self):
        bad = """
            import numpy as np

            def normalize(n, total):
                counts = np.zeros(n, dtype=np.float32)
                counts = counts / total
                return counts
        """
        assert codes(bad, kernel=False) == []


# ---------------------------------------------------------------------------
# lock discipline (REPRO401)
# ---------------------------------------------------------------------------
_LOCKED_SESSION = """
    import threading
    from collections import OrderedDict

    class Session:
        def __init__(self):
            self._lock = threading.RLock()
            self._cache = OrderedDict()

        def put(self, key, value):
            with self._lock:
                self._cache[key] = value

        def clear(self):
            with self._lock:
                self._cache.clear()
"""


class TestLockDiscipline:
    def test_locked_mutations_are_quiet(self):
        assert codes(_LOCKED_SESSION) == []

    def test_pr5_unlocked_cache_mutation_fires(self):
        # Minimal reproduction of the PR 5 bug: a cache write outside the lock
        # races against concurrent eviction.
        bad = _LOCKED_SESSION.replace(
            "        def put(self, key, value):\n"
            "            with self._lock:\n"
            "                self._cache[key] = value\n",
            "        def put(self, key, value):\n"
            "            self._cache[key] = value\n",
        )
        assert codes(bad) == ["REPRO401"]

    def test_unlocked_mutator_method_fires(self):
        bad = _LOCKED_SESSION + "\n        def evict(self):\n            self._cache.popitem()\n"
        assert codes(bad) == ["REPRO401"]

    def test_class_without_lock_is_exempt(self):
        no_lock = """
            from collections import OrderedDict

            class Plain:
                def __init__(self):
                    self._cache = OrderedDict()

                def put(self, key, value):
                    self._cache[key] = value
        """
        assert codes(no_lock) == []

    def test_reads_are_allowed_outside_lock(self):
        ok = _LOCKED_SESSION + "\n        def peek(self, key):\n            return self._cache.get(key)\n"
        assert codes(ok) == []


# ---------------------------------------------------------------------------
# resource lifecycle (REPRO601)
# ---------------------------------------------------------------------------
class TestResourceLifecycle:
    def test_init_acquisition_without_release_method_fires(self):
        bad = """
            from multiprocessing.shared_memory import SharedMemory

            class Holder:
                def __init__(self, name):
                    self._shm = SharedMemory(name=name)
        """
        assert codes(bad) == ["REPRO601"]

    def test_init_acquisition_with_close_is_quiet(self):
        good = """
            from multiprocessing.shared_memory import SharedMemory

            class Holder:
                def __init__(self, name):
                    self._shm = SharedMemory(name=name)

                def close(self):
                    self._shm.close()
        """
        assert codes(good) == []

    def test_straight_line_local_close_fires(self):
        # A close() on the happy path only: any exception between attach and
        # close leaks the OS object — the sharded worker's attach-leak bug.
        bad = """
            from multiprocessing.shared_memory import SharedMemory
            import numpy as np

            def read(name, n):
                shm = SharedMemory(name=name)
                out = np.frombuffer(shm.buf, dtype=np.int64, count=n).copy()
                shm.close()
                return out
        """
        assert "REPRO601" in codes(bad)

    def test_finally_release_is_quiet(self):
        good = """
            from multiprocessing.shared_memory import SharedMemory
            import numpy as np

            def read(name, n):
                shm = SharedMemory(name=name)
                try:
                    return np.frombuffer(shm.buf, dtype=np.int64, count=n).copy()
                finally:
                    shm.close()
        """
        assert codes(good) == []

    def test_escape_to_caller_is_quiet(self):
        # Returning the handle transfers ownership to the caller.
        good = """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                shm = SharedMemory(name=name)
                return shm
        """
        assert codes(good) == []

    def test_pool_executor_counts_as_acquisition(self):
        bad = """
            from concurrent.futures import ProcessPoolExecutor

            class Engine:
                def __init__(self):
                    self._pool = ProcessPoolExecutor()
        """
        assert codes(bad) == ["REPRO601"]

    def test_memmap_counts_as_acquisition(self):
        bad = """
            import numpy as np

            class Store:
                def __init__(self, path):
                    self._rows = np.memmap(path, dtype=np.uint64, mode="r")
        """
        assert codes(bad) == ["REPRO601"]

    def test_memmap_with_close_is_quiet(self):
        good = """
            import numpy as np

            class Store:
                def __init__(self, path):
                    self._rows = np.memmap(path, dtype=np.uint64, mode="r")

                def close(self):
                    self._rows = None
        """
        assert codes(good) == []

    def test_memmap_return_escape_is_quiet(self):
        # The storage layer's _map_block shape: ownership passes to the
        # caller (the StoreHandle that tracks and releases the mapping).
        good = """
            import numpy as np

            def map_block(path, dtype, offset, shape):
                mm = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
                return mm
        """
        assert codes(good) == []

    def test_local_memmap_without_escape_fires(self):
        bad = """
            import numpy as np

            def peek(path):
                mm = np.memmap(path, dtype=np.uint64, mode="r")
                first = int(mm[0])
                return first
        """
        assert "REPRO601" in codes(bad)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    BAD_LINE = "import time\nt = time.perf_counter()"

    def test_justified_suppression_silences(self):
        src = self.BAD_LINE + "  # reprolint: allow[determinism] -- timing stat only\n"
        assert codes(src, kernel=True) == []

    def test_suppression_by_code_and_above_line(self):
        src = "import time\n# reprolint: allow[REPRO103] -- timing stat only\nt = time.perf_counter()\n"
        assert codes(src, kernel=True) == []

    def test_bare_suppression_is_itself_a_finding(self):
        # The marker is split so linting *this* file's raw source (the
        # scripts-profile self-run) does not see a bare suppression here.
        src = self.BAD_LINE + "  # repro" + "lint: allow[determinism]\n"
        found = codes(src, kernel=True)
        assert "REPRO001" in found  # missing justification
        assert "REPRO103" in found  # and the original finding stays live

    def test_wrong_category_does_not_silence(self):
        src = self.BAD_LINE + "  # reprolint: allow[dtype] -- wrong category\n"
        assert codes(src, kernel=True) == ["REPRO103"]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------
class TestProfiles:
    # Fires determinism (REPRO102) *and* lifecycle (REPRO601) in one module.
    MIXED = """
        import random
        from multiprocessing.shared_memory import SharedMemory

        class Holder:
            def __init__(self, name):
                self._shm = SharedMemory(name=name)

            def pick(self, xs):
                return random.choice(xs)
    """

    def test_scripts_profile_keeps_only_its_categories(self):
        full = codes(self.MIXED, kernel=True)
        assert set(full) == {"REPRO102", "REPRO601"}
        scoped = codes(self.MIXED, kernel=True, categories=PROFILES["scripts"])
        assert scoped == ["REPRO601"]

    def test_src_profile_is_unfiltered(self):
        assert PROFILES["src"] is None

    def test_scripts_profile_checks_suppression_hygiene(self):
        # A bare allow[] must stay a finding under the scripts profile, even
        # though the finding it fails to justify is filtered out.
        src = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "import random\n"
            "x = random.random()  # repro" + "lint: allow[determinism]\n"
        )
        scoped = codes(src, kernel=True, categories=PROFILES["scripts"])
        assert scoped == ["REPRO001"]

    def test_cli_profile_flag(self, tmp_path, capsys):
        bad = tmp_path / "bench.py"
        bad.write_text("import random\nx = random.random()\n")
        # Determinism findings are out of scope for scripts...
        assert main(["--profile=scripts", str(bad)]) == 0
        # ...but lifecycle findings are not.
        leak = tmp_path / "leak.py"
        leak.write_text(textwrap.dedent(self.MIXED))
        assert main(["--profile=scripts", str(leak)]) == 1
        out = capsys.readouterr().out
        assert "REPRO601" in out
        assert "REPRO102" not in out

    def test_scripts_tree_has_zero_findings(self):
        repo = SRC.parent
        targets = [repo / "benchmarks", repo / "examples", repo / "tests"]
        findings = lint_paths(targets, categories=PROFILES["scripts"])
        assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# self-run and CLI
# ---------------------------------------------------------------------------
class TestSelfRun:
    def test_src_tree_has_zero_findings(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        bad = tmp_path / "bad" / "repro" / "sketches" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("seed = hash('name')\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REPRO101" in out
        assert main([str(tmp_path / "missing.py")]) == 2


# ---------------------------------------------------------------------------
# SketchContainer contract: stated by the Protocol and each family's
# StorageSchema, checked here for every container class
# ---------------------------------------------------------------------------
_FAMILIES = [
    BloomFamily(num_bits=64, num_hashes=2, seed=0),
    KHashFamily(k=8, seed=0),
    BottomKFamily(k=8, seed=0),
    KMVFamily(k=8, seed=0),
    HLLFamily(precision=6, seed=0),
]

#: Incremental-maintenance methods every schema-declaring container overrides.
_MAINTENANCE = ("apply_delta", "resketch_rows", "grow")


def _sketch(family):
    indptr = np.array([0, 2, 3, 4], dtype=np.int64)
    indices = np.array([1, 2, 0, 0], dtype=np.int64)
    return family.sketch_neighborhoods(indptr, indices)


def _schema_container_classes() -> list[type[NeighborhoodSketches]]:
    """Every ``NeighborhoodSketches`` subclass in ``repro`` that declares row arrays."""
    found, stack = [], [NeighborhoodSketches]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and sub.storage_schema.arrays:
                found.append(sub)
    return found


def _contract_violations(cls: type[NeighborhoodSketches], container) -> list[str]:
    """Each clause of the container contract that ``cls`` breaks.

    A class declaring row arrays must (1) name the family params that key
    row compatibility, (2) override the maintenance methods, (3) keep the
    reference parameter names of ``NeighborhoodSketches``, and (4) hold
    every declared array, as ``container`` (an instance of ``cls``) shows.
    """
    schema = cls.storage_schema
    problems = []
    if not schema.params:
        problems.append("storage_schema names no params")
    for name in _MAINTENANCE:
        if getattr(cls, name) is getattr(NeighborhoodSketches, name):
            problems.append(f"{name} is not overridden")
    for name in (*_MAINTENANCE, "update_many"):
        got = list(inspect.signature(getattr(cls, name)).parameters)
        want = list(inspect.signature(getattr(NeighborhoodSketches, name)).parameters)
        if got != want:
            problems.append(f"{name}({', '.join(got)}) differs from ({', '.join(want)})")
    try:
        schema.validate(container)
    except (TypeError, ValueError) as exc:
        problems.append(f"validate: {exc}")
    return problems


_KHASH_SCHEMA = KHashNeighborhoodSketches.storage_schema


class _NoParams(KHashNeighborhoodSketches):
    storage_schema = StorageSchema(arrays=_KHASH_SCHEMA.arrays)


class _NoGrow(KHashNeighborhoodSketches):
    grow = NeighborhoodSketches.grow  # the base's NotImplementedError stub


class _RenamedResketch(KHashNeighborhoodSketches):
    def resketch_rows(self, verts, ptr, idx):
        super().resketch_rows(verts, ptr, idx)


class _UnassignedArray(KHashNeighborhoodSketches):
    # Declares a third row array that the inherited __init__ never assigns.
    storage_schema = StorageSchema(
        arrays=_KHASH_SCHEMA.arrays + (ArraySpec("weights", "float64", ROW_VECTOR),),
        params=_KHASH_SCHEMA.params,
    )


class TestProtocolConformance:
    def test_all_five_families_registered(self):
        assert len(SKETCH_CONTAINER_TYPES) == 5

    @pytest.mark.parametrize(
        "family", _FAMILIES, ids=["bloom", "khash", "bottomk", "kmv", "hll"]
    )
    def test_runtime_conformance(self, family):
        sketches = _sketch(family)
        assert isinstance(sketches, SketchContainer)
        assert type(sketches) in SKETCH_CONTAINER_TYPES

    def test_every_schema_container_is_built_by_a_family(self):
        # So the per-family check below covers every class that declares rows.
        built = {type(_sketch(family)) for family in _FAMILIES}
        assert set(_schema_container_classes()) == built == set(SKETCH_CONTAINER_TYPES)

    @pytest.mark.parametrize(
        "family", _FAMILIES, ids=["bloom", "khash", "bottomk", "kmv", "hll"]
    )
    def test_family_container_meets_the_contract(self, family):
        container = _sketch(family)
        assert _contract_violations(type(container), container) == []

    @pytest.mark.parametrize(
        "cls, clause",
        [
            (_NoParams, "storage_schema names no params"),
            (_NoGrow, "grow is not overridden"),
            (_RenamedResketch, "resketch_rows(self, verts, ptr, idx) differs"),
            (_UnassignedArray, "validate: _UnassignedArray.weights is not an ndarray"),
        ],
        ids=["no-params", "no-grow", "renamed-resketch-rows", "unassigned-array"],
    )
    def test_contract_check_fails_on_a_broken_class(self, cls, clause):
        khash = _sketch(KHashFamily(k=8, seed=0))
        broken = cls(**khash.storage_arrays(), **khash.storage_params())
        problems = _contract_violations(cls, broken)
        assert len(problems) == 1 and problems[0].startswith(clause), problems


# ---------------------------------------------------------------------------
# mypy gate (runs only where mypy is installed, e.g. the CI lint job)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_mypy_strict_dirs_pass():
    api = pytest.importorskip("mypy.api", reason="mypy not installed")
    repo = SRC.parent
    stdout, stderr, status = api.run(
        ["--config-file", str(repo / "setup.cfg"), "-p", "repro"]
    )
    assert status == 0, stdout + stderr
