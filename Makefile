PYTHON ?= python

.PHONY: lint test examples sanitize

# Static analysis gate: reprolint (always) + mypy (when installed).
# CI runs both unconditionally; the local fallback keeps `make lint` usable
# in environments without mypy.  Scripts (benchmarks/examples/perfbench/tests) are
# linted with the relaxed profile: lifecycle rules on, determinism off.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.lint src/
	PYTHONPATH=src $(PYTHON) -m repro.analysis.lint --profile=scripts benchmarks/ examples/ perfbench/ tests/
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file setup.cfg -p repro; \
	else \
		echo "mypy not installed locally; skipped (CI runs it)"; \
	fi

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Dynamic analysis gate: the focused concurrency subset under the reprosan
# runtime sanitizer (strict mode), plus the <2x overhead measurement.
sanitize:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sanitizer_overhead.py

# Every example runs with TMPDIR set to a fresh directory, which must still be
# empty afterwards: an example that leaves temporary files behind fails.
examples:
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for ex in examples/*.py; do TMPDIR=$$tmp PYTHONPATH=src $(PYTHON) $$ex || exit 1; done; \
	if [ -n "$$(ls -A "$$tmp")" ]; then echo "the examples left files in TMPDIR:"; ls -A "$$tmp"; exit 1; fi
