# HeapTherapy+ reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test bench bench-diagnosis bench-paper \
	bench-full examples docs-check lint clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Static checks: the repo's own program-model linter always runs; ruff
# and mypy run when installed (pip install -e .[lint]) and are skipped
# gracefully otherwise, so `make lint` works on a bare test image.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --synthesizability
	PYTHONPATH=src $(PYTHON) -m repro verify-encoding
	PYTHONPATH=src $(PYTHON) -m repro layout || [ $$? -eq 1 ]
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "== ruff"; ruff check src tests benchmarks || exit 1; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		echo "== mypy"; $(PYTHON) -m mypy || exit 1; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Wall-clock throughput harness: writes BENCH_<suite>.json files,
# gating against every committed BENCH_*.json baseline in the repo root
# (serving, layout, synth; directory form of --baseline).  Service
# throughput is measured by `python3 perf/run.py`, not here.
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite all \
		--baseline .

# Parallel patch-factory scaling curve: writes BENCH_diagnosis.json,
# gating against the committed baseline.  Multi-worker entries only
# gate between hosts with the same CPU count (meta.cpus); jobs=1
# throughput always gates.
bench-diagnosis:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite diagnosis \
		--out-dir benchmarks/results \
		--baseline benchmarks/results/BENCH_diagnosis.json

# Paper tables/figures microbenchmarks (pytest-benchmark timings only).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Full-scale run: the numbers EXPERIMENTS.md reports.
bench-full:
	REPRO_BENCH_SCALE=1.0 $(PYTHON) -m pytest benchmarks/

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
