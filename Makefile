# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-paper figures validate \
	examples clean lint lint-static lint-types

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# repro's own static verifier (always available) + ruff/mypy when the
# [lint] extra is installed; missing tools skip with a notice instead of
# failing developer machines that only carry the runtime deps.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint --all
	$(MAKE) lint-static
	$(MAKE) lint-types

lint-static:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed (pip install -e .[lint]); skipping"; \
	fi

lint-types:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed (pip install -e .[lint]); skipping"; \
	fi

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-paper:
	REPRO_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

# every paper artifact (Figures 3-5, headline, plateaus, roofline) from
# one pass over the traces
figures:
	$(PYTHON) -m repro.cli report --output REPORT.md

validate:
	$(PYTHON) -m repro.cli validate

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/latency_tolerance_study.py spmv
	$(PYTHON) examples/bandwidth_provisioning.py spmv
	$(PYTHON) examples/custom_kernel.py
	$(PYTHON) examples/codesign_study.py

clean:
	rm -rf .pytest_cache benchmarks/.benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
