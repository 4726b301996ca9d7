# Convenience targets for the ORTOA reproduction.

PYTHON ?= python

.PHONY: install test bench reproduce examples clean

install:
	$(PYTHON) setup.py develop || pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Every figure reproduction and floor gate; the few timing-only tests that
# take pytest-benchmark's fixture run once each.
bench:
	$(PYTHON) -m pytest benchmarks/

# Regenerate every paper table/figure into results/.
reproduce: bench
	@echo "Tables written to results/"

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
