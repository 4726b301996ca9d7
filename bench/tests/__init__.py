"""Self-tests of the benchmark: ``python -m pytest bench/tests -q`` (not tier-1)."""
