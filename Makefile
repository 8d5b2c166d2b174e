# Convenience targets for the reproduction.

PYTEST ?= python -m pytest

.PHONY: install test test-fast bench perfbench pytest-bench figures examples clean

install:
	pip install -e .

test:
	$(PYTEST) tests/

test-fast:
	$(PYTEST) tests/ -x -q -m "not slow"

# The pinned perf suite, gated against the committed BENCH_<sha>.json
# trajectory (exit 1 on a direction-aware regression).
bench:
	PYTHONPATH=src python -m repro.cli bench --compare --no-write

# The repository benchmark: the three workloads of BENCHMARK.json,
# untraced, at the pinned seed (exit 1 on a failed output check).
PERFBENCH_WORKLOADS = fsoi64-mp3d mesh64-ws fig6-sweep16

perfbench:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$workload --seed 0 --trace 0 \
			|| exit 1; \
	done

# The paper's tables/figures via pytest-benchmark (the old `make bench`).
pytest-bench:
	$(PYTEST) benchmarks/ --benchmark-only -s

# Full-fidelity reproduction of every table and figure (hours).
figures:
	REPRO_BENCH_APPS=all REPRO_BENCH_CYCLES=20000 \
	$(PYTEST) benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; python $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
	rm -rf .repro-sweep-cache benchmarks/.cache
