# Convenience targets for the RAE reproduction.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: all install lint lint-json lint-github sweep sweep-smoke test bench perfbench perfbench-smoke experiments examples verify clean

# Default flow: static analysis first (fast), then the tier-1 suite.
all: lint test

install:
	$(PYTHON) setup.py develop

lint:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings

lint-json:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings --format=json

# GitHub workflow-command annotations: findings render inline on the PR
# diff.  This is CI's one lint gate; lint-json is the machine-readable
# format.  For one rule family locally, add `--select <family>`.
lint-github:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings --format=github

# Execute the full crash-point sweep: record every scenario's device
# writes and flushes, crash after each of them under both crash kinds,
# exit 1 on any non-clean outcome (see docs/FAULT_SWEEP.md).
sweep:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.sweep

# Bounded sweep for CI: one profile, short workloads, 24 cases spread
# over every scenario and both crash kinds.  Failing cases write
# reproducer bundles under sweep-bundles/, which the workflow uploads
# as artifacts.
sweep-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.sweep --smoke --bundle-dir sweep-bundles

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository's benchmark (BENCHMARK.json): every performance claim
# is a (metric, workload) pair from perfbench/README.md.  The smoke run
# keeps the oracle and the power-loss durability pass on and exits
# non-zero on any failed check.
perfbench:
	python3 perfbench/run.py --seed 11

perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q
	python3 perfbench/run.py --smoke --seed 11

experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/crafted_image_attack.py
	$(PYTHON) examples/webserver_survival.py
	$(PYTHON) examples/post_error_testing.py
	$(PYTHON) examples/process_isolation.py

verify:
	$(PYTHON) -m repro.tools verify --depth 3

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
