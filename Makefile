# Local mirror of .github/workflows/ci.yml.  ruff and mypy are optional
# (the `dev` extra); when absent they are skipped with a notice rather than
# failing the whole gate, so `make check` works in minimal containers.

PYTHON ?= python

.PHONY: check lint lint-fast lint-sarif ruff mypy test figures figures-smoke bench-kernels bench-kernels-smoke bench-e2e-smoke bench-e2e

check: ruff mypy lint test
	@echo "make check: all gates passed"

ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed (pip install -e '.[dev]') -- skipped"; \
	fi

mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed (pip install -e '.[dev]') -- skipped"; \
	fi

lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src/repro

# pre-commit loop: lint only the files changed vs the merge-base with main
# (worktree edits and untracked files included; project-wide rules and the
# stale-suppression check are skipped on partial sets)
lint-fast:
	PYTHONPATH=src $(PYTHON) -m repro.lint --changed src/repro

# the code-scanning artifact CI uploads
lint-sarif:
	PYTHONPATH=src $(PYTHON) -m repro.lint --format sarif src/repro > repro-lint.sarif || true
	@echo "wrote repro-lint.sarif"

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# regenerate every figure/extension through the committed raw/ store:
# unchanged cells are cache hits, only what changed is recomputed, and a
# killed run resumes where it left off.  Delete raw/ (or add --force) for
# a cold rebuild.
figures:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --all --raw-dir raw --out benchmarks/results

# CI smoke: one small figure twice against a scratch store — the second
# run must be all cache hits and the CSVs byte-identical
figures-smoke:
	rm -rf /tmp/repro-figures-smoke && mkdir -p /tmp/repro-figures-smoke
	PYTHONPATH=src $(PYTHON) -m repro.experiments --figures fig05 \
		--raw-dir /tmp/repro-figures-smoke/raw --out /tmp/repro-figures-smoke/a
	PYTHONPATH=src $(PYTHON) -m repro.experiments --figures fig05 \
		--raw-dir /tmp/repro-figures-smoke/raw --out /tmp/repro-figures-smoke/b
	cmp /tmp/repro-figures-smoke/a/fig05.csv /tmp/repro-figures-smoke/b/fig05.csv
	@echo "figures-smoke: warm rerun byte-identical"

# kernel registry family: reference vs numpy for every registered kernel,
# asserting bit-identical results per row; writes BENCH_kernels.json
bench-kernels:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --kernels --min-speedup 1.5

bench-kernels-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --kernels --profile tiny

# smoke test of the end-to-end benchmark (BENCHMARK.json): every workload
# at ~5% of its ops, outputs checked against golden.json.  The first run
# fills the PIC instance cache under .bench_build/e2e/cache (about a minute)
bench-e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/e2e

# the end-to-end benchmark itself, with warm bytecode: under
# PYTHONDONTWRITEBYTECODE=1 a tree with no __pycache__ recompiles src/repro
# in every fresh interpreter setup_s starts, which inflates setup_s
bench-e2e:
	env -u PYTHONDONTWRITEBYTECODE python3 -m compileall -q src
	python3 benchmarks/e2e/run.py
