# Local mirror of .github/workflows/ci.yml.  ruff and mypy are optional
# (the `dev` extra); when absent they are skipped with a notice rather than
# failing the whole gate, so `make check` works in minimal containers.

PYTHON ?= python

.PHONY: check lint lint-fast lint-sarif ruff mypy test figures figures-smoke bench-json bench-smoke bench-kernels bench-kernels-smoke bench-sweep bench-sweep-smoke bench-figures bench-figures-smoke bench-sparse bench-sparse-smoke bench-dynamic bench-dynamic-smoke bench-check-identity bench-e2e-smoke bench-e2e

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

# perf-regression harness: times every optimized kernel against its
# reference path and writes BENCH_core.json at the repo root
bench-json:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --min-speedup 2.0

# CI smoke: tiny instances, seconds of wall-clock, still asserts that the
# optimized paths return bit-identical results
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --profile tiny

# kernel registry family: reference vs numpy (vs numba when the `perf`
# extra is installed) for every registered kernel, asserting bit-identical
# results per row; writes BENCH_kernels.json
bench-kernels:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --kernels --min-speedup 1.5

bench-kernels-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --kernels --profile tiny

# sweep family: repro.sweep.sweep() m-sweeps vs per-m cold calls, asserting
# every cell bit-identical; writes BENCH_sweep.json
bench-sweep:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --sweep --min-speedup 1.5

bench-sweep-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --sweep --profile tiny

# figure-farm family: a fast figure subset regenerated cold / warm /
# interrupted-then-resumed against the raw store, gated on byte-identical
# CSVs; writes BENCH_FIGURES.json
bench-figures:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --figures --min-speedup 5.0

bench-figures-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --figures --profile tiny

# sparse-substrate family: CSR substrate vs dense Γ on the large-profile
# instances (4096² spmv/mesh/slac), gated on bit-identical queries and
# partitions and on spmv substrate memory <= 10% of dense Γ bytes; writes
# BENCH_sparse.json
bench-sparse:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --sparse

bench-sparse-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --sparse --profile tiny

# dynamic family: repartitioning policies over the PIC snapshot stream
# (determinism + legacy-knob identity) plus warm-started per-snapshot
# solves from a persistent sweep store (seed / op-drop / bit-identity
# gates); writes BENCH_dynamic.json
bench-dynamic:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --dynamic

bench-dynamic-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --dynamic --profile tiny

# committed-baseline gate: fail on any `identical: false` in BENCH_*.json
bench-check-identity:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_regress.py --check-identity

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
