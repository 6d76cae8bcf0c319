# Targets for the steps of .github/workflows/ci.yml.  `make check` runs
# the steps of its `lint` and `check` jobs (the other jobs have one target
# each).  ruff and mypy are optional (the `dev` extra); when absent they are
# skipped with a notice rather than failing the whole gate, so `make check`
# works in minimal containers.

PYTHON ?= python

.PHONY: check lint ruff mypy test test-reference partition-smoke examples-smoke sparse-smoke figures figures-check figures-smoke sweep-store-smoke bench-e2e-smoke bench-e2e

check: ruff mypy lint test test-reference partition-smoke examples-smoke sparse-smoke
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

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# the solver suite again with every kernel's numpy slot holding its scalar
# reference oracle for the whole session (the tests/reference_kernels.py
# plugin; CI's "solver suite on the reference kernels" step)
test-reference:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -p tests.reference_kernels \
		tests/test_multicost.py tests/test_rectilinear.py tests/test_rect_opt.py \
		tests/test_jagged_heur.py tests/test_jagged_opt.py tests/test_hierarchical.py \
		tests/test_sparse_equality.py tests/test_jagged_lmax.py \
		tests/test_transpose.py tests/test_metamorphic.py \
		tests/test_oned_optimal.py tests/test_oned_engine.py \
		tests/test_partition_pins.py

# CI smoke of the partition file round trip: each of the six heuristics
# partitions a small .npy at m = 64 through the CLI into .json and .npz;
# both files must reload (load_partition) to the in-process partition's
# coordinates and shape, and validate
PARTITION_SMOKE = /tmp/repro-partition-smoke
HEURISTICS = RECT-UNIFORM RECT-NICOL JAG-PQ-HEUR JAG-M-HEUR HIER-RB HIER-RELAXED
PART_OK = PYTHONPATH=src $(PYTHON) -c "import sys, numpy as np; \
	from repro import partition_2d; from repro.core.serialize import load_partition; \
	d, meth = sys.argv[1:]; A = np.load(d + '/A.npy'); want = partition_2d(A, 64, meth); \
	got = [load_partition(f'{d}/{meth}.{ext}') for ext in ('json', 'npz')]; \
	assert all(np.array_equal(p.coords(), want.coords()) and p.shape == want.shape for p in got), meth; \
	[p.validate() for p in got]"
partition-smoke:
	rm -rf $(PARTITION_SMOKE) && mkdir -p $(PARTITION_SMOKE)
	$(PYTHON) -c "import numpy as np; \
		np.save('$(PARTITION_SMOKE)/A.npy', np.random.default_rng(0).integers(0, 100, (48, 40)))"
	set -e; for meth in $(HEURISTICS); do \
		for ext in json npz; do \
			PYTHONPATH=src $(PYTHON) -m repro.cli $(PARTITION_SMOKE)/A.npy -m 64 \
				--method $$meth --out $(PARTITION_SMOKE)/$$meth.$$ext; \
		done; \
		$(PART_OK) $(PARTITION_SMOKE) $$meth; \
	done
	@echo "partition-smoke: six heuristics round-trip through .json and .npz"

# every examples/*.py must run to completion: an API change that breaks one
# fails here instead of leaving the example to rot (~30 s)
examples-smoke:
	set -e; for f in examples/*.py; do \
		echo "examples-smoke: $$f"; \
		PYTHONPATH=src $(PYTHON) $$f > /dev/null; \
	done
	@echo "examples-smoke: every example exits 0"

# CSR at the benchmark's scale: the three 4096² sparse_large instances
# (R-MAT, mesh, SLAC), each solved by the six heuristics at m = 256 on the
# CSR and the dense substrate; the rectangles must be identical (~2 s,
# ~340 MB peak RSS)
define SPARSE_SMOKE
import gc
import numpy as np
from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.core.sparse import SparsePrefix2D
from repro.instances import slac_instance
from repro.instances.spmv import spmv_instance
makers = {
    "rmat": lambda: spmv_instance(4096, model="rmat", scale=14, edge_factor=8, seed=0),
    "mesh": lambda: spmv_instance(4096, model="mesh", mesh_size=512),
    "slac": lambda: slac_instance(4096),
}
for name, make in makers.items():
    A = make()
    csr, dense = SparsePrefix2D(A), PrefixSum2D(A)
    del A
    for meth in "$(HEURISTICS)".split():
        got, want = partition_2d(csr, 256, meth), partition_2d(dense, 256, meth)
        assert np.array_equal(got.coords(), want.coords()), (name, meth)
    print(f"sparse-smoke: {name} nnz={csr.nnz} six heuristics identical")
    del csr, dense
    gc.collect()
endef
export SPARSE_SMOKE
sparse-smoke:
	PYTHONPATH=src $(PYTHON) -c "$$SPARSE_SMOKE"

# regenerate every figure/extension through the committed raw/ store:
# unchanged cells are cache hits, only what changed is recomputed, and a
# killed run resumes where it left off.  Delete raw/ (or add --force) for
# a cold rebuild.
figures:
	PYTHONPATH=src $(PYTHON) -m repro.experiments --all --raw-dir raw --out benchmarks/results

# CI check that the committed figure CSVs are what the code computes now
# (tests/test_paper_claims.py checks the paper's claims on them): a cold
# small-profile run with no raw store must reproduce every committed
# benchmarks/results/*.csv byte for byte, fig06 (wall-clock timings) aside;
# then `make figures` through the committed raw/ store must leave raw/ and
# benchmarks/results/ untouched.  Set REPRO_CACHE to a filled instance cache
# to skip the PIC-MAG snapshot generation (minutes)
FIGURES_CHECK = /tmp/repro-figures-check
figures-check:
	rm -rf $(FIGURES_CHECK) && mkdir -p $(FIGURES_CHECK)
	PYTHONPATH=src $(PYTHON) -m repro.experiments --all --scale small \
		--out $(FIGURES_CHECK)/cold > /dev/null
	set -e; for f in benchmarks/results/*.csv; do \
		[ "$$(basename $$f)" = fig06.csv ] || cmp $$f $(FIGURES_CHECK)/cold/$$(basename $$f); \
	done
	$(MAKE) --no-print-directory figures > /dev/null 2> $(FIGURES_CHECK)/figures.log
	! grep 'raw-store' $(FIGURES_CHECK)/figures.log | grep -v ' misses=0 invalid=0'
	git status --porcelain -- raw benchmarks/results | tee $(FIGURES_CHECK)/dirty
	test ! -s $(FIGURES_CHECK)/dirty
	@echo "figures-check: committed CSVs reproduce cold, make figures all hits and clean"

# CI smoke of the figure farm: fig03 (the seeded grid), fig05 (one
# instance) and fig07 (one PIC-MAG snapshot, read on demand from the
# instance cache) twice against one raw store -- the second run must be all
# cache hits and its CSVs byte-identical.  The raw store is left in
# $(FIGURES_SMOKE)/raw
FIGURES_SMOKE = /tmp/repro-figures-smoke
EXPERIMENTS = PYTHONPATH=src $(PYTHON) -m repro.experiments --scale tiny
figures-smoke:
	rm -rf $(FIGURES_SMOKE) && mkdir -p $(FIGURES_SMOKE)
	$(EXPERIMENTS) --figures fig03 fig05 fig07 --raw-dir $(FIGURES_SMOKE)/raw \
		--out $(FIGURES_SMOKE)/cold 2> $(FIGURES_SMOKE)/cold.log
	$(EXPERIMENTS) --figures fig03 fig05 fig07 --raw-dir $(FIGURES_SMOKE)/raw \
		--out $(FIGURES_SMOKE)/warm 2> $(FIGURES_SMOKE)/warm.log
	cat $(FIGURES_SMOKE)/warm.log
	set -e; for f in fig03 fig05 fig07; do \
		grep -q "raw-store $$f: hits=[1-9][0-9]* misses=0 invalid=0" $(FIGURES_SMOKE)/warm.log; \
		cmp $(FIGURES_SMOKE)/cold/$$f.csv $(FIGURES_SMOKE)/warm/$$f.csv; \
	done
	@echo "figures-smoke: fig03, fig05 and fig07 warm reruns all hits, byte-identical"

# CI smoke of the sweep fact store: a WarmStarted(EveryK(1)) JAG-M-OPT
# stream over the tiny-profile PIC-MAG snapshots runs cold into a store,
# warm from it (twice), with no store, and again after the file was
# garbled.  The five SimulationReports must be equal; after each run the
# store must be trusted and version 4, only the warm runs may seed from
# it, and the second warm run, which adds no fact, must leave the file's
# bytes, inode and mtime as they were.
# argv: store path ('' = no store), report file, expected seeding (0/1)
SWEEP_SMOKE = /tmp/repro-sweep-store-smoke
define WARM_STREAM
import json, sys
from repro import partition_2d
from repro.dynamic import EveryK, WarmStarted
from repro.experiments.scale import get_scale
from repro.instances.pic import PICMagDataset
from repro.runtime import BSPSimulator
from repro.sweep import SweepStore
path, out, seeds = sys.argv[1:]
sc = get_scale("tiny")
ds = PICMagDataset(sc.pic, period=sc.pic_period, max_iteration=sc.pic_max_iteration, cache=False)
store = SweepStore(path) if path else None
sim = BSPSimulator(
    sc.m_cap_m_opt,
    lambda pref, m: partition_2d(pref, m, "JAG-M-OPT"),
    policy=WarmStarted(EveryK(1), store=store),
)
rep = sim.run(ds.snapshots(), steps_per_snapshot=sc.pic_period)
open(out, "w").write(repr(rep) + "\n")
if store is not None:
    print(f"sweep-store-smoke: {path} seeded={store.seeded}")
    assert (store.seeded > 0) == (seeds == "1"), store.seeded
    disk = SweepStore(path)
    disk.load()
    assert disk.ignored_reason is None, disk.ignored_reason
    assert json.loads(open(path, "rb").readline())["version"] == 4
endef
export WARM_STREAM
WARM_RUN = PYTHONPATH=src $(PYTHON) -c "$$WARM_STREAM"
sweep-store-smoke:
	rm -rf $(SWEEP_SMOKE) && mkdir -p $(SWEEP_SMOKE)
	$(WARM_RUN) $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/cold.txt 0
	$(WARM_RUN) $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/warm.txt 1
	cp $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/S.before
	stat -c '%i %y' $(SWEEP_SMOKE)/S.json > $(SWEEP_SMOKE)/stat.before
	$(WARM_RUN) $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/warm2.txt 1
	stat -c '%i %y' $(SWEEP_SMOKE)/S.json | cmp - $(SWEEP_SMOKE)/stat.before
	cmp $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/S.before
	$(WARM_RUN) '' $(SWEEP_SMOKE)/none.txt 0
	printf 'garbage{' > $(SWEEP_SMOKE)/S.json
	$(WARM_RUN) $(SWEEP_SMOKE)/S.json $(SWEEP_SMOKE)/healed.txt 0
	cmp $(SWEEP_SMOKE)/cold.txt $(SWEEP_SMOKE)/warm.txt
	cmp $(SWEEP_SMOKE)/cold.txt $(SWEEP_SMOKE)/warm2.txt
	cmp $(SWEEP_SMOKE)/cold.txt $(SWEEP_SMOKE)/none.txt
	cmp $(SWEEP_SMOKE)/cold.txt $(SWEEP_SMOKE)/healed.txt
	@echo "sweep-store-smoke: warm, storeless and healed reports equal; a warm run adding nothing left the file untouched"

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
