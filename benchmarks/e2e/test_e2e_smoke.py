"""Smoke test of the end-to-end benchmark: every workload at ~5% of its ops.

Run with ``python -m pytest benchmarks/e2e``.  The first run fills the PIC
cache under ``.bench_build/e2e`` (about a minute, once).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())
FRACTION = 0.05


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    """The child environment: no ``REPRO_*`` knob but the instance cache."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE", str(run.CACHE))


def _execute(name: str, *, trace: bool = False, golden: dict = GOLDEN) -> dict:
    return run.execute(
        name, run.DEFAULT_SEED, 0, trace, fraction=FRACTION, golden=golden, probes=1,
        workdir=run.BUILD / "test" / name,
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_and_checks(name):
    res = _execute(name)
    assert res["correct"], res["errors"] + res["golden_errors"]
    assert res["attempted"] > 0 and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())


def test_doctored_golden_value_is_caught():
    wl = WORKLOADS["solve_mix"](run.DEFAULT_SEED, run.BUILD / "test" / "golden", FRACTION)
    wl.setup()
    inst, algo, m = wl.requests[0]
    key = f"{inst}/{algo}/{m}"
    doctored = copy.deepcopy(GOLDEN)
    doctored["solve_mix"][key] += 1
    res = _execute("solve_mix", golden=doctored)
    assert not res["correct"]
    assert any(key in msg for msg in res["golden_errors"])


def _entry_points() -> list:
    from repro.core.prefix import PrefixSum2D
    from repro.core.registry import ALGORITHMS
    from repro.core.sparse import SparsePrefix2D
    from repro.experiments import figures
    from repro.experiments.rawstore import RawStore
    from repro.perf.kernels import KERNELS
    from repro.runtime import simulator
    from repro.sweep.store import SweepStore

    return [
        dict(ALGORITHMS),
        dict(KERNELS),
        PrefixSum2D.__dict__["__init__"],
        SparsePrefix2D.__dict__["__init__"],
        RawStore.__dict__["load"],
        RawStore.__dict__["store"],
        SweepStore.__dict__["load"],
        SweepStore.__dict__["flush"],
        simulator.migration_volume,
        simulator.max_boundary,
        figures.pmap,
        figures.pmap_batched,
    ]


@pytest.mark.parametrize("name", ["solve_mix", "stream_dynamic", "figure_farm"])
def test_traced_run_reports_layers_and_removes_wrappers(name):
    before = _entry_points()
    res = _execute(name, trace=True)
    assert res["correct"], res["errors"] + res["golden_errors"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["top_layers"]
    assert _entry_points() == before


def test_benchmark_json_declares_the_workloads():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_metric_missing_from_benchmark_json_is_caught(monkeypatch):
    monkeypatch.setattr(run, "END_TO_END", {k: v for k, v in run.END_TO_END.items()
                                            if k != "op_p95_ms"})
    res = _execute("solve_mix")
    assert not res["correct"]
    assert any("op_p95_ms" in msg for msg in res["errors"])


def test_refuses_to_run_without_library_sources():
    bare = run.BUILD / "test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "solve_mix", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
