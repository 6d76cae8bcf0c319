"""Shared machinery for the benchmark suite.

Every ``bench_figNN`` module regenerates one evaluation figure of the paper:
it runs the corresponding experiment (workload generation, parameter sweep,
baselines) under pytest-benchmark, prints the same series the paper plots,
and writes a CSV under ``benchmarks/results/``.

Scale profile: set ``REPRO_SCALE=paper`` for the paper's instance sizes
(slow); the default ``small`` profile preserves the qualitative shapes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.harness import FigureResult
from repro.experiments.scale import current_scale

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for figure cells (CSVs are byte-identical for any N)",
    )


@pytest.fixture(scope="session", autouse=True)
def _cell_jobs(request):
    """Mirror of ``repro-experiments --jobs``: one cell pool for the run."""
    from repro.experiments.pool import cell_pool

    with cell_pool(request.config.getoption("--jobs")):
        yield


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def run_figure(benchmark, fig_fn, scale, results_dir) -> FigureResult:
    """Run one figure reproduction exactly once under the benchmark timer,
    print its table, and persist the CSV."""
    result = benchmark.pedantic(fig_fn, args=(scale,), rounds=1, iterations=1)
    print()
    print(result.to_table())
    result.to_csv(results_dir / f"{result.fig}.csv")
    return result
