"""Ablation: the 1D partitioning layer.

* Exact algorithms head-to-head (Nicol vs NicolPlus vs the two-sided
  bisection engine vs the Manne–Olstad DP) — quantifies the paper's claim
  that bounding techniques yield large speedups ([8], §2.2).  Nicol and
  NicolPlus are the §2.2 baselines; ``bisect`` is the engine every 2D
  algorithm calls for its optimal 1D solves.
* Probe implementations: plain binary search vs the Han et al. slicing
  technique.
* Heuristics for context (DirectCut, refined DC, recursive bisection).
"""

import numpy as np
import pytest

from repro.oned import (
    bisect_bottleneck,
    direct_cut,
    direct_cut_refined,
    dp_bottleneck,
    nicol_bottleneck,
    nicol_plus_bottleneck,
    probe,
    probe_sliced,
    recursive_bisection,
)

N = 20_000
M = 256


@pytest.fixture(scope="module")
def big_prefix():
    vals = np.random.default_rng(0).integers(1, 1000, N)
    P = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(vals, out=P[1:])
    return P


@pytest.mark.parametrize(
    "algo",
    [nicol_bottleneck, nicol_plus_bottleneck, bisect_bottleneck],
    ids=["nicol", "nicolplus", "bisect"],
)
def test_exact_1d(benchmark, big_prefix, algo):
    benchmark(algo, big_prefix, M)


def test_exact_1d_dp(benchmark, big_prefix):
    """The DP oracle on a smaller slice (O(n·m) would take minutes at N)."""
    benchmark.pedantic(
        dp_bottleneck, args=(big_prefix[:2001].copy(), 32), rounds=1, iterations=2
    )


@pytest.mark.parametrize(
    "heur",
    [direct_cut, direct_cut_refined, recursive_bisection],
    ids=["directcut", "dc-refined", "recursive-bisection"],
)
def test_heuristic_1d(benchmark, big_prefix, heur):
    benchmark(heur, big_prefix, M)


@pytest.mark.parametrize("impl", [probe, probe_sliced], ids=["probe", "probe-sliced"])
def test_probe_impls(benchmark, big_prefix, impl):
    total = int(big_prefix[-1])
    B = total // M + 1000  # feasible: full greedy walk
    assert impl(big_prefix, M, B)
    benchmark(impl, big_prefix, M, B)
