"""Ablation: HIER-RELAXED node optimization.

The (cut, j) node optimization is vectorized in this reproduction — for a
fixed processor split the optimal cut straddles the balance point, so one
``searchsorted`` over all m-1 targets evaluates every split (DESIGN.md §6).
This bench compares it against the straightforward per-j loop the complexity
analysis of the paper implies, and measures the effect of the balanced
tie-break on solution quality.
"""

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.hierarchical import hier_rb, hier_relaxed
from repro.instances import multi_peak
from repro.perf.kernels import relaxed_splits


def best_relaxed_split(bp: np.ndarray, m: int):
    """The library's node rule on a whole rebased prefix (a one-window batch)."""
    (found,) = relaxed_splits(bp, np.array([0, len(bp)]), [m])
    return found


def best_relaxed_split_loop(bp: np.ndarray, m: int):
    """Reference per-j loop implementation of the node rule."""
    L = len(bp) - 1
    if L < 2 or m < 2:
        return None
    total = int(bp[-1])
    best = None
    for j in range(1, m):
        target = total * (j / m)
        c = int(np.searchsorted(bp, target, side="right")) - 1
        for cand in (c, c + 1):
            cc = min(max(cand, 1), L - 1)
            l1 = int(bp[cc])
            v = max(l1 / j, (total - l1) / (m - j))
            if best is None or v < best[2]:
                best = (cc, j, v)
    return best


@pytest.fixture(scope="module")
def node_prefix():
    vals = np.random.default_rng(0).integers(1, 1000, 4096)
    bp = np.zeros(4097, dtype=np.int64)
    np.cumsum(vals, out=bp[1:])
    return bp


@pytest.mark.parametrize(
    "impl",
    [best_relaxed_split, best_relaxed_split_loop],
    ids=["vectorized", "per-j-loop"],
)
def test_node_split(benchmark, node_prefix, impl):
    out = benchmark(impl, node_prefix, 1000)
    assert out is not None


def test_split_values_agree(node_prefix):
    for m in (2, 7, 64, 501):
        a = best_relaxed_split(node_prefix, m)
        b = best_relaxed_split_loop(node_prefix, m)
        # same optimal node value (cut/j may differ among ties)
        assert a[2] == pytest.approx(b[2], rel=1e-3)


@pytest.mark.parametrize("algo", [hier_rb, hier_relaxed], ids=["hier-rb", "hier-relaxed"])
def test_hier_end_to_end(benchmark, algo):
    pref = PrefixSum2D(multi_peak(256, seed=0))
    benchmark(algo, pref, 256)
