"""Optimal 1D partitioning by dynamic programming (Manne & Olstad [11], §2.2).

``L*max(j, k) = min_{i <= j} max( L*max(i, k-1), P[j] - P[i] )``

For a fixed ``k`` the inner minimizer ``i`` is non-decreasing in ``j`` (the
first term is non-decreasing in ``i``, the second decreasing, so the max is
bimonotonic in ``i``); a two-pointer sweep evaluates each row in O(n),
giving O(m·n) total — the role of the paper's O(m(n-m)) reference optimum.

This is the *test oracle* of the 1D layer: slower than Nicol's algorithm but
straightforwardly correct.  Cut points are recovered by running the greedy
probe at the optimal bottleneck.
"""

from __future__ import annotations

import numpy as np

from .probe import check_m, probe_cuts

__all__ = ["dp_bottleneck", "partition_dp"]


def dp_bottleneck(P: np.ndarray, m: int) -> int:
    """Optimal bottleneck value for partitioning prefix ``P`` into ``m`` intervals."""
    check_m(m)
    n = len(P) - 1
    if n == 0:
        return 0
    # f[j] = optimal bottleneck of prefix cells [0, j) with current k intervals
    f = (P[: n + 1] - P[0]).astype(np.int64).copy()  # k = 1
    for _ in range(2, m + 1):
        g = np.empty_like(f)
        g[0] = 0
        i = 0
        for j in range(1, n + 1):
            # advance i while doing so cannot hurt:
            # max(f[i], P[j]-P[i]) is minimized where the terms cross
            while i < j and max(f[i + 1], int(P[j] - P[i + 1])) <= max(
                f[i], int(P[j] - P[i])
            ):
                i += 1
            g[j] = max(f[i], int(P[j] - P[i]))
        f = g
        if f[n] == 0:
            break
    return int(f[n])


def partition_dp(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Optimal 1D partition ``(bottleneck, cuts)`` via dynamic programming."""
    B = dp_bottleneck(P, m)
    cuts = probe_cuts(P, m, B)
    assert cuts is not None, "optimal bottleneck must be probe-feasible"
    return B, cuts
