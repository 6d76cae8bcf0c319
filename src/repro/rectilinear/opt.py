"""Exact rectilinear partitioning — small-instance oracle (§3.1).

Computing the optimal rectilinear partition is NP-hard [17] and admits no
(2−ε)-approximation unless P=NP [14]; nevertheless, for *small* instances
the optimum is computable by enumerating the ``P-1`` row cuts and solving
each candidate's column side exactly (the striped 1D problem RECT-NICOL
refines against is *optimal* once one dimension is fixed).

Used by the tests to (a) measure how far RECT-NICOL's local refinement
lands from the true rectilinear optimum and (b) verify the class hierarchy
of Figure 1: ``OPT_rectilinear ≥ OPT_{P×Q jagged}`` (every rectilinear
partition is a P×Q jagged partition with aligned stripes).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core.errors import ParameterError, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, prefix_2d
from ..jagged.common import check_pq, choose_pq
from ..oned.multicost import multi_bottleneck, multi_cuts
from .common import build_rectilinear_partition
from .nicol import _stripe_matrix

__all__ = ["rect_opt", "rect_opt_bottleneck"]


def _enumerate(pref, P: int, Q: int, limit: int):
    """Yield ``(bottleneck, row_cuts, col_cuts)`` over all row-cut choices."""
    check_pq(P, Q)
    n1 = pref.n1
    k = min(P, n1) - 1
    from math import comb

    if comb(n1 - 1, k) > limit:
        raise ParameterError(
            f"instance too large for exact rectilinear enumeration "
            f"(C({n1 - 1},{k}) row-cut choices > {limit})"
        )
    for cuts in combinations(range(1, n1), k):
        row_cuts = np.array([0, *cuts, *([n1] * (P - k))], dtype=np.int64)
        M = _stripe_matrix(pref, row_cuts, 0)
        B = multi_bottleneck(M, Q)
        yield B, row_cuts, M


def rect_opt_bottleneck(
    A: MatrixLike, P: int, Q: int, *, limit: int = 200_000
) -> int:
    """Optimal ``P×Q`` rectilinear bottleneck by row-cut enumeration."""
    pref = prefix_2d(A)
    best: int | None = None
    for B, _, _ in _enumerate(pref, P, Q, limit):
        if best is None or B < best:
            best = B
    assert best is not None
    return int(best)


def rect_opt(
    A: MatrixLike,
    m: int,
    P: int | None = None,
    Q: int | None = None,
    *,
    limit: int = 200_000,
) -> Partition:
    """Optimal ``P×Q`` rectilinear partition (small instances only)."""
    m, pref = check_count(m, "m"), prefix_2d(A)
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    best = None  # (B, row_cuts, M)
    for B, row_cuts, M in _enumerate(pref, P, Q, limit):
        if best is None or B < best[0]:
            best = (B, row_cuts, M)
    assert best is not None
    B, row_cuts, M = best
    col_cuts = multi_cuts(M, Q, B)
    assert col_cuts is not None
    return build_rectilinear_partition(pref, row_cuts, col_cuts, method="RECT-OPT")
