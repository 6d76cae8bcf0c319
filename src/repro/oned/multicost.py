"""Exact 1D partitioning under *striped* interval costs (for RECT-NICOL).

RECT-NICOL (paper §3.1) repeatedly solves a one-dimensional problem in which
"the load of an interval … is the maximum of the load of the interval inside
each stripe of the fixed dimension".  Given ``S`` stripes this module
partitions ``[0, n)`` into ``m`` intervals minimizing::

    max_intervals  max_s  ( M[s, j] - M[s, i] )

where ``M`` stacks the per-stripe prefix arrays (shape ``(S, n+1)``).

The greedy probe generalizes directly: from boundary ``i`` the furthest
reachable boundary at bottleneck ``B`` is ``min_s`` of the per-stripe
furthest boundaries.  Every walk is the ``probe_multi`` kernel
(:mod:`repro.perf.kernels`), which returns ``(feasible, bound, cuts)``:

* a feasible walk's ``bound`` is the realised bottleneck of its cuts, and
  every ``B'`` in ``[bound, B]`` walks the same cuts — a new upper bound;
* an infeasible walk's ``bound`` is its cheapest one-boundary step
  extension; every ``B' < bound`` walks the same steps and fails — a new
  lower bound.

:func:`multi_bottleneck` narrows the bracket on both sides with these
bounds, and :func:`partition_multi` takes its cuts from the last feasible
walk, whose cuts are the greedy cuts at the optimum.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..perf import kernels as _kernels

__all__ = ["probe_multi", "multi_bottleneck", "partition_multi", "multi_cuts"]


def _check_m(m: int) -> None:
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")


def probe_multi(M, m: int, B: int) -> bool:
    """Can ``[0, n)`` be cut into ``<= m`` intervals of striped cost ``<= B``?"""
    return _kernels.probe_multi(M, m, B)[0]


def multi_cuts(M, m: int, B: int) -> np.ndarray | None:
    """Greedy cuts realizing striped bottleneck ``B`` (None if infeasible)."""
    _check_m(m)
    ok, _, cuts = _kernels.probe_multi(M, m, B)
    return np.array(cuts, dtype=np.int64) if ok else None


def _solve(M, m: int, ub: int | None) -> tuple[int, list[int]]:
    """``(optimal bottleneck, greedy cuts at it)`` of the striped problem."""
    _check_m(m)
    M = np.ascontiguousarray(M, dtype=np.int64)
    n = M.shape[1] - 1
    if n == 0 or M.shape[0] == 0:
        return 0, [0] + [n] * m
    # any interval covering boundary step b costs at least max_s cell[s, b]
    max_step = int(np.diff(M, axis=1).max())
    heaviest = int(M[:, -1].max())
    lb = max(max_step, -(-heaviest // m))
    # the single-array DirectCut bound does not transfer to striped costs
    # (different intervals may be bottlenecked by different stripes), so the
    # first probe is the heaviest-stripe guess, or the caller's hint
    guess = max(lb, heaviest // m + max_step) if ub is None else max(lb, int(ub))
    # one interval of cost `heaviest` covers everything: the bracket
    # [lb, hi] always holds the optimum, and every walk narrows it
    hi, cuts = heaviest, [0] + [n] * m
    B = guess if guess < hi else (lb + hi) // 2
    while lb < hi:
        ok, bound, walk = _kernels.probe_multi(M, m, B)
        if ok:
            hi, cuts = bound, walk
        else:
            lb = bound
        B = (lb + hi) // 2
    return lb, cuts


def multi_bottleneck(M, m: int, *, ub: int | None = None) -> int:
    """Optimal striped bottleneck.

    ``ub`` is an optional first probe point (e.g. a bottleneck some known
    partition achieves).  It is only ever probed, never trusted, so a wrong
    hint costs extra probes at most — the returned optimum is identical
    for any hint.
    """
    return _solve(M, m, ub)[0]


def partition_multi(M, m: int, *, ub: int | None = None) -> tuple[int, np.ndarray]:
    """Optimal striped 1D partition ``(bottleneck, cuts)``.

    ``ub`` is forwarded to :func:`multi_bottleneck` (a probed hint; the
    result is identical with or without it).
    """
    B, cuts = _solve(M, m, ub)
    return B, np.array(cuts, dtype=np.int64)
