"""1D partitioning for processors with heterogeneous speeds.

The paper's related work (§1, ref [7]) points at the dual problem of
distributing load over processors of different speeds.  This extension
generalizes the 1D layer: processor ``p`` with relative speed ``s_p``
finishes an interval of load ``L`` in time ``L / s_p``; the objective is to
minimize the *makespan* ``max_p L_p / s_p``.

The Probe generalizes directly — with a time budget ``T``, processor ``p``
greedily takes the largest prefix of load ``<= T·s_p`` — and stays exact.
Because the optimal makespan is no longer an integer, the search bisects on
the integer *bottleneck load of the slowest-constrained interval*; concretely
we bisect on ``T`` over the discrete candidate set ``{load(i,j)/s_p}``
implicitly via floating bisection to machine precision, then rebuild cuts
with the feasibility probe.

Speeds are real-valued by definition, so the makespan objective is
inherently fractional: the whole module is an RPL003 exemption (interval
*loads* remain exact int64 prefix differences throughout; only the
speed-normalized times are floats).  See ``docs/lint.md``.
"""
# repro-lint: disable-file=RPL003 — heterogeneous speeds make times fractional by design

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.errors import ParameterError
from ..core.prefix import PrefixSum1D
from .probe import as_boundary_list

__all__ = ["probe_hetero", "hetero_cuts", "hetero_makespan", "partition_hetero"]


def _check_speeds(speeds) -> np.ndarray:
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 1 or len(speeds) == 0:
        raise ParameterError("speeds must be a non-empty 1D array")
    if (speeds <= 0).any():
        raise ParameterError("speeds must be positive")
    return speeds


def probe_hetero(P, speeds: np.ndarray, T: float) -> bool:
    """Can the array be covered by the given processors within time ``T``?

    Greedy over processors *in the given order*: processor ``p`` takes the
    largest prefix with load ``<= T·s_p``.  For identical speeds this is the
    classical Probe; for distinct speeds the processor order is part of the
    problem statement (the assignment follows the array order).
    """
    Pl = as_boundary_list(P)
    n = len(Pl) - 1
    if T < 0:
        return False
    pos = 0
    for s in speeds:
        if pos >= n:
            return True
        budget = int(np.floor(T * s + 1e-9))
        nxt = bisect_right(Pl, Pl[pos] + budget, pos, n + 1) - 1
        if nxt > pos:
            pos = nxt
    return pos >= n


def hetero_cuts(P, speeds: np.ndarray, T: float) -> np.ndarray | None:
    """Greedy cuts realizing makespan ``T`` (None when infeasible)."""
    Pl = as_boundary_list(P)
    n = len(Pl) - 1
    m = len(speeds)
    cuts = np.empty(m + 1, dtype=np.int64)
    cuts[0] = 0
    pos = 0
    for p, s in enumerate(speeds, start=1):
        if pos < n:
            budget = int(np.floor(T * s + 1e-9))
            nxt = bisect_right(Pl, Pl[pos] + budget, pos, n + 1) - 1
            if nxt > pos:
                pos = nxt
        cuts[p] = pos
    return cuts if pos >= n else None


def hetero_makespan(P, speeds) -> float:
    """Optimal makespan ``max_p load_p / s_p`` for ordered processors.

    Floating bisection on ``T``; the candidate makespans form a finite set
    (interval loads divided by speeds) so the bisection converges to the
    optimum; 100 iterations push the bracket far below the spacing of
    distinct candidates for int64 loads.
    """
    speeds = _check_speeds(speeds)
    P = np.asarray(P)
    total = int(P[-1])
    if total == 0 or len(P) <= 1:
        return 0.0
    max_el = int(np.max(np.diff(P)))
    lo = max(total / speeds.sum(), max_el / speeds.max())
    hi = total / speeds.min() + max_el
    Pl = as_boundary_list(P)
    if probe_hetero(Pl, speeds, lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if probe_hetero(Pl, speeds, mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return hi


def partition_hetero(values, speeds, *, is_prefix: bool = False):
    """Optimal ordered heterogeneous 1D partition ``(makespan, cuts)``.

    ``speeds[p]`` is the relative speed of the processor receiving the
    ``p``-th interval.  Returns the achieved makespan (from the actual cuts,
    hence exact) and the ``m+1`` cut array.
    """
    speeds = _check_speeds(speeds)
    P = PrefixSum1D(values, is_prefix=is_prefix).P  # the 1D boundary checks
    T = hetero_makespan(P, speeds)
    cuts = hetero_cuts(P, speeds, T * (1 + 1e-12) + 1e-9)
    assert cuts is not None
    loads = (P[cuts[1:]] - P[cuts[:-1]]).astype(np.float64)
    return float(np.max(loads / speeds)), cuts
