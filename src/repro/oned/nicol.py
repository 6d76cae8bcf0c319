"""Nicol's exact 1D partitioning algorithm and its engineered variant.

Paper §2.2: Nicol's algorithm [9] "exploits the property that if the maximum
load is given by the first interval then its load is given by the smallest
interval so that Probe(L({0,…,i})) is true.  Otherwise, the largest interval
so that Probe(L({0,…,i})) is false can safely be allocated to the first
interval."

:func:`nicol` implements this as an iterative sweep: at step ``p`` (first
uncovered boundary ``start``, ``k = m - p`` processors left for the suffix),
a binary search finds the smallest boundary ``e`` such that the suffix
``[e, n)`` fits into ``k`` intervals with bottleneck ``L([start, e))``.  That
load is recorded as a candidate (it is globally feasible), and the largest
failing prefix ``[start, e - 1)`` is committed to processor ``p``.  The
optimum is the minimum recorded candidate.  Unlike integer bisection this is
exact for arbitrary non-negative loads.

:func:`nicol_plus` is in the spirit of NicolPlus (Pınar & Aykanat [8]): the
same search with every binary-search range narrowed by *sound* bounds, so
exactness is preserved:

* boundaries whose first-interval load is below the suffix average
  ``rem/(k+1)`` cannot be probe-feasible (the suffix would exceed ``k``
  parts), which pushes the search window right;
* the first boundary whose load reaches ``ceil(rem/(k+1)) + max_element`` is
  always probe-feasible (DirectCut guarantee on the suffix), which caps the
  window;
* the sweep stops as soon as the incumbent reaches the global lower bound.

The window width is about one ``max_element`` worth of cells, which on
near-uniform instances collapses the search from O(log n) probes to a
handful — the effect measured by ``benchmarks/bench_ablation_oned.py``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .probe import as_boundary_list, check_m, probe, probe_cuts

__all__ = ["nicol", "nicol_plus", "nicol_bottleneck", "nicol_plus_bottleneck"]


def _candidate_search(
    P: np.ndarray, start: int, procs_left: int, lo: int, hi: int
) -> int:
    """Smallest ``e`` in ``[lo, hi]`` whose suffix is feasible at ``L([start, e))``.

    Requires ``hi`` to be feasible (always true for ``hi = n``: empty suffix).
    """
    n = len(P) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        B = int(P[mid] - P[start])
        if probe(P, procs_left, B, lo=mid, hi=n):
            hi = mid
        else:
            lo = mid + 1
    return lo


def nicol_bottleneck(P: np.ndarray, m: int) -> int:
    """Optimal bottleneck via Nicol's rightmost-failing-prefix search."""
    check_m(m)
    n = len(P) - 1
    if n == 0 or int(P[-1]) == 0:
        return 0
    P = as_boundary_list(P)
    best: int | None = None
    start = 0
    for p in range(1, m):
        e = _candidate_search(P, start, m - p, start, n)
        cand = int(P[e] - P[start])
        if best is None or cand < best:
            best = cand
        if best == 0:
            break
        # commit the largest failing prefix [start, e-1) to processor p
        start = max(start, e - 1)
    last = int(P[n] - P[start])
    if best is None or last < best:
        best = last
    return int(best)


def nicol_plus_bottleneck(P: np.ndarray, m: int) -> int:
    """NicolPlus: Nicol's search with sound bound-narrowed binary searches."""
    check_m(m)
    n = len(P) - 1
    if n == 0 or int(P[-1]) == 0:
        return 0
    max_el = int(np.max(np.diff(P)))
    P = as_boundary_list(P)
    total = int(P[-1])
    global_lb = max(-(-total // m), max_el)
    best: int | None = None
    start = 0
    for p in range(1, m):
        k = m - p
        rem = int(P[n] - P[start])
        if rem == 0:
            break
        # lower narrowing: feasible boundaries need L >= ceil(rem / (k+1))
        lb_load = -(-rem // (k + 1))
        lo = bisect_left(P, P[start] + lb_load)
        lo = min(max(lo, start), n)
        # upper narrowing: L >= ceil(rem/(k+1)) + max_el is always feasible
        ub_load = lb_load + max_el
        hi = bisect_left(P, P[start] + ub_load)
        hi = min(max(hi, lo), n)
        e = _candidate_search(P, start, k, lo, hi)
        cand = int(P[e] - P[start])
        if best is None or cand < best:
            best = cand
        if best <= global_lb:
            return int(best)
        start = max(start, e - 1)
    last = int(P[n] - P[start])
    if best is None or last < best:
        best = last
    return int(best)


def nicol(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Optimal 1D partition ``(bottleneck, cuts)`` via Nicol's algorithm."""
    B = nicol_bottleneck(P, m)
    cuts = probe_cuts(P, m, B)
    assert cuts is not None
    return B, cuts


def nicol_plus(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Optimal 1D partition ``(bottleneck, cuts)`` via NicolPlus."""
    B = nicol_plus_bottleneck(P, m)
    cuts = probe_cuts(P, m, B)
    assert cuts is not None
    return B, cuts
