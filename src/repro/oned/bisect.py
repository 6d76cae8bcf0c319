"""The exact 1D engine: a two-sided integer bisection on the bottleneck value.

Loads are integers (cf. DESIGN.md), so the optimum is an integer in
``[max(ceil(total/m), max element), total//m + max element]`` — the lower
bounds of §2.1 and the DirectCut guarantee of §2.2.  Each probe is a greedy
walk that proves a bound on both sides (the rule ``docs/algorithms.md``
proves for :mod:`repro.oned.multicost`, with one stripe): a feasible walk
returns its realised bottleneck, the new upper end, and an infeasible walk
its cheapest one-step extension, the new lower end.  The search ends on the
realised bottleneck of a walk, so its greedy cuts are ``probe_cuts(P, m,
B*)``.  Every optimal 1D solve of the 2D algorithms runs here; NicolPlus
(:mod:`repro.oned.nicol`) stays the §2.2 baseline.

Above ``_ND_PROBE_RATIO`` cells per part the O(n) list conversion would
dominate the search, so the engine walks the ndarray in place
(:func:`_walk_nd`), with the same decisions as :func:`_walk_list`.  Batched
grid narrowing (many candidate bottlenecks probed in lockstep) lost in every
regime (``docs/performance.md``).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump
from .probe import as_boundary_list, check_m, probe_cuts

__all__ = ["bisect_bottleneck", "partition_bisect"]

#: cells-per-processor ratio above which the O(n) list conversion costs more
#: than the pricier per-step ndarray ``searchsorted`` of the direct path
_ND_PROBE_RATIO = 512


def _walk_list(Pl: list[int], m: int, B: int) -> tuple[bool, int, int]:
    """Greedy walk at ``B >= 0`` over ``n >= 1`` cells: ``(feasible, bound, steps)``.

    ``bound`` is the realised bottleneck of a feasible walk, else the
    cheapest one-step extension of the steps it took.
    """
    n = len(Pl) - 1
    top = Pl[n]
    pos = 0
    bound = 0
    ext = top + 1  # every extension costs at most the total
    for k in range(m):
        base = Pl[pos]
        nxt = bisect_right(Pl, base + B, pos) - 1
        if nxt == n:
            return True, max(bound, top - base), k + 1
        c = Pl[nxt + 1] - base
        if c < ext:
            ext = c
        if nxt == pos:  # single cell exceeds B
            return False, ext, k + 1
        c = Pl[nxt] - base
        if c > bound:
            bound = c
        pos = nxt
    return False, ext, m


def _walk_nd(arr: np.ndarray, m: int, B: int) -> tuple[bool, int, int]:
    """:func:`_walk_list` on an int64 prefix array, with no list conversion.

    The target is clamped to the total: ``arr[pos] + B`` would wrap in int64.
    """
    n = arr.shape[0] - 1
    top = int(arr[n])
    pos = 0
    bound = 0
    ext = top + 1
    for k in range(m):
        base = int(arr[pos])
        nxt = int(arr.searchsorted(min(base + B, top), side="right")) - 1
        if nxt == n:
            return True, max(bound, top - base), k + 1
        c = int(arr[nxt + 1]) - base
        if c < ext:
            ext = c
        if nxt == pos:
            return False, ext, k + 1
        c = int(arr[nxt]) - base
        if c > bound:
            bound = c
        pos = nxt
    return False, ext, m


def _bounds(P, m: int) -> tuple[int, int]:
    total = int(P[-1])
    max_el = int(np.max(np.diff(P), initial=0))
    lb = max(-(-total // m), max_el)
    return lb, max(lb, total // m + max_el)


def _search(P, m: int, lo: int, hi: int) -> tuple[int, list[int] | np.ndarray]:
    """``(B*, boundary form walked)`` for a bracket ``[lo, hi]`` with ``hi`` feasible."""
    if isinstance(P, np.ndarray) and len(P) - 1 >= _ND_PROBE_RATIO * m:
        # large prefix: O(walks · m) ~0.6 µs searchsorted calls cost less
        # than converting n boundaries to a list
        A, walk = P, _walk_nd
    else:
        # one list conversion for every walk (and the caller's cut extraction)
        A, walk = as_boundary_list(P), _walk_list
    while lo < hi:
        ok, bound, steps = walk(A, m, (lo + hi) // 2)
        if _OPS:  # the walks themselves carry no bookkeeping
            bump("probe_calls")
            bump("probe_steps", steps)
        if ok:
            hi = bound
        else:
            lo = bound
    return lo, A


def bisect_bottleneck(P: np.ndarray, m: int) -> int:
    """Optimal bottleneck of an m-way interval partition of prefix ``P``.

    Raises :class:`~repro.core.errors.ParameterError` for ``m < 1``.
    """
    check_m(m)
    if len(P) == 1:
        return 0
    return _search(P, m, *_bounds(P, m))[0]


def partition_bisect(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Optimal 1D partition ``(bottleneck, cuts)`` from the two-sided engine."""
    check_m(m)
    B, A = _search(P, m, *_bounds(P, m))
    cuts = probe_cuts(A, m, B)
    assert cuts is not None
    return B, cuts
