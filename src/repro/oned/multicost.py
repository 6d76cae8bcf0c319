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

An unhinted solve walks at the heaviest-stripe guess, then bisects.  A
hinted one (``ub``; RECT-NICOL passes its incumbent bottleneck) walks at
the hint and gallops down: after each feasible walk it probes ``gap``
below the new upper end, ``gap`` doubling from ``hi // 128``, and the
first infeasible walk hands over to bisection.  Nearby walks share long
path prefixes, and every walk of one solve reads and extends one step
memo of cost windows (see :func:`repro.perf.kernels.probe_multi`), so a
shared step costs one ``searchsorted``.  Neither changes the optimum or
the cuts.

Every entry point checks ``M`` the same way: exact non-negative int64
entries, rows starting at 0 and non-decreasing; a 1D prefix is one stripe.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.prefix import _as_int64
from ..perf import kernels as _kernels
from .probe import check_m

__all__ = ["probe_multi", "multi_bottleneck", "partition_multi", "multi_cuts"]

#: a hinted solve's first gallop step is its first feasible bound over
#: this; the step doubles after every further feasible walk.  The sweep
#: is in docs/performance.md ("RECT-NICOL gallop and step memo")
_GALLOP_DIV = 128


def _stripes(M) -> tuple[np.ndarray, np.ndarray]:
    """``M`` as an exact ``(S, n+1)`` int64 prefix stack, and its steps.

    A 1D prefix is one stripe.  Entries must be exact non-negative
    integers that fit in int64, every row must start at 0 and never
    decrease (a decreasing step would be a negative load); anything else
    is a ``ParameterError``.
    """
    arr = _as_int64(np.asarray(M), "stripe prefix")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ParameterError("stripe prefix must be a 1D prefix or an (S, n+1) stack")
    if arr[:, 0].any():
        raise ParameterError("stripe prefix rows must start at 0")
    steps = np.diff(arr, axis=1)
    if steps.size and steps.min() < 0:
        raise ParameterError("stripe prefix rows must be non-decreasing")
    return arr, steps


def probe_multi(M, m: int, B: int) -> bool:
    """Can ``[0, n)`` be cut into ``<= m`` intervals of striped cost ``<= B``?"""
    return _kernels.probe_multi(_stripes(M)[0], m, B)[0]


def multi_cuts(M, m: int, B: int) -> np.ndarray | None:
    """Greedy cuts realizing striped bottleneck ``B`` (None if infeasible)."""
    check_m(m)
    ok, _, cuts = _kernels.probe_multi(_stripes(M)[0], m, B)
    return np.array(cuts, dtype=np.int64) if ok else None


def _solve(M, m: int, ub: int | None) -> tuple[int, list[int]]:
    """``(optimal bottleneck, greedy cuts at it)`` of the striped problem."""
    check_m(m)
    M, steps = _stripes(M)
    n = M.shape[1] - 1
    if n == 0 or M.shape[0] == 0:
        return 0, [0] + [n] * m
    # any interval covering boundary step b costs at least max_s cell[s, b]
    max_step = int(steps.max())
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
    # a hinted solve gallops down from its hint — each feasible walk probes
    # `gap` below its bound, `gap` doubling — until the first infeasible
    # walk; from there (and throughout an unhinted solve) it bisects
    gallop, gap = ub is not None, 0
    memo: _kernels.StepMemo = {}
    while lb < hi:
        ok, bound, walk = _kernels.probe_multi(M, m, B, memo)
        if ok:
            hi, cuts = bound, walk
        else:
            lb, gallop = bound, False
        if gallop:
            gap = 2 * gap if gap else max(hi // _GALLOP_DIV, 1)
            B = max(lb, hi - gap)
        else:
            B = (lb + hi) // 2
    return lb, cuts


def multi_bottleneck(M, m: int, *, ub: int | None = None) -> int:
    """Optimal striped bottleneck.

    ``ub`` is an optional hint (e.g. a bottleneck some known partition
    achieves): the solve probes it first and gallops down from it.  It is
    only ever probed, never trusted, so a wrong hint costs extra probes at
    most — the returned optimum is identical for any hint.
    """
    return _solve(M, m, ub)[0]


def partition_multi(M, m: int, *, ub: int | None = None) -> tuple[int, np.ndarray]:
    """Optimal striped 1D partition ``(bottleneck, cuts)``.

    ``ub`` is a probed hint as in :func:`multi_bottleneck`; the result is
    identical with or without it.
    """
    B, cuts = _solve(M, m, ub)
    return B, np.array(cuts, dtype=np.int64)
