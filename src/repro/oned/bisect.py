"""Exact 1D partitioning by integer bisection on the bottleneck value.

Loads are integers throughout the reproduction (cf. DESIGN.md), so the
optimal bottleneck is an integer in ``[LB, UB]`` with

* ``LB = max(ceil(total/m), max element)`` (the lower bounds of §2.1), and
* ``UB = total/m + max element`` (the DirectCut guarantee of §2.2 — the
  paper highlights this bound precisely because it brackets the optimum).

``Probe`` is monotone in ``B``, so a standard bisection yields the optimum in
``O(m log(n) log(max - min))``.  This is not one of the paper's named
algorithms but serves as an independent exact method to cross-check Nicol's
search, and as the inner engine for generalized interval costs
(:mod:`repro.oned.multicost`).

Perf notes (measured; see ``docs/performance.md``): for large prefixes the
O(n) list conversion in front of the scalar probe loop dominates the whole
O(probes · m · log n) search, so the bisection probes the ndarray directly
(:func:`_probe_nd`).  Batched *grid* narrowing via
:func:`~repro.perf.kernels.probe_batch` was measured here too and lost in
every regime — K batched candidates pay K full greedy walks but adaptive
bisection extracts only log2(K) bits from them.  The batch kernel wins when
many candidates are genuinely independent, which is what
:func:`feasible_bottlenecks` exposes.
"""

from __future__ import annotations

import numpy as np

from ..perf.kernels import probe_batch
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump
from ..sweep.state import current as _sweep_current
from .probe import as_boundary_list, probe, probe_cuts

__all__ = ["bisect_bottleneck", "partition_bisect", "feasible_bottlenecks"]

#: cells-per-processor ratio above which the O(n) list conversion costs more
#: than the pricier per-step ndarray ``searchsorted`` of the direct path
_ND_PROBE_RATIO = 512


def _probe_nd(arr: np.ndarray, m: int, B: int, hi: int) -> bool:
    """Scalar probe over an int64 prefix *array* — no list conversion.

    Decision-identical to :func:`repro.oned.probe.probe` on ``[0, hi)``: the
    unrestricted ``searchsorted`` insertion point is ``>= pos + 1`` because
    the target is ``>= arr[pos]``, and clamping to ``hi`` reproduces the
    ``[pos, hi]`` window of the list-based binary search.
    """
    if _OPS:  # counting twin keeps the hot loop free of bookkeeping
        return _probe_nd_counted(arr, m, B, hi)
    if B < 0:
        return False
    pos = 0
    for _ in range(m):
        if pos >= hi:
            return True
        nxt = int(arr.searchsorted(arr[pos] + B, side="right")) - 1
        if nxt > hi:
            nxt = hi
        if nxt <= pos:  # single cell exceeds B
            return False
        pos = nxt
    return pos >= hi


def _probe_nd_counted(arr: np.ndarray, m: int, B: int, hi: int) -> bool:
    """Instrumented twin of :func:`_probe_nd`: same decisions, counted steps."""
    bump("probe_calls")
    if B < 0:
        return False
    pos = 0
    steps = 0
    result = pos >= hi
    for _ in range(m):
        if pos >= hi:
            result = True
            break
        steps += 1
        nxt = int(arr.searchsorted(arr[pos] + B, side="right")) - 1
        if nxt > hi:
            nxt = hi
        if nxt <= pos:
            result = False
            break
        pos = nxt
    else:
        result = pos >= hi
    bump("probe_steps", steps)
    return result


def _bounds(P: np.ndarray, m: int) -> tuple[int, int]:
    total = int(P[-1])
    max_el = int(np.max(np.diff(P))) if len(P) > 1 else 0
    lb = max(-(-total // m), max_el)
    ub = total // m + max_el
    return lb, max(lb, ub)


def bisect_bottleneck(
    P: np.ndarray, m: int, *, lb: int | None = None, ub: int | None = None
) -> int:
    """Optimal bottleneck of an m-way interval partition of prefix ``P``.

    ``lb``/``ub`` are caller-asserted brackets of the optimum (the caller is
    trusted, like the ``ub`` hints of the exact jagged solvers); the result
    is identical for any valid bracket because the probe is monotone in
    ``B``.  Under an active :mod:`repro.sweep` context the bracket is
    additionally tightened from bounds proved by earlier calls on the same
    prefix array, and the computed optimum is recorded for later calls.
    """
    n = len(P) - 1
    if n == 0:
        return 0
    lo, hi = _bounds(P, m)
    if lb is not None and lb > lo:
        lo = int(lb)
    if ub is not None and ub < hi:
        hi = int(ub)
    state = _sweep_current()
    if state is not None:
        exact, wlb, wub = state.bounds(P, "bisect", (m,))
        if exact is not None:
            return exact
        if wlb is not None and wlb > lo:
            lo = wlb
        if wub is not None and wub < hi:
            hi = wub
    lb, ub = lo, max(lo, hi)
    if isinstance(P, np.ndarray) and n >= _ND_PROBE_RATIO * m:
        # large prefix: skip the O(n) list conversion and probe the array
        # in place (each step is a ~0.6 µs method-call searchsorted, but
        # only O(probes · m) of them happen vs n list-element conversions)
        while lb < ub:
            mid = (lb + ub) // 2
            if _probe_nd(P, m, mid, n):
                ub = mid
            else:
                lb = mid + 1
    else:
        # hoist the list conversion out of the probe loop: every iteration
        # probes the same prefix (the conversion is O(n) per call otherwise)
        Pl = as_boundary_list(P)
        while lb < ub:
            mid = (lb + ub) // 2
            if probe(Pl, m, mid):
                ub = mid
            else:
                lb = mid + 1
    if state is not None:
        state.record_opt(P, "bisect", (m,), lb)
    return lb


def feasible_bottlenecks(P: np.ndarray, m: int, Bs) -> np.ndarray:
    """Probe decisions for *many* candidate bottlenecks against one prefix.

    Returns a boolean array with ``out[i] == probe(P, m, Bs[i])``.  The
    candidates are independent, which is exactly the shape the vectorized
    :func:`~repro.perf.kernels.probe_batch` kernel wins at: all candidates
    advance in lockstep through one chained ``searchsorted`` per greedy
    round instead of ``len(Bs)`` separate scalar walks.  Used for
    feasibility curves; the registry's ``reference`` backend runs the
    scalar probe per candidate.
    """
    Bs = np.atleast_1d(np.asarray(Bs, dtype=np.int64))
    return probe_batch(np.asarray(P, dtype=np.int64), m, Bs)


def partition_bisect(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Optimal 1D partition ``(bottleneck, cuts)`` via integer bisection."""
    B = bisect_bottleneck(P, m)
    cuts = probe_cuts(P, m, B)
    assert cuts is not None
    return B, cuts
