"""The Probe parametric-search subroutine (Han–Narahari–Choi [10], §2.2).

``Probe(B)`` answers: *can the array be partitioned into at most m intervals,
each of load at most B?*  The greedy rule — allocate to each processor the
largest prefix not exceeding B — is optimal for this decision problem, so the
answer is exact.

Implementation notes (see the HPC guides referenced in DESIGN.md): the probe
performs ``m`` *scalar* binary searches with increasing targets.  A scalar
``np.searchsorted`` call costs ~1.5 µs of wrapper overhead, so the hot path
uses :func:`bisect.bisect_right` on a plain Python list (C speed, ~0.1 µs);
callers that probe the same prefix repeatedly should convert it once with
:func:`as_boundary_list` and pass the list.  NumPy arrays are accepted
everywhere and converted on the fly.

:func:`probe_sliced` keeps the original array-slicing technique of [10]
(binary searches confined to ``n/m``-sized slices) for fidelity with the
paper and for the ablation benchmark.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.errors import ParameterError
from ..perf import kernels as _kernels
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump

__all__ = ["probe", "probe_cuts", "probe_sliced", "min_parts", "as_boundary_list", "check_m"]


def check_m(m: int) -> None:
    """Reject a part count below one (every exact 1D method's domain)."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")


def as_boundary_list(P) -> list[int]:
    """Convert a prefix array to the list form used by the probe hot path."""
    if isinstance(P, list):
        return P
    return P.tolist()


def probe(P, m: int, B: int, lo: int = 0, hi: int | None = None) -> bool:
    """Exact decision: can ``[lo, hi)`` be cut into ``<= m`` intervals of load ``<= B``?

    ``P`` is a prefix-sum array or list (``P[0] == 0``); indices refer to
    cell boundaries, so the searched range covers cells ``lo .. hi-1``.
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    if _OPS:  # counting twin: keeps the uncounted loop free of bookkeeping
        return _probe_counted(Pl, m, B, lo, hi)
    if B < 0:
        return False
    pos = lo
    for _ in range(m):
        if pos >= hi:
            return True
        # rightmost boundary nxt in (pos, hi] with P[nxt] <= P[pos] + B
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:  # single cell exceeds B
            return False
        pos = nxt
    return pos >= hi


def _probe_counted(Pl: list, m: int, B: int, lo: int, hi: int) -> bool:
    """Instrumented twin of :func:`probe`: same decisions, counted steps."""
    bump("probe_calls")
    if B < 0:
        return False
    pos = lo
    steps = 0
    result = pos >= hi
    for _ in range(m):
        if pos >= hi:
            result = True
            break
        steps += 1
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:
            result = False
            break
        pos = nxt
    else:
        result = pos >= hi
    bump("probe_steps", steps)
    return result


def probe_cuts(P, m: int, B: int, lo: int = 0, hi: int | None = None) -> np.ndarray | None:
    """Greedy cut points realizing bottleneck ``B``, or None if infeasible.

    Returns an int array of length ``m + 1`` with ``cuts[0] == lo`` and
    ``cuts[m] == hi``; trailing intervals may be empty when fewer than ``m``
    intervals suffice.

    Dispatches to the ``probe_cuts`` kernel (:mod:`repro.perf.kernels`): a
    jump-table walk in the dense-cut regime, backend-selectable via
    ``REPRO_PERF_BACKEND``; the registry's ``reference`` backend is the
    scalar greedy it is pinned against.
    """
    return _kernels.probe_cuts(P, m, B, lo, hi)


def probe_sliced(P, m: int, B: int, lo: int = 0, hi: int | None = None) -> bool:
    """Probe with the slicing technique of Han et al. [10].

    The boundary range is divided into ``m`` slices.  The greedy targets are
    increasing, so the slice holding each next cut is found by walking the
    slice boundaries forward (amortized O(1)), and the binary search runs
    inside a single slice (O(log(n/m))).
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    if B < 0:
        return False
    n = hi - lo
    if n <= 0:
        return True
    slices = np.linspace(lo, hi, m + 1).astype(np.int64).tolist()
    pos = lo
    s = 0
    for _ in range(m):
        if pos >= hi:
            return True
        target = Pl[pos] + B
        # advance to the slice whose last boundary holds a value > target
        while s < m and Pl[slices[s + 1]] <= target:
            s += 1
        s_lo = max(slices[s], pos)
        s_hi = min(slices[s + 1] if s < m else hi, hi)
        nxt = bisect_right(Pl, target, s_lo, s_hi + 1) - 1
        if nxt <= pos:
            return False
        pos = nxt
    return pos >= hi


def min_parts(P, B: int, lo: int = 0, hi: int | None = None, cap: int | None = None) -> int:
    """Minimum number of intervals of load ``<= B`` covering ``[lo, hi)``.

    Returns ``cap + 1`` as soon as more than ``cap`` intervals are needed
    (early abort for branch-and-bound callers), and ``cap + 1`` as well when
    some single cell exceeds ``B`` (infeasible at any count).  With
    ``cap=None`` an infeasible call raises ``ValueError``.
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    limit = cap if cap is not None else (hi - lo) + 1
    pos = lo
    parts = 0
    while pos < hi:
        if parts >= limit:
            return limit + 1
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:
            if cap is None:
                raise ValueError(f"single cell exceeds bottleneck {B}")
            return limit + 1
        pos = nxt
        parts += 1
    return parts
