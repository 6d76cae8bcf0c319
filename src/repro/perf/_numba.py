"""Optional compiled kernel backend (the ``pip install .[perf]`` extra).

Importing this module requires numba; :mod:`repro.perf.kernels` imports it
lazily inside :func:`~repro.perf.kernels.kernel` and degrades to the numpy
backend when the import fails, so the package works identically without the
extra installed.

Only the pure-int64 loop kernels have compiled forms (``probe_batch``,
``min_parts``, ``probe_cuts``).  The scoring/allocation kernels
(``weighted_cut``, ``relaxed_split``, ``alloc_tail``) are excluded on
purpose: their contracts promise exact arithmetic at any load magnitude
(cross-multiplied Python ints / ``Fraction``), which nopython int64
arithmetic cannot provide.  ``probe_multi`` has none either: its windowed
walk is vectorized numpy on every backend but ``reference``.

Every compiled core is a direct transliteration of the scalar reference in
:mod:`repro.perf.kernels` — manual binary search, clamped targets (no int64
overflow at loads near ``2**62``) — and the wrappers return bit-identical
results; ``tests/test_kernels_equality.py`` compares this backend against
the reference whenever numba is importable.  ``@njit`` compiles lazily at
first call, so importing this module is cheap.
"""

from __future__ import annotations

import numpy as np
from numba import njit  # ImportError here is the availability gate

from .counters import _STACK as _OPS
from .counters import bump

__all__ = ["probe_batch", "min_parts_batch", "probe_cuts"]


@njit(cache=True)
def _bsearch_right(arr: np.ndarray, target: int, lo: int, hi: int) -> int:
    """``bisect_right(arr, target, lo, hi + 1) - 1`` on an int64 array."""
    a = lo
    b = hi + 1
    while a < b:
        mid = (a + b) // 2
        if arr[mid] <= target:
            a = mid + 1
        else:
            b = mid
    return a - 1


@njit(cache=True)
def _probe_batch_core(
    arr: np.ndarray, m: int, B: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    K = B.shape[0]
    out = np.zeros(K, dtype=np.bool_)
    for k in range(K):
        b = B[k]
        if b < 0:
            continue
        pos = lo
        dead = False
        i = 0
        while i < m and pos < hi and not dead:
            rem = arr[hi] - arr[pos]
            step = b if b < rem else rem  # clamped target: stays in int64
            nxt = _bsearch_right(arr, arr[pos] + step, pos, hi)
            if nxt <= pos:  # single cell exceeds B
                dead = True
            else:
                pos = nxt
            i += 1
        out[k] = (not dead) and pos >= hi
    return out


def probe_batch(
    P: np.ndarray, m: int, Bs: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Compiled twin of the ``probe_batch`` kernel (per-candidate greedy)."""
    arr = np.ascontiguousarray(P, dtype=np.int64)
    B = np.ascontiguousarray(np.atleast_1d(np.asarray(Bs, dtype=np.int64)))
    if hi is None:
        hi = arr.shape[0] - 1
    out = _probe_batch_core(arr, int(m), B, int(lo), int(hi))
    if _OPS:
        bump("probe_batch_calls")
    return out


@njit(cache=True)
def _min_parts_core(
    arr: np.ndarray, B: int, lo: int, hi: int, limit: int
) -> tuple[int, int, bool]:
    """Returns ``(result, steps_walked, infeasible_single_cell)``."""
    pos = lo
    parts = 0
    while pos < hi:
        if parts >= limit:
            return limit + 1, parts, False
        rem = arr[hi] - arr[pos]
        step = B if B < rem else rem
        nxt = _bsearch_right(arr, arr[pos] + step, pos, hi)
        if nxt <= pos:
            return limit + 1, parts, True
        pos = nxt
        parts += 1
    return parts, parts, False


def min_parts_batch(
    P: np.ndarray,
    B: int,
    lo: int = 0,
    hi: int | None = None,
    cap: int | None = None,
) -> int:
    """Compiled twin of the ``min_parts`` kernel (same contract)."""
    arr = np.ascontiguousarray(P, dtype=np.int64)
    if hi is None:
        hi = arr.shape[0] - 1
    limit = cap if cap is not None else (hi - lo) + 1
    if B < 0:
        if cap is None:
            raise ValueError(f"single cell exceeds bottleneck {B}")
        return limit + 1
    # prefix is nondecreasing, so a degenerate window clamps to span 0
    span = max(int(arr[hi]) - int(arr[lo]), 0)
    if B > span:
        B = span  # any B covering the whole window walks the same; stays in int64
    result, steps, infeasible = _min_parts_core(arr, int(B), int(lo), int(hi), int(limit))
    if infeasible and cap is None:
        raise ValueError(f"single cell exceeds bottleneck {B}")
    if _OPS:
        bump("probe_calls")
        bump("probe_steps", steps)
    return int(result)


@njit(cache=True)
def _probe_cuts_core(
    arr: np.ndarray, m: int, B: int, lo: int, hi: int, cuts: np.ndarray
) -> bool:
    pos = lo
    cuts[0] = lo
    for p in range(1, m + 1):
        if pos < hi:
            rem = arr[hi] - arr[pos]
            step = B if B < rem else rem
            nxt = _bsearch_right(arr, arr[pos] + step, pos, hi)
            if nxt <= pos:
                return False
            pos = nxt
        cuts[p] = pos
    if pos < hi:
        return False
    cuts[m] = hi
    return True


def probe_cuts(
    P: np.ndarray | list[int], m: int, B: int, lo: int = 0, hi: int | None = None
) -> np.ndarray | None:
    """Compiled twin of the ``probe_cuts`` kernel (greedy cut points)."""
    arr = np.ascontiguousarray(P, dtype=np.int64)
    if hi is None:
        hi = arr.shape[0] - 1
    if B < 0:
        return None
    cuts = np.empty(m + 1, dtype=np.int64)
    if not _probe_cuts_core(arr, int(m), int(B), int(lo), int(hi), cuts):
        return None
    return cuts
