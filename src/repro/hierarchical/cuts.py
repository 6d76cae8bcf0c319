"""Cut-selection helpers shared by the hierarchical algorithms (§3.3).

Both are thin dispatchers into the kernel registry
(:mod:`repro.perf.kernels`, selected by ``REPRO_PERF_BACKEND``), working on
a window of an un-rebased axis projection.

:func:`best_weighted_cut_win` is exact: the balance-point search uses
integer floor targets and candidate scores are exact Python ints scaled by
the weight product, so HIER-RB cut decisions are bit-stable at any load
magnitude.

:func:`best_relaxed_split_win` scores all ``m - 1`` processor splits with
float arithmetic.  The relaxed node score is an *estimate* by construction
(average loads stand in for recursive values, §3.3), near ties are handled
explicitly, and the final partition loads stay exact int64 — so the float
scoring is a documented RPL003 exemption rather than a violation (see
``docs/lint.md``).
"""

from __future__ import annotations

import numpy as np

from ..perf.kernels import relaxed_split_win, weighted_cut_win

__all__ = ["best_weighted_cut_win", "best_relaxed_split_win"]


def best_weighted_cut_win(
    p: np.ndarray, j0: int, j1: int, orientations: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int] | None:
    """Cut of window ``[j0, j1]`` minimizing ``max(L1/w1, L2/w2)`` over orientations.

    Operates directly on the *un-rebased* memoized axis projection ``p``
    restricted to window ``[j0, j1]`` — the rebased band prefix is
    ``p[j0:j1+1] - p[j0]``, and shifting every comparison by the constant
    ``base = p[j0]`` leaves the integer searchsorted and the integer scores
    unchanged, so no per-node band allocation is needed.  All orientations
    ``(w1, w2)`` share the window, total and search bounds; the first
    orientation attaining the minimum wins, matching the sequential
    first-occurrence rule of the chooser loop.  Returns
    ``(cut_rel, value · w1·w2, w1, w2)`` or None.

    Dispatches to the ``weighted_cut`` registry kernel
    (:mod:`repro.perf.kernels`, ``REPRO_PERF_BACKEND``); every backend is
    exact-int: scores are ``max(L1·w2, L2·w1)``, which within one recursion
    node (every candidate shares ``w1·w2``) orders exactly like the
    ``Fraction`` scores ``max(L1/w1, L2/w2)``.
    """
    return weighted_cut_win(p, j0, j1, orientations)


def best_relaxed_split_win(
    p: np.ndarray, j0: int, j1: int, m: int
) -> tuple[int, int, float] | None:
    """Jointly optimal ``(cut, j, value)`` over all processor splits of a window.

    Implements the HIER-RELAXED node rule (paper §3.3): minimize
    ``max(L1/j, L2/(m-j))`` over the cut position *and* the processor split
    ``j ∈ [1, m-1]``.  For fixed ``j`` the optimal cut straddles the balance
    point ``total·j/m``, so one ``searchsorted`` over all ``m-1`` targets
    finds every candidate at once.  Returns None when the window has fewer
    than 2 cells or ``m < 2``.

    Same shifting argument as :func:`best_weighted_cut_win`: the rebased
    band is ``p[j0:j1+1] - base``, integer searchsorted targets shift by
    ``base`` exactly, and the float scores are computed from the *same*
    integers (``l1 = view[cut] - base``), so the chosen ``(cut, j, value)``
    is bit-identical to rebasing first — without the per-node band copy.

    Dispatches to the ``relaxed_split`` registry kernel
    (:mod:`repro.perf.kernels`, ``REPRO_PERF_BACKEND``): an m == 2 scalar
    fast path, a scalar path below ``SCALAR_MAX_M`` splits and the
    vectorized candidate sweep above it — all scoring the same integers
    with the same float arithmetic, so the chosen ``(cut, j, value)`` is
    backend-independent.
    """
    return relaxed_split_win(p, j0, j1, m)
