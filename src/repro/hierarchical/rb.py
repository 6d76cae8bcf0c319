"""HIER-RB: recursive bisection over the load matrix (paper §3.3, ref [21]).

The matrix is cut into two parts of approximately equal load; half the
processors go to each side, recursively.  With an odd processor count one
side receives ``⌊m/2⌋`` and the other ``⌊m/2⌋+1``, and "the cutting point is
selected so that the load per processor is minimized" — both orientations
are evaluated.

Four variants choose the cut dimension (§4.1):

* ``load`` — virtually try both dimensions, keep the best expected balance
  (the Vastenhouw–Bisseling rule [1]); the paper's overall best (§4.2).
* ``dist`` — cut the longer dimension.
* ``hor`` / ``ver`` — alternate dimensions level by level, starting with
  rows / columns.

Runs in ``O(m log max(n1, n2))``: one binary search per tree node.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..core.rectangle import Rect
from ..perf.config import perf_enabled
from ..sweep.state import current as _sweep_current
from .cuts import best_weighted_cut, best_weighted_cut_win
from .tree import grow_tree, tree_to_partition

__all__ = ["hier_rb", "HIER_VARIANTS"]

HIER_VARIANTS = ("load", "dist", "hor", "ver")


def _candidate_dims(variant: str, rect: Rect, depth: int) -> tuple[int, ...]:
    """Cut dimension(s) a variant considers at this node."""
    if variant == "load":
        return (0, 1)
    if variant == "dist":
        return (0,) if rect.height >= rect.width else (1,)
    if variant == "hor":
        return (depth % 2,)
    if variant == "ver":
        return ((depth + 1) % 2,)
    raise ParameterError(f"unknown variant {variant!r}; choose from {HIER_VARIANTS}")


def _band(pref: PrefixSum2D, rect: Rect, dim: int) -> np.ndarray:
    """Rebased prefix along ``dim`` of the sub-rectangle."""
    if dim == 0:
        return pref.band_prefix(0, rect.c0, rect.c1, rect.r0, rect.r1, reuse=True)
    return pref.band_prefix(1, rect.r0, rect.r1, rect.c0, rect.c1, reuse=True)


def _rb_chooser(variant: str):
    def choose(pref: PrefixSum2D, rect: Rect, m: int, depth: int):
        m1, m2 = m // 2, m - m // 2
        orientations = ((m1, m2),) if m1 == m2 else ((m1, m2), (m2, m1))
        # every candidate in this node shares the weight product wl·wr, so
        # the integer-numerator windowed scores order exactly like the
        # Fractions of the reference path
        fast = perf_enabled()
        # the cut decision only depends on the *ratio* m1:m2 — targets use
        # ``(c·a)//(c·b) = a//b`` and scores scale uniformly — so the fast
        # path searches with the gcd-reduced weights and sweep contexts
        # memoize per (sub-rectangle, dim, reduced ratio): every node of a
        # smaller power-of-two sweep step replays a larger step's decision
        # without touching the cut kernel
        d = gcd(m1, m2) or 1
        g1, g2 = m1 // d, m2 // d
        reduced = ((g1, g2),) if g1 == g2 else ((g1, g2), (g2, g1))
        memo = None
        if fast:
            state = _sweep_current()
            if state is not None:
                memo = state.hier_memo(pref, "rb")
        best = None  # (value, dim, cut_abs, wl, wr)
        dims = _candidate_dims(variant, rect, depth)
        fallback = tuple(d for d in (0, 1) if d not in dims)
        for dim_set in (dims, fallback):
            for dim in dim_set:
                if fast:
                    mkey = (rect.r0, rect.r1, rect.c0, rect.c1, dim, g1, g2)
                    if memo is not None and mkey in memo:
                        fact = memo[mkey]
                    else:
                        # work on the memoized un-rebased projection directly
                        if dim == 0:
                            p = pref.axis_prefix(0, rect.c0, rect.c1, reuse=True)
                            j0, j1 = rect.r0, rect.r1
                        else:
                            p = pref.axis_prefix(1, rect.r0, rect.r1, reuse=True)
                            j0, j1 = rect.c0, rect.c1
                        found2 = best_weighted_cut_win(p, j0, j1, reduced)
                        if found2 is None:
                            fact = None
                        else:
                            cut_rel, value, rl, _rr = found2
                            fact = (cut_rel, value, 0 if g1 == g2 or rl == g1 else 1)
                        if memo is not None:
                            memo[mkey] = fact
                    if fact is None:
                        continue
                    cut_rel, value, widx = fact
                    wl, wr = orientations[widx]
                    cut_abs = (rect.r0 if dim == 0 else rect.c0) + cut_rel
                    if best is None or value < best[0]:
                        best = (value, dim, cut_abs, wl, wr)
                    continue
                bp = _band(pref, rect, dim)
                for wl, wr in orientations:
                    found = best_weighted_cut(bp, wl, wr)
                    if found is None:
                        continue
                    cut_rel, value = found
                    cut_abs = (rect.r0 if dim == 0 else rect.c0) + cut_rel
                    if best is None or value < best[0]:
                        best = (value, dim, cut_abs, wl, wr)
            if best is not None:
                break  # only fall back when the preferred dims cannot be cut
        if best is None:
            return None  # un-cuttable rectangle: remaining processors idle
        _, dim, cut_abs, wl, wr = best
        return dim, cut_abs, wl, wr

    return choose


def hier_rb(A: MatrixLike, m: int, variant: str = "load") -> Partition:
    """Recursive-bisection partition of ``A`` into ``m`` rectangles.

    ``variant`` ∈ ``{"load", "dist", "hor", "ver"}`` picks the cut-dimension
    rule; the paper selects ``load`` as the reference HIER-RB (§4.2).
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    variant = variant.lower()
    if variant not in HIER_VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; choose from {HIER_VARIANTS}")
    pref = prefix_2d(A)
    root = grow_tree(pref, m, _rb_chooser(variant))
    part = tree_to_partition(root, pref, f"HIER-RB-{variant.upper()}", m)
    state = _sweep_current()
    if state is not None:
        # the achieved max load is a feasible witness for the class —
        # persisted (and scale-transferred) by the disk store; scoped by
        # variant since different variants reach different partitions
        state.record_mono_ub(
            pref, "hier_rb", m, part.max_load(pref), kw={"variant": variant}
        )
    return part
