"""Spiral partitions (paper §3.4, Figure 1(e)).

Section 3.4 observes that any recursively defined partitioning scheme with a
polynomial number of choices per level admits an optimal dynamic program —
"the only difference will be in the cost of evaluating the function calls" —
and that such DPs "can generate heuristics similarly to HIER-RELAXED".  The
paper does not implement spiral partitions; this module does both
constructions for the class:

* :func:`spiral_opt` — the exact DP over (sub-rectangle, side, processors),
  feasible for small instances only (the paper's point exactly);
* :func:`spiral_relaxed` — the HIER-RELAXED-style heuristic extracted from
  it: at each step the next strip is peeled off the current side so that its
  load best matches its processor share under the average-load relaxation.

A spiral partition peels full-width/height strips off the rectangle's sides
in rotating order (top → right → bottom → left …); each strip is one
processor's rectangle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..core.errors import ParameterError, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d

__all__ = ["spiral_relaxed", "spiral_opt", "spiral_opt_bottleneck", "SIDES"]

#: strip sides in spiral order: top (rows), right (cols), bottom, left
SIDES = ("top", "right", "bottom", "left")
# a rectangle is a tuple of its half-open (r0, r1, c0, c1) bounds
_Box = tuple[int, int, int, int]


def _strip(rect: _Box, side: str, width: int) -> tuple[_Box, _Box]:
    """Split ``rect`` into (peeled strip, remainder) at ``width`` cells."""
    r0, r1, c0, c1 = rect
    if side == "top":
        return (r0, r0 + width, c0, c1), (r0 + width, r1, c0, c1)
    if side == "bottom":
        return (r1 - width, r1, c0, c1), (r0, r1 - width, c0, c1)
    if side == "left":
        return (r0, r1, c0, c0 + width), (r0, r1, c0 + width, c1)
    if side == "right":
        return (r0, r1, c1 - width, c1), (r0, r1, c0, c1 - width)
    raise ParameterError(f"unknown side {side!r}")


def _side_extent(rect: _Box, side: str) -> int:
    return rect[1] - rect[0] if side in ("top", "bottom") else rect[3] - rect[2]


def _is_empty(rect: _Box) -> bool:
    return rect[1] == rect[0] or rect[3] == rect[2]


def _strip_load(pref: PrefixSum2D, rect: _Box, side: str, width: int) -> int:
    return pref.load(*_strip(rect, side, width)[0])


def spiral_relaxed(A: MatrixLike, m: int) -> Partition:
    """Spiral heuristic (§3.4): peel one strip per processor in rotating side order.

    The first strip comes off the top.  At each step the strip width is
    chosen so the strip load is closest to the remaining average load (the
    HIER-RELAXED relaxation with j = 1): a binary search over the monotone
    strip load.  The last processor takes the remaining rectangle.
    """
    m, pref = check_count(m, "m"), prefix_2d(A)
    rect: _Box = (0, pref.n1, 0, pref.n2)
    rects: list[_Box] = []
    side_idx = 0
    for k in range(m - 1):
        remaining = m - k
        if _is_empty(rect):
            rects.append((rect[0], rect[0], rect[2], rect[2]))
            continue
        side = SIDES[side_idx % 4]
        side_idx += 1
        extent = _side_extent(rect, side)
        if extent <= 1:
            # cannot peel without emptying the remainder: rotate to the
            # perpendicular side if possible
            side = SIDES[(side_idx) % 4]
            side_idx += 1
            extent = _side_extent(rect, side)
            if extent <= 1:
                rects.append(rect)
                rect = (rect[0], rect[0], rect[2], rect[2])
                continue
        total = pref.load(*rect)
        # exact rational target: integer strip loads compare against it
        # without float rounding (RPL003 discipline)
        target = Fraction(total, remaining)
        lo, hi = 1, extent - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _strip_load(pref, rect, side, mid) < target:
                lo = mid + 1
            else:
                hi = mid
        # lo = first width with load >= target; compare with lo - 1
        best_w = lo
        if lo > 1:
            below = abs(_strip_load(pref, rect, side, lo - 1) - target)
            at = abs(_strip_load(pref, rect, side, lo) - target)
            if below <= at:
                best_w = lo - 1
        strip, rect = _strip(rect, side, best_w)
        rects.append(strip)
    rects.append(rect)
    return Partition(np.array(rects, dtype=np.int64), pref.shape, method="SPIRAL-RELAXED")


# ----------------------------------------------------------------------
# exact DP (small instances) — the §3.4 construction
# ----------------------------------------------------------------------
def _spiral_solver(pref: PrefixSum2D):
    """The §3.4 DP over (sub-rectangle, side, processors, consecutive skips).

    Each level peels one strip for one processor off the prescribed side and
    rotates.  A side whose extent is ≤ 1 may instead be *skipped* (rotate
    without peeling): peeling it would consume the whole remainder, and
    :func:`spiral_relaxed` rotates past such sides too — the DP must search
    a superset of the heuristic's reachable partitions or it is not an upper
    oracle for the class.  ``skips`` counts consecutive skips (≤ 3: after
    four the rotation is back where it started), which bounds the state and
    guarantees termination.
    """

    @lru_cache(maxsize=None)
    def solve(r0: int, r1: int, c0: int, c1: int, side_idx: int, procs: int, skips: int) -> int:
        rect = (r0, r1, c0, c1)
        load = pref.load(r0, r1, c0, c1)
        if procs == 1 or _is_empty(rect):
            return load
        side = SIDES[side_idx]
        extent = _side_extent(rect, side)
        nxt = (side_idx + 1) % 4
        best = None
        for width in range(1, extent + 1):
            strip, rest = _strip(rect, side, width)
            sl = pref.load(*strip)
            if best is not None and sl >= best:
                break  # strip load is monotone in width
            v = max(sl, solve(*rest, nxt, procs - 1, 0))
            if best is None or v < best:
                best = v
        if extent <= 1 and skips < 3:
            skip = solve(r0, r1, c0, c1, nxt, procs, skips + 1)
            if best is None or skip < best:
                best = skip
        return load if best is None else best

    return solve


def _spiral_guard(pref: PrefixSum2D, m: int, limit: int) -> None:
    check_count(m, "m")
    cost = pref.n1 * pref.n1 * pref.n2 * pref.n2 * m
    if cost > limit:
        raise ParameterError(
            f"instance too large for the spiral DP (n1²·n2²·m = {cost} > {limit})"
        )


def spiral_opt_bottleneck(A: MatrixLike, m: int, *, limit: int = 1 << 24) -> int:
    """Optimal spiral-partition bottleneck via the §3.4 dynamic program.

    State: (sub-rectangle, side to peel next, processors, skips).  All four
    starting sides are tried.  Complexity O(n1²·n2²·m·max(n1,n2)) — a
    small-instance oracle, as the paper predicts.
    """
    pref = prefix_2d(A)
    _spiral_guard(pref, m, limit)
    solve = _spiral_solver(pref)
    return min(solve(0, pref.n1, 0, pref.n2, s, m, 0) for s in range(4))


def spiral_opt(A: MatrixLike, m: int, *, limit: int = 1 << 24) -> Partition:
    """Optimal spiral partition (small instances; backtracks the §3.4 DP)."""
    pref = prefix_2d(A)
    _spiral_guard(pref, m, limit)
    solve = _spiral_solver(pref)
    target = min(solve(0, pref.n1, 0, pref.n2, s, m, 0) for s in range(4))
    # backtracking: at each level take any peel (or degenerate-side skip)
    # whose branch value equals the state's DP value
    rects: list[_Box] = []
    rect: _Box = (0, pref.n1, 0, pref.n2)
    side_idx = min(range(4), key=lambda s: solve(0, pref.n1, 0, pref.n2, s, m, 0))
    procs = m
    skips = 0
    while procs > 1 and not _is_empty(rect):
        value = solve(*rect, side_idx, procs, skips)
        side = SIDES[side_idx]
        extent = _side_extent(rect, side)
        nxt = (side_idx + 1) % 4
        chosen = None
        for width in range(1, extent + 1):
            strip, rest = _strip(rect, side, width)
            sl = pref.load(*strip)
            v = max(sl, solve(*rest, nxt, procs - 1, 0))
            if v == value:
                chosen = (strip, rest)
                break
        if chosen is not None:
            rects.append(chosen[0])
            rect = chosen[1]
            procs -= 1
            skips = 0
        else:  # the optimum came from skipping this degenerate side
            assert extent <= 1 and skips < 3, "DP value unreachable from state"
            skips += 1
        side_idx = nxt
    rects.append(rect)
    rects.extend([(0, 0, 0, 0)] * (m - len(rects)))
    part = Partition(np.array(rects, dtype=np.int64), pref.shape, method="SPIRAL-OPT")
    assert part.max_load(pref) == target, "backtracking must reach the DP optimum"
    return part
