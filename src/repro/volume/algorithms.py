"""Rectangular-volume partitioning algorithms (3D extension).

Three algorithms lifted from the paper's 2D families:

* :func:`vol_uniform` — the ``P×Q×R`` area-balancing grid (RECT-UNIFORM in
  3D; what ``MPI_Cart`` does for a 3D topology);
* :func:`vol_jag_m_heur` — the m-way jagged heuristic in 3D: an optimal 1D
  partition slices the volume into *slabs* along one axis, processors are
  distributed over the slabs proportionally to their loads (the paper's
  §3.2.2 rule), and each slab's 2D projection is partitioned by the 2D
  JAG-M-HEUR — every resulting rectangle extrudes through its slab;
* :func:`vol_hier_rb` — recursive bisection choosing the best of the three
  axes at each node (the HIER-RB-LOAD rule in 3D).

All run through ``Γ₃`` (O(1) box loads) and the 2D machinery via
:meth:`~repro.volume.prefix3d.PrefixSum3D.slab_matrix`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..core.errors import ParameterError
from ..core.prefix import PrefixSum2D
from ..jagged.m_heur import _jag_m_heur_main0, allocate_processors
from ..oned.bisect import partition_bisect
from .box import Box
from .partition3d import Partition3D
from .prefix3d import PrefixSum3D

__all__ = ["vol_uniform", "vol_jag_m_heur", "vol_hier_rb", "choose_pqr"]


def _prefix3(A) -> PrefixSum3D:
    return A if isinstance(A, PrefixSum3D) else PrefixSum3D(A)


def choose_pqr(m: int, shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Factor ``m = P·Q·R`` as close to a cube as possible, fitting ``shape``."""
    if m <= 0:
        raise ParameterError("m must be positive")
    best = None
    for p in range(1, int(round(m ** (1 / 3))) + 2):
        if m % p:
            continue
        rest = m // p
        for q in range(1, int(np.sqrt(rest)) + 1):
            if rest % q:
                continue
            r = rest // q
            for cand in (
                (p, q, r), (p, r, q), (q, p, r), (q, r, p), (r, p, q), (r, q, p),
            ):
                if all(c <= s for c, s in zip(cand, shape)):
                    spread = max(cand) - min(cand)
                    if best is None or spread < best[0]:
                        best = (spread, cand)
    if best is None:
        # fall back to the most balanced factorization regardless of fit
        p = max(d for d in range(1, int(round(m ** (1 / 3))) + 2) if m % d == 0)
        rest = m // p
        q = max(d for d in range(1, int(np.sqrt(rest)) + 1) if rest % d == 0)
        return (p, q, rest // q)
    return best[1]


def _uniform_cuts(n: int, parts: int) -> np.ndarray:
    return np.round(np.linspace(0, n, parts + 1)).astype(np.int64)


def vol_uniform(
    A, m: int, dims: tuple[int, int, int] | None = None
) -> Partition3D:
    """Uniform ``P×Q×R`` grid over the volume (balances volume, not load)."""
    pref = _prefix3(A)
    P, Q, R = dims if dims is not None else choose_pqr(m, pref.shape)
    if P * Q * R != m:
        raise ParameterError(f"P*Q*R must equal m ({P}*{Q}*{R} != {m})")
    ac = _uniform_cuts(pref.n0, P)
    bc = _uniform_cuts(pref.n1, Q)
    cc = _uniform_cuts(pref.n2, R)
    boxes = [
        Box(
            int(ac[i]), int(ac[i + 1]),
            int(bc[j]), int(bc[j + 1]),
            int(cc[k]), int(cc[k + 1]),
        )
        for i in range(P)
        for j in range(Q)
        for k in range(R)
    ]
    return Partition3D(boxes, pref.shape, method="VOL-UNIFORM")


def vol_jag_m_heur(
    A,
    m: int,
    *,
    num_slabs: int | None = None,
    axis: int = 0,
) -> Partition3D:
    """3D m-way jagged heuristic: 1D slabs × 2D m-way jagged per slab.

    ``num_slabs`` defaults to ``m**(1/3)`` (the 3D analogue of the paper's
    ``√m`` stripes, balancing the three levels of the decomposition).
    """
    pref = _prefix3(A)
    if axis not in (0, 1, 2):
        raise ParameterError("axis must be 0, 1 or 2")
    n_axis = pref.shape[axis]
    S = num_slabs if num_slabs is not None else max(1, round(m ** (1 / 3)))
    S = max(1, min(S, n_axis, m))
    # projection of the whole volume onto the slab axis
    full = {
        0: pref.axis_prefix(0, 0, pref.n1, 0, pref.n2),
        1: pref.axis_prefix(1, 0, pref.n0, 0, pref.n2),
        2: pref.axis_prefix(2, 0, pref.n0, 0, pref.n1),
    }[axis]
    _, slab_cuts = partition_bisect(full, S)
    slab_loads = full[slab_cuts[1:]] - full[slab_cuts[:-1]]
    q = allocate_processors(slab_loads, m)
    boxes: list[Box] = []
    for s in range(S):
        lo_s, hi_s = int(slab_cuts[s]), int(slab_cuts[s + 1])
        M2 = pref.slab_matrix(axis, lo_s, hi_s)
        part2 = _jag_m_heur_main0(PrefixSum2D(M2, is_prefix=True), int(q[s]))
        for r0, r1, c0, c1 in part2.coords().tolist():
            if axis == 0:
                boxes.append(Box(lo_s, hi_s, r0, r1, c0, c1))
            elif axis == 1:
                boxes.append(Box(r0, r1, lo_s, hi_s, c0, c1))
            else:
                boxes.append(Box(r0, r1, c0, c1, lo_s, hi_s))
    return Partition3D(
        boxes, pref.shape, method="VOL-JAG-M-HEUR", meta={"slab_cuts": slab_cuts}
    )


def vol_hier_rb(A, m: int) -> Partition3D:
    """3D recursive bisection with the best-of-three-axes (LOAD) rule."""
    pref = _prefix3(A)
    if m <= 0:
        raise ParameterError("m must be positive")
    boxes: list[Box] = []
    stack = [(Box(0, pref.n0, 0, pref.n1, 0, pref.n2), m)]
    while stack:
        box, procs = stack.pop()
        if procs == 1 or box.volume <= 1:
            boxes.append(box)
            boxes.extend(Box(0, 0, 0, 0, 0, 0) for _ in range(procs - 1))
            continue
        m1, m2 = procs // 2, procs - procs // 2
        orientations = ((m1, m2),) if m1 == m2 else ((m1, m2), (m2, m1))
        best = None  # (value, axis, cut_abs, wl, wr)
        for axis in (0, 1, 2):
            bp = _box_axis_prefix(pref, box, axis)
            L = len(bp) - 1
            if L < 2:
                continue
            total = int(bp[-1])
            for wl, wr in orientations:
                # exact integer balance target and Fraction scores, as in
                # the HIER-RB weighted-cut kernel (RPL003 discipline)
                target = (total * wl) // procs
                c = int(np.searchsorted(bp, target, side="right")) - 1
                for cand in (c, c + 1):
                    if not (1 <= cand <= L - 1):
                        continue
                    l1 = int(bp[cand])
                    v = max(Fraction(l1, wl), Fraction(total - l1, wr))
                    if best is None or v < best[0]:
                        best = (v, axis, cand, wl, wr)
        if best is None:  # un-cuttable box with several processors
            boxes.append(box)
            boxes.extend(Box(0, 0, 0, 0, 0, 0) for _ in range(procs - 1))
            continue
        _, axis, cut, wl, wr = best
        left, right = _split_box(box, axis, cut)
        stack.append((left, wl))
        stack.append((right, wr))
    return Partition3D(boxes, pref.shape, method="VOL-HIER-RB")


def _box_axis_prefix(pref: PrefixSum3D, box: Box, axis: int) -> np.ndarray:
    """Rebased prefix along ``axis`` inside ``box``."""
    if axis == 0:
        p = pref.axis_prefix(0, box.b0, box.b1, box.c0, box.c1)[box.a0 : box.a1 + 1]
    elif axis == 1:
        p = pref.axis_prefix(1, box.a0, box.a1, box.c0, box.c1)[box.b0 : box.b1 + 1]
    else:
        p = pref.axis_prefix(2, box.a0, box.a1, box.b0, box.b1)[box.c0 : box.c1 + 1]
    return p - p[0]


def _split_box(box: Box, axis: int, cut_rel: int) -> tuple[Box, Box]:
    if axis == 0:
        c = box.a0 + cut_rel
        return (
            Box(box.a0, c, box.b0, box.b1, box.c0, box.c1),
            Box(c, box.a1, box.b0, box.b1, box.c0, box.c1),
        )
    if axis == 1:
        c = box.b0 + cut_rel
        return (
            Box(box.a0, box.a1, box.b0, c, box.c0, box.c1),
            Box(box.a0, box.a1, c, box.b1, box.c0, box.c1),
        )
    c = box.c0 + cut_rel
    return (
        Box(box.a0, box.a1, box.b0, box.b1, box.c0, c),
        Box(box.a0, box.a1, box.b0, box.b1, c, box.c1),
    )
