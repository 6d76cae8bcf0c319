"""RECT-NICOL: Nicol's iterative rectilinear refinement (paper §3.1, refs [9], [15]).

"Provided the partition in one dimension, called the fixed dimension,
RECT-NICOL computes the optimal partition in the other dimension using an
optimal one dimension partitioning algorithm.  The one dimension partitioning
problem is built by setting the load of an interval … as the maximum of the
load of the interval inside each stripe of the fixed dimension.  At each
iteration, the partition of one dimension is refined."

The striped 1D sub-problem is solved exactly by
:func:`repro.oned.multicost.partition_multi`: a bisection over the
``probe_multi`` registry kernel (:mod:`repro.perf.kernels`), whose greedy
walks return the bound they prove — the realised bottleneck of a feasible
walk, the cheapest step extension of an infeasible one — so each probe
narrows the bracket from its own side, and the final feasible walk supplies
the cuts.  Iteration stops when the grid bottleneck stops improving (the
paper observes 3–10 iterations in practice for a 514×514 matrix up to
10 000 processors) or at ``max_iters``.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, _as_int64, prefix_2d
from ..jagged.common import choose_pq
from ..oned.multicost import partition_multi
from .common import build_rectilinear_partition, grid_bottleneck
from .uniform import uniform_cuts

__all__ = ["rect_nicol"]


def _stripe_matrix(pref: PrefixSum2D, cuts: np.ndarray, axis: int) -> np.ndarray:
    """Stacked per-stripe prefix arrays along the *free* dimension.

    ``axis`` is the fixed dimension carrying the stripes delimited by
    ``cuts``; row ``s`` of the result is the prefix of the free dimension
    restricted to stripe ``s``.  One fancy-indexing subtraction on Γ.
    """
    G = getattr(pref, "G", None)
    if G is not None:
        if axis == 0:
            return G[cuts[1:], :] - G[cuts[:-1], :]
        return (G[:, cuts[1:]] - G[:, cuts[:-1]]).T
    # sparse substrate: one stripe projection per band (axis 0 stripes
    # project onto axis 1 and vice versa), identical values to the dense
    # fancy-indexing subtraction above
    return np.stack(
        [
            pref.axis_prefix(1 - axis, int(cuts[s]), int(cuts[s + 1]))
            for s in range(len(cuts) - 1)
        ]
    )


def _validated_cuts(cuts, n: int, parts: int, what: str) -> np.ndarray:
    # exact: 2.5 must not truncate to 2, nor 2^63 wrap or overflow
    out = _as_int64(np.asarray(cuts), f"{what} init_cuts")
    if out.ndim != 1 or len(out) != parts + 1:
        raise ParameterError(f"{what} init_cuts must have length {parts + 1}")
    if out[0] != 0 or out[-1] != n or (np.diff(out) < 0).any():
        raise ParameterError(f"{what} init_cuts must be nondecreasing from 0 to {n}")
    return out


def rect_nicol(
    A: MatrixLike,
    m: int,
    P: int | None = None,
    Q: int | None = None,
    *,
    max_iters: int = 20,
    init_cuts: tuple | None = None,
) -> Partition:
    """Iteratively refined ``P×Q`` rectilinear partition (§3.1, refs [9, 15]).

    Starts from uniform row cuts, then alternately re-optimizes the column
    and row cuts against the striped max-load cost until the bottleneck
    stops improving.

    ``init_cuts`` optionally replaces the uniform starting point with a
    caller-provided ``(row_cuts, col_cuts)`` pair (validated).  Note that a
    different starting point changes the refinement *trajectory* and may
    converge to a different (better or worse) local fixed point — which is
    exactly why the sweep engine does **not** chain cuts across ``m``
    values: its contract is bit-identity with cold calls.  The identity-
    safe warm start used instead is internal: each striped sub-problem is
    seeded with the incumbent grid bottleneck as its first probe point,
    which :func:`~repro.oned.multicost.multi_bottleneck` probes rather than
    trusts.
    """
    pref = prefix_2d(A)
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    if init_cuts is not None:
        row_init, col_init = init_cuts
        row_cuts = _validated_cuts(row_init, pref.n1, P, "row")
        col_cuts = _validated_cuts(col_init, pref.n2, Q, "column")
    else:
        row_cuts = uniform_cuts(pref.n1, P)
        col_cuts = uniform_cuts(pref.n2, Q)
    best = grid_bottleneck(pref, row_cuts, col_cuts)
    best_cuts = (row_cuts.copy(), col_cuts.copy())
    iters_used = 0
    # the current cuts achieve `cur` on the grid, so `cur` upper-bounds the
    # next refinement's striped optimum — a valid (and verified) hint
    cur = best
    for it in range(max_iters):
        prev = best
        # refine columns against fixed rows, then rows against fixed columns;
        # each refinement's striped bottleneck IS the grid bottleneck of the
        # (fixed, refined) pair
        M = _stripe_matrix(pref, row_cuts, 0)
        b1, col_cuts = partition_multi(M, Q, ub=cur)
        cur = b1
        if b1 < best:
            best = b1
            best_cuts = (row_cuts.copy(), col_cuts.copy())
        M = _stripe_matrix(pref, col_cuts, 1)
        b2, row_cuts = partition_multi(M, P, ub=cur)
        cur = b2
        iters_used = it + 1
        if b2 < best:
            best = b2
            best_cuts = (row_cuts.copy(), col_cuts.copy())
        if best >= prev:
            break  # no refinement improved: converged
    part = build_rectilinear_partition(
        pref, best_cuts[0], best_cuts[1], method="RECT-NICOL"
    )
    part.meta["iterations"] = iters_used
    return part
