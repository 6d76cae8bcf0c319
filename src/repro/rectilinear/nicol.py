"""RECT-NICOL: Nicol's iterative rectilinear refinement (paper §3.1, refs [9], [15]).

"Provided the partition in one dimension, called the fixed dimension,
RECT-NICOL computes the optimal partition in the other dimension using an
optimal one dimension partitioning algorithm.  The one dimension partitioning
problem is built by setting the load of an interval … as the maximum of the
load of the interval inside each stripe of the fixed dimension.  At each
iteration, the partition of one dimension is refined."

The striped 1D sub-problem is solved exactly by
:func:`repro.oned.multicost.partition_multi`: a search over the
``probe_multi`` registry kernel (:mod:`repro.perf.kernels`), whose greedy
walks return the bound they prove — the realised bottleneck of a feasible
walk, the cheapest step extension of an infeasible one — so each probe
narrows the bracket from its own side, and the final feasible walk supplies
the cuts.  Each solve is hinted with the incumbent grid bottleneck, which
bounds the new striped optimum from above: the search walks there first,
gallops down in doubling steps until a walk fails, then bisects, and all
its walks share one memo of step cost windows.  Iteration stops when the
grid bottleneck stops improving (the paper observes 3–10 iterations in
practice for a 514×514 matrix up to 10 000 processors) or after
``_MAX_ITERS`` refinement rounds.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..jagged.common import choose_pq
from ..oned.multicost import partition_multi
from .common import build_rectilinear_partition, grid_bottleneck
from .uniform import uniform_cuts

__all__ = ["rect_nicol"]

#: refinement rounds (columns then rows) before RECT-NICOL stops unconverged
_MAX_ITERS = 20


def _stripe_matrix(pref: PrefixSum2D, cuts: np.ndarray, axis: int) -> np.ndarray:
    """Stacked per-stripe prefix arrays along the *free* dimension.

    ``axis`` is the fixed dimension carrying the stripes delimited by
    ``cuts``; row ``s`` of the result is the prefix of the free dimension
    restricted to stripe ``s``: one fancy-indexing subtraction on Γ, or the
    stripes' full windows from the CSR substrate's built Γ rows.
    """
    G = getattr(pref, "G", None)
    if G is not None:
        if axis == 0:
            return G[cuts[1:], :] - G[cuts[:-1], :]
        return (G[:, cuts[1:]] - G[:, cuts[:-1]]).T
    S, c = len(cuts) - 1, cuts.tolist()
    n = pref.n2 if axis == 0 else pref.n1
    vals, _ = pref.band_windows([1 - axis] * S, c[:-1], c[1:], [0] * S, [n] * S)
    return vals.reshape(S, n + 1)


def rect_nicol(
    A: MatrixLike,
    m: int,
    P: int | None = None,
    Q: int | None = None,
) -> Partition:
    """Iteratively refined ``P×Q`` rectilinear partition (§3.1, refs [9, 15]).

    Starts from uniform row cuts, then alternately re-optimizes the column
    and row cuts against the striped max-load cost until the bottleneck
    stops improving.

    A different starting point would change the refinement *trajectory*
    and may converge to a different local fixed point — which is why the
    sweep engine does **not** chain cuts across ``m`` values: its contract
    is bit-identity with cold calls.  The identity-safe warm start used
    instead is internal: each striped sub-problem is seeded with the
    incumbent grid bottleneck as its first probe point, which
    :func:`~repro.oned.multicost.partition_multi` probes and gallops down
    from rather than trusts.

    ``P`` and ``Q`` must be integers of at least 1; anything else is a
    ``ParameterError``.
    """
    m, pref = check_count(m, "m"), prefix_2d(A)
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    else:
        P, Q = check_count(P, "P"), check_count(Q, "Q")
        if P * Q != m:
            raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    row_cuts = uniform_cuts(pref.n1, P)
    col_cuts = uniform_cuts(pref.n2, Q)
    best = grid_bottleneck(pref, row_cuts, col_cuts)
    best_cuts = (row_cuts.copy(), col_cuts.copy())
    iters_used = 0
    # the current cuts achieve `cur` on the grid, so `cur` upper-bounds the
    # next refinement's striped optimum — a valid (and verified) hint
    cur = best
    for it in range(_MAX_ITERS):
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
