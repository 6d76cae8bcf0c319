"""JAG-PQ-OPT: optimal P×Q-way jagged partitions (paper §3.2.1).

The paper cites two polynomial algorithms (Pınar–Aykanat's 1D-driven search
[2] and Manne–Sørevik's dynamic program [15]); both "partition the main
dimension using a 1D partitioning algorithm using an optimal partition of the
auxiliary dimension for the evaluation of the load of an interval".

Loads are integers, so we implement the optimum as an exact bisection over
the bottleneck ``B`` with a *probe-of-probes* feasibility test: stripes are
taken greedily as wide as possible subject to the stripe being Q-partition-
able at ``B`` (an inner 1D probe).  Greedy maximality is safe because stripe
feasibility is monotone — shrinking a stripe only lowers every rectangle
load — and the outer feasibility is monotone in the starting row.  Each
feasibility test costs ``O(P log n1 (n2 + Q log n2))`` and the bisection adds
a ``log(total)`` factor; in practice this is far faster than the DP while
returning the same optimum (cross-checked in tests against exhaustive
search).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.probe import min_parts, probe_cuts
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition, choose_pq, oriented
from .pq_heur import jag_pq_heur_cuts

__all__ = ["jag_pq_opt", "jag_pq_opt_bottleneck", "jag_pq_opt_dp_bottleneck"]


def _stripe_feasible(pref: PrefixSum2D, r0: int, r1: int, Q: int, B: int) -> bool:
    """Can stripe rows ``[r0, r1)`` be cut into ``<= Q`` rectangles of load ``<= B``?

    The outer binary search re-probes the same stripes at every bisection
    level, so the stripe projection (and its one-time list conversion) is
    served from the prefix cache instead of being re-materialized per probe.
    """
    return min_parts(pref.boundary_list(1, r0, r1, reuse=True), B, cap=Q) <= Q


def _max_stripe_end(pref: PrefixSum2D, r0: int, Q: int, B: int) -> int:
    """Largest ``r1 >= r0`` keeping stripe ``[r0, r1)`` Q-feasible at ``B``.

    Returns ``r0`` when even a single row fails (infeasible at any width).
    """
    lo, hi = r0, pref.n1
    # stripe of zero height is trivially feasible; find the last feasible end
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _stripe_feasible(pref, r0, mid, Q, B):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _feasible(pref: PrefixSum2D, P: int, Q: int, B: int) -> np.ndarray | None:
    """Greedy stripe cuts covering all rows with P stripes at bottleneck B."""
    cuts = np.empty(P + 1, dtype=np.int64)
    cuts[0] = 0
    pos = 0
    for s in range(1, P + 1):
        if pos < pref.n1:
            end = _max_stripe_end(pref, pos, Q, B)
            if end <= pos:
                return None
            pos = end
        cuts[s] = pos
    return cuts if pos == pref.n1 else None


def jag_pq_opt_bottleneck(
    pref: PrefixSum2D, P: int, Q: int, *, ub: int | None = None
) -> int:
    """Optimal P×Q-way jagged bottleneck (main dimension 0).

    Under an active :mod:`repro.sweep` context the bisection window is
    tightened by dominance over earlier ``(P', Q')`` results on the same
    prefix (componentwise monotonicity — plain m-monotonicity does not hold
    across factorizations), and the internal heuristic upper bound is
    skipped when a same-``(P, Q)`` witness is already recorded.  Both only
    narrow a valid bracket, so the result is bit-identical to a cold call.
    """
    total = pref.total
    m = P * Q
    state = _sweep_current()
    wlb: int | None = None
    wub: int | None = None
    if state is not None:
        exact, wlb, wub = state.grid_bounds(pref, P, Q)
        if exact is not None:
            return exact
    lb = max(-(-total // m), pref.max_element())
    if wlb is not None and wlb > lb:
        lb = wlb
    if ub is None:
        if state is not None and state.grid_witness(pref, P, Q) is not None:
            ub = wub  # same-(P, Q) witness: the heuristic ub is already known
        else:
            stripe_cuts, col_cuts = jag_pq_heur_cuts(pref, P, Q)
            ub = 0
            for s in range(P):
                band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
                cc = col_cuts[s]
                ub = max(ub, int(np.max(band[cc[1:]] - band[cc[:-1]])))
            if state is not None:
                state.record_grid_ub(pref, P, Q, ub)
    assert ub is not None
    ub = max(lb, int(ub))
    if wub is not None and wub < ub:
        ub = max(lb, wub)
    while lb < ub:
        mid = (lb + ub) // 2
        if _feasible(pref, P, Q, mid) is not None:
            ub = mid
        else:
            lb = mid + 1
    if state is not None:
        state.record_grid_opt(pref, P, Q, int(lb))
    return int(lb)


def _jag_pq_opt_main0(
    pref: PrefixSum2D, m: int, P: int | None = None, Q: int | None = None
) -> Partition:
    """Optimal P×Q-way jagged partition (§3.2.1) on main dimension 0."""
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    B = jag_pq_opt_bottleneck(pref, P, Q)
    stripe_cuts = _feasible(pref, P, Q, B)
    assert stripe_cuts is not None
    col_cuts = []
    for s in range(P):
        # served from the cache the feasibility probes already populated
        # for this stripe
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
        cc = probe_cuts(band, Q, B)
        assert cc is not None
        col_cuts.append(cc)
    return build_jagged_partition(pref, stripe_cuts, col_cuts, method="JAG-PQ-OPT")


jag_pq_opt = oriented(_jag_pq_opt_main0)
jag_pq_opt.__name__ = "jag_pq_opt"


def jag_pq_opt_dp_bottleneck(
    pref: PrefixSum2D, P: int, Q: int, *, limit: int = 1 << 22
) -> int:
    """Manne–Sørevik dynamic program for the optimal P×Q-way jagged partition.

    ``L(i, p) = min_k max( L(k, p-1), 1D(k, i, Q) )`` over the last stripe
    start ``k`` — the paper's JAG-PQ-OPT formulation [15], memoized, with
    the inner 1D solved by exact bisection.  Used as the small-instance
    cross-check of the probe-of-probes bisection (they agree on every
    tested instance); guarded by ``limit`` on ``n1²·P``.
    """
    from functools import lru_cache

    from ..oned.bisect import bisect_bottleneck

    n1 = pref.n1
    if n1 * n1 * P > limit:
        raise ParameterError(
            f"instance too large for the paper DP (n1²·P = {n1 * n1 * P} > {limit})"
        )
    @lru_cache(maxsize=None)
    def oneD(k: int, i: int) -> int:
        band = pref.axis_prefix(1, k, i)
        return bisect_bottleneck(band, Q)

    @lru_cache(maxsize=None)
    def L(i: int, p: int) -> int:
        if i == 0:
            return 0
        if p == 1:
            return oneD(0, i)
        best = None
        for k in range(i + 1):
            v = max(L(k, p - 1), oneD(k, i) if k < i else 0)
            if best is None or v < best:
                best = v
        return best

    return int(L(n1, P))
