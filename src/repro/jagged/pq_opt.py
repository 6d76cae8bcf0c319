"""JAG-PQ-OPT: optimal P×Q-way jagged partitions (paper §3.2.1).

The paper cites two polynomial algorithms (Pınar–Aykanat's 1D-driven search
[2] and Manne–Sørevik's dynamic program [15]); both "partition the main
dimension using a 1D partitioning algorithm using an optimal partition of the
auxiliary dimension for the evaluation of the load of an interval".

Loads are integers, so we implement the optimum as an exact bisection over
the bottleneck ``B`` with a *probe-of-probes* feasibility test: stripes are
taken greedily as wide as possible subject to the stripe being Q-partition-
able at ``B`` (an inner 1D walk).  Greedy maximality is safe because stripe
feasibility is monotone — shrinking a stripe only lowers every rectangle
load — and the outer feasibility is monotone in the starting row.  Each
stripe end is found by galloping from the previous stripe's height.  Each
probe proves a bound on both sides, as the exact 1D engine's walks do
(:mod:`repro.oned.bisect`; the rule and its proof are in
``docs/algorithms.md``): a feasible probe returns its realised bottleneck,
the new upper end, and an infeasible one the cheapest one-step extension of
the stripes it placed, the new lower end.  Each feasibility test costs
``O(P log n1 (n2 + Q log n2))`` and the bisection adds a ``log(total)``
factor; in practice this is far faster than the DP while returning the
same optimum (cross-checked in tests against exhaustive search).  -BEST
settles HOR, asks VER once whether it fits below, and builds only the
winner.
"""

from __future__ import annotations

from ..core.errors import ParameterError, check_choice, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..oned.bisect import _walk_list
from ..oned.probe import probe_cuts
from .common import build_jagged_partition, check_pq, choose_pq
from .pq_heur import jag_pq_heur_cuts

__all__ = ["jag_pq_opt", "jag_pq_opt_bottleneck", "jag_pq_opt_dp_bottleneck"]


def _stripe_walk(pref: PrefixSum2D, r0: int, r1: int, Q: int, B: int) -> tuple[bool, int]:
    """Greedy Q-walk of stripe rows ``[r0, r1)`` at ``B``: ``(feasible, bound)``.

    ``bound`` is the walk's realised bottleneck when it is feasible, else its
    cheapest one-step extension (:func:`repro.oned.bisect._walk_list`).  The
    bisection re-walks the same stripes at every level, so the stripe's
    boundary list is served from the prefix memo.
    """
    ok, bound, _ = _walk_list(pref.boundary_list(1, r0, r1, reuse=True), Q, B)
    return ok, bound


def _max_stripe_end(
    pref: PrefixSum2D, r0: int, Q: int, B: int, guess: int
) -> tuple[int, int, int]:
    """``(end, fit, ext)``: the largest Q-feasible stripe ``[r0, end)`` at ``B``.

    ``end`` is ``r0`` when even one row fails.  ``fit`` is the realised
    bottleneck of stripe ``[r0, end)`` (0 when it is empty) and ``ext`` the
    cheapest one-step extension of stripe ``[r0, end + 1)`` (``total + 1``
    when ``end`` is the last row).  The search gallops from ``guess`` in
    ``(r0, n1]`` towards the answer, then bisects the bracket it found.
    ``[r0, lo)`` is feasible and ``[r0, hi)`` infeasible (``hi = n1 + 1`` is
    out of range), and each end moves only to a walked stripe, so the last
    walks on each side are those of ``end`` and ``end + 1``.
    """
    lo, hi = r0, pref.n1 + 1
    fit, ext = 0, pref.total + 1
    t, step, up = guess, 1, None
    while hi - lo > 1:
        ok, bound = _stripe_walk(pref, r0, t, Q, B)
        if ok:
            lo, fit = t, bound
        else:
            hi, ext = t, bound
        if up is None:
            up = ok
        elif up != ok:
            step = 0  # bracketed: bisect from here
        if step:
            t = min(lo + step, hi - 1) if up else max(hi - step, lo + 1)
            step *= 2
        else:
            t = (lo + hi) // 2
    return lo, fit, ext


def _probe(pref: PrefixSum2D, P: int, Q: int, B: int) -> tuple[list[int] | None, int]:
    """Greedy stripes at ``B``: ``(stripe cuts, bound)``, cuts ``None`` if infeasible.

    A feasible probe's bound is its realised bottleneck, the max of its
    stripes' realised bottlenecks.  An infeasible probe's bound is the min,
    over the stripes it placed (the failing one included), of the cheapest
    one-step extension of the stripe one row taller: below it every stripe
    end, and so the failure, repeats.
    """
    n1 = pref.n1
    cuts = [0]
    pos, h = 0, -(-n1 // P)
    fit, ext = 0, pref.total + 1
    while pos < n1 and len(cuts) <= P:
        end, f, e = _max_stripe_end(pref, pos, Q, B, min(pos + h, n1))
        ext = min(ext, e)
        if end == pos:
            return None, ext
        fit = max(fit, f)
        h, pos = end - pos, end
        cuts.append(pos)
    if pos < n1:
        return None, ext
    return cuts + [n1] * (P + 1 - len(cuts)), fit


def _settle(pref: PrefixSum2D, P: int, Q: int, lo: int, hi: int) -> int:
    """The optimum in ``[lo, hi]`` (``hi`` feasible), moving an end to each probe's bound."""
    while lo < hi:
        cuts, bound = _probe(pref, P, Q, (lo + hi) // 2)
        if cuts is None:
            lo = bound
        else:
            hi = bound
    return hi


def _lower_bound(pref: PrefixSum2D, m: int) -> int:
    return max(-(-pref.total // m), pref.max_element())


def jag_pq_opt_bottleneck(pref: PrefixSum2D, P: int, Q: int) -> int:
    """Optimal P×Q-way jagged bottleneck (main dimension 0)."""
    check_pq(P, Q)
    lb = _lower_bound(pref, P * Q)
    return _settle(pref, P, Q, lb, max(lb, jag_pq_heur_cuts(pref, P, Q)[2]))


def _counts(pref: PrefixSum2D, m: int, P: int | None, Q: int | None) -> tuple[int, int]:
    """The stripe and per-stripe counts of one orientation."""
    if P is None or Q is None:
        return choose_pq(m, pref.n1, pref.n2)
    if P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    check_pq(P, Q)
    return P, Q


def _build(pref: PrefixSum2D, P: int, Q: int, B: int) -> Partition:
    """The greedy stripes and column cuts at the optimum ``B``."""
    stripe_cuts, _ = _probe(pref, P, Q, B)
    assert stripe_cuts is not None
    col_cuts = []
    for a, b in zip(stripe_cuts, stripe_cuts[1:]):
        # the stripe's boundary list, which the probes already memoized
        cc = probe_cuts(pref.boundary_list(1, a, b, reuse=True), Q, B)
        assert cc is not None
        col_cuts.append(cc)
    # every stripe fits at B, and no P×Q-way partition fits below it
    return build_jagged_partition(pref, stripe_cuts, col_cuts, method="JAG-PQ-OPT", lmax=B)


def jag_pq_opt(
    A: MatrixLike,
    m: int,
    P: int | None = None,
    Q: int | None = None,
    *,
    orientation: str = "best",
) -> Partition:
    """Optimal P×Q-way jagged partition (§3.2.1) in the -HOR, -VER or -BEST variant (§4.1).

    ``P`` and ``Q`` default to :func:`~repro.jagged.common.choose_pq` of
    each orientation.  -BEST (the default, §4.2) settles HOR, then probes
    VER once just below the HOR optimum and settles VER only if it fits
    there, so ties keep HOR.  Only the winner is built.
    """
    m, pref = check_count(m, "m"), prefix_2d(A)
    o = check_choice(orientation, "orientation", ("hor", "ver", "best"))
    win = pref if o != "ver" else pref.transpose()
    pq = _counts(win, m, P, Q)
    B = jag_pq_opt_bottleneck(win, *pq)
    lb = _lower_bound(pref, m)  # the same for both orientations
    if o == "best" and B > lb:
        T = pref.transpose()
        tq = _counts(T, m, P, Q)
        cuts, bound = _probe(T, *tq, B - 1)
        if cuts is not None:
            win, pq, B = T, tq, _settle(T, *tq, lb, bound)
    part = _build(win, *pq, B)
    if win is pref:
        part.meta["orientation"] = "hor"
        return part
    out = part.transpose().with_method(part.method)
    out.meta["orientation"] = "ver"
    return out


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

    check_pq(P, Q)
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
