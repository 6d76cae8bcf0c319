"""JAG-M-OPT: optimal m-way jagged partitions (paper §3.2.2).

The paper gives a dynamic program over (last stripe start ``k``, processors
``x`` in that stripe)::

    Lmax(n1, m) = min_{k, x} max( Lmax(k-1, m-x), 1D(k, n1, x) )

accelerated with lazy evaluation, binary searches, bound short-circuiting and
branch-and-bound — and still reports 15 minutes for m = 961 on a 512×512
matrix in C++.  We implement that DP (:func:`jag_m_opt_dp_bottleneck`, used
as a small-instance oracle) *and* an equivalent, much faster exact method
exploiting integer loads (:func:`jag_m_opt_bottleneck`):

bisect the bottleneck ``B`` and test feasibility with a *minimum-processor*
DP: ``f(i) = min_k f(k) + parts(k, i, B)`` where ``parts`` is the greedy
(optimal) number of rectangles covering stripe rows ``[k, i)`` at bottleneck
``B``; the m-way jagged class places no constraint on the stripe count, so
``B`` is feasible iff ``f(n1) <= m``.  Each row scans only the last start of
each run of equal ``f`` (at most ``m + 1`` *level ends*, see
:func:`_level_end_dp`).  The two methods agree on every instance
(property-tested).  The -BEST variant (§4.2) settles the likelier
orientation, asks the other once whether it fits below, and builds only
the winner (:func:`_optimum`).  Each probe of a bisection pins its DP rows
between the staircases of that side's last feasible and infeasible DPs.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Callable, TypeVar

import numpy as np

from ..core.errors import ParameterError, check_choice, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..oned.bisect import bisect_bottleneck
from ..oned.probe import min_parts, probe_cuts
from ..sweep.state import SweepInvariantError, SweepState
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition
from .m_heur import _jag_m_heur_main0, allocate_processors

__all__ = ["jag_m_opt", "jag_m_opt_bottleneck", "jag_m_opt_dp_bottleneck"]

_INF = np.iinfo(np.int64).max // 4

_R = TypeVar("_R")

def _stripe_min_parts(pref: PrefixSum2D, k: int, i: int, B: int, cap: int) -> int:
    """Greedy rectangle count for stripe rows ``[k, i)`` at bottleneck ``B``.

    The stripe's boundary list is built fresh (``G[i,:] - G[k,:]`` as a
    list), not served from the projection memo: most stripes the DP walks
    are walked once (the stripe memo's facts answer the repeats), so the
    memo would mostly pay its store and eviction costs.
    """
    return min_parts(pref.boundary_list(1, k, i, reuse=False), B, cap=cap)


#: memo-entry list length that triggers a compaction pass; cross-sweep
#: sharing would otherwise grow the per-stripe fact lists without bound
#: and slow the linear scan in :func:`_memo_bounds`
_MEMO_COMPACT_LEN = 24


def _compact_entries(entries: list) -> None:
    """Drop memo facts that cannot change any :func:`_memo_bounds` answer.

    The lower bound at a query ``B`` is the max count over entries with
    ``B' >= B``: scanning entries by descending ``B'``, only those raising
    the running max matter.  The upper bound is the min count over *exact*
    entries with ``B' <= B``: by ascending ``B'``, only those lowering the
    running min matter.  Keeping the union preserves both staircases, so
    every future bound query answers identically — compaction can drop
    work-saving facts never, only redundant ones.
    """
    keep: dict[tuple[int, int, bool], None] = {}
    best_lo = -1
    for rec in sorted(entries, key=lambda e: (-e[0], -e[1])):
        if rec[1] > best_lo:
            keep[rec] = None
            best_lo = rec[1]
    best_hi: int | None = None
    for rec in sorted(entries, key=lambda e: (e[0], e[1])):
        if rec[2] and (best_hi is None or rec[1] < best_hi):
            keep[rec] = None
            best_hi = rec[1]
    entries[:] = list(keep)


#: reserved memo key for whole-matrix probe facts: ``(B, count, exact)``
#: records of the minimum-processor DP itself (a string, so it can never
#: collide with the ``(k, i)`` stripe keys)
_PROBE_KEY = "f"

#: reserved memo key of the journal a store installs when it seeds a memo:
#: every fact recorded after seeding is also appended there as ``(key,
#: rec)``, so the store's harvest maps only the facts a scope added
_NEW_KEY = "n"


def _memo_record(
    memo: dict, key: tuple[int, int] | str, entries: list | None, rec: tuple
) -> None:
    """Append a stripe fact, compacting the list when it grows long."""
    if entries is None:
        memo[key] = [rec]
    else:
        entries.append(rec)
        if len(entries) > _MEMO_COMPACT_LEN:
            _compact_entries(entries)
    new = memo.get(_NEW_KEY)
    if new is not None:
        new.append((key, rec))


def _memo_bounds(entries: list, B: int) -> tuple[int, int | None]:
    """Exact bounds on a stripe's part count at bottleneck ``B``.

    ``entries`` holds ``(B', parts', exact')`` triples from earlier
    evaluations of the same stripe during the bisection.  The greedy count
    is non-increasing in the bottleneck, so an evaluation at ``B' >= B``
    lower-bounds the count at ``B`` (capped evaluations are themselves
    lower bounds, which still transfer), while an *exact* evaluation at
    ``B' <= B`` upper-bounds it.  Returns ``(lo, hi)`` with ``hi = None``
    when no upper bound is known; ``lo == hi`` pins the count exactly.
    """
    lo = 0
    hi: int | None = None
    for Bs, p, exact in entries:
        if Bs >= B:
            if p > lo:
                lo = p
            if exact and Bs == B and (hi is None or p < hi):
                hi = p
        elif exact and (hi is None or p < hi):
            hi = p
    return lo, hi


def _memo_parts(pref: PrefixSum2D, memo: dict, k: int, i: int, B: int, cap: int, lo: int) -> int:
    """``parts(k, i, B)`` if it is ``<= cap``, else a lower bound above ``cap``.

    ``memo`` facts (see :func:`_memo_bounds`) raise the bound ``lo`` and pin
    or skip the greedy; a greedy run is recorded as a new fact.
    """
    entries = memo.get((k, i))
    hi: int | None = None
    if entries is not None:
        lo2, hi = _memo_bounds(entries, B)
        lo = max(lo, lo2)
    if lo > cap or hi == lo:
        return lo
    parts = _stripe_min_parts(pref, k, i, B, cap)
    _memo_record(memo, (k, i), entries, (B, parts, parts <= cap))
    return parts


def _level_end_dp(
    pref: PrefixSum2D,
    B: int,
    m_cap: int,
    memo: dict,
    low: list[int] | None = None,
    up: list[int] | None = None,
    out: list[int] | None = None,
) -> list[int] | None:
    """The DP's ``f`` (as a list), or None once a row needs more than ``m_cap``.

    ``f`` is non-decreasing and ``parts(k, i, B)`` non-increasing in ``k``,
    so row ``i`` scans only the *level ends* (the last start of each run of
    equal ``f``), by ascending lower bound, stopping at the first bound that
    cannot improve or once ``best`` meets the row's floor.  Bounds only grow
    with ``i`` (so does ``parts``, which a level end carries to the next
    row), so a heap of stale bounds refreshed when popped yields that order.

    ``f`` is non-increasing in ``B``, so ``low`` (``f`` at a larger
    bottleneck) raises each row's floor, and ``up`` (``f`` at a smaller one,
    up to the row where that DP failed) pins a row, without evaluating a
    stripe, where the two meet.  ``out`` (empty) is filled with ``f``, and
    keeps the rows computed when the DP fails.
    """
    rs = pref.axis_prefix(0, reuse=True).tolist()
    D = max(B, 1)  # ceil(load/D) bounds parts for any D >= B (at B = 0 only zeros fit)
    f = [] if out is None else out
    f.append(0)
    heap = [(1, 0, 1)]  # (stale bound on f(k) + parts(k, i, B), level end k, parts bound)
    up = [] if up is None else up
    for i in range(1, pref.n1 + 1):
        floor = f[-1] if low is None else max(f[-1], low[i])
        if i < len(up) and up[i] == floor:
            f.append(floor)
            heapq.heappush(heap, (floor + 1, i, 1))
            continue
        ri, best = rs[i], m_cap + 1
        while heap[0][0] < best:
            stale, k, c = heap[0]
            if k + 1 < i and f[k + 1] == f[k]:
                heapq.heappop(heap)  # k + 1 now ends k's level and dominates it
                continue
            lb = max(f[k] + c, f[k] - (rs[k] - ri) // D)
            if lb == stale:  # the least current bound: evaluate it
                c = _memo_parts(pref, memo, k, i, B, best - 1 - f[k], lb - f[k])
                lb = f[k] + c
                best = min(best, lb)
            heapq.heapreplace(heap, (lb, k, c))
            if best == floor:
                break
        if best > m_cap:
            return None
        f.append(best)
        heapq.heappush(heap, (best + 1, i, 1))
    return f


def _reference_dp(pref: PrefixSum2D, B: int, m_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The all-starts DP: ``f`` (``_INF`` above ``m_cap``) and each row's chosen start.

    The oracle :func:`_level_end_dp` and :func:`_path_start` are pinned
    against; no solver path calls it.
    """
    n1 = pref.n1
    rowsum = pref.axis_prefix(0, reuse=True)  # length n1+1
    f = np.full(n1 + 1, _INF, dtype=np.int64)
    arg = np.zeros(n1 + 1, dtype=np.int64)
    f[0] = 0
    for i in range(1, n1 + 1):
        # cheap lower bound on the stripe cost: ceil(load/B), at least 1
        stripe_load = rowsum[i] - rowsum[:i]
        lb = f[:i] + np.maximum(1, -(-stripe_load // B)) if B > 0 else f[:i] + 1
        order = np.argsort(lb, kind="stable")
        best, best_k = _INF, 0
        for k in order:
            if lb[k] >= best or lb[k] > m_cap:
                break
            kk = int(k)
            cap = int(min(best - 1 - f[kk], m_cap - f[kk]))
            if cap < 1:
                continue
            parts = _stripe_min_parts(pref, kk, i, B, cap)
            cost = f[kk] + parts
            if parts <= cap and cost < best:
                best, best_k = cost, kk
        f[i] = best
        arg[i] = best_k
    return f, arg


def _shared_memo(pref: PrefixSum2D) -> dict:
    """The stripe memo to use: scope-shared when a sweep is active.

    The memo facts are functions of the stripe and the probed bottleneck
    alone (m never enters), so one memo soundly serves every bisection of
    every solve over the same prefix.
    """
    state = _sweep_current()
    if state is not None:
        memo = state.stripe_memo(pref)
        if memo is not None:
            return memo
    return {}


class _Side:
    """One orientation's proven bracket ``[lo, hi]`` on its optimum, and its memo.

    ``hi`` is a bottleneck the side is proven to fit at (at worst the total
    load).  ``f`` is the DP of its last feasible probe (run at ``at``) and
    ``g`` the rows its last infeasible probe computed: the staircases every
    later probe inside the bracket is pinned between.  The bracket starts
    from the trivial bound ``lb`` and the sweep's bounds at ``m``.
    """

    __slots__ = ("pref", "memo", "lo", "hi", "f", "at", "g")
    pref: PrefixSum2D
    memo: dict
    lo: int
    hi: int
    f: list[int] | None
    at: int | None
    g: list[int] | None

    def __init__(self, pref: PrefixSum2D, m: int, lb: int, state: SweepState | None) -> None:
        exact, wlb, wub = state.bounds(pref, m) if state is not None else (None, None, None)
        if exact is not None:
            self.lo = self.hi = exact
        else:
            self.lo = lb if wlb is None else max(lb, wlb)
            self.hi = max(self.lo, pref.total if wub is None else wub)
        self.pref, self.memo = pref, _shared_memo(pref)
        self.f = self.at = self.g = None

    def fits(self, B: int, m: int) -> bool:
        """Whether ``m`` rectangles fit at ``B``: from the bracket, the facts or one DP.

        ``F(B)`` = minimum processors at bottleneck ``B`` is one
        non-increasing staircase shared by every ``m``, so each DP's exact
        result (or its proven "> m" lower bound) is recorded under
        ``_PROBE_KEY`` and answers later probes outright.  A decided probe
        returns exactly what the DP would have, so no answer depends on the
        facts on record.
        """
        if B >= self.hi:
            return True
        if B < self.lo:
            return False
        entries = self.memo.get(_PROBE_KEY)
        flo, fhi = _memo_bounds(entries, B) if entries is not None else (0, None)
        if fhi is not None and fhi <= m:
            ok = True
        elif flo > m:
            ok = False
        else:
            g: list[int] = []
            f = _level_end_dp(self.pref, B, m, self.memo, low=self.f, up=self.g, out=g)
            ok = f is not None
            if ok:
                self.f, self.at = f, B
            else:
                self.g = g
            rec = (B, f[-1], True) if f is not None else (B, m + 1, False)
            _memo_record(self.memo, _PROBE_KEY, entries, rec)
        if ok:
            self.hi = B
        else:
            self.lo = B + 1
        return ok

    def settle(self, m: int) -> int:
        """Bisect the bracket to the side's optimum."""
        while self.lo < self.hi:
            self.fits((self.lo + self.hi) // 2, m)
        return self.hi


def _optimum(prefs: tuple[PrefixSum2D, ...], m: int) -> tuple[_Side, int]:
    """The least optimum over the orientations ``prefs`` (HOR first), and its side.

    A side whose optimum is on record leads.  Otherwise the midpoint of the
    joint window ``[min lo, min hi]`` is asked of every side until one fits,
    and the leader is the side that fits with the fewest processors (ties
    to the lower JAG-M-HEUR bound).  The leader is settled alone; the other
    side then gets one threshold probe, just below a HOR optimum or at a VER
    one, so ties go to HOR as ``oriented()`` does for the heuristics.  Only
    if it fits there is it settled, inside ``[lo, threshold]``.  Only the
    winner's optimum is recorded.  Under a sweep every in-process bracket
    and fact is proven, so the answer is a cold call's; the winner then runs
    one unpinned DP at ``B``, which records the stripe facts a warm solve
    reads, confirms a bracket end seeded from a store, and is reused by the
    build.
    """
    state = _sweep_current()
    lb = max(-(-prefs[0].total // m), prefs[0].max_element())
    sides = [_Side(p, m, lb, state) for p in prefs]
    if all(s.lo < s.hi for s in sides):
        for s in sides:
            s.hi = max(s.lo, min(s.hi, int(_jag_m_heur_main0(s.pref, m).meta["lmax"])))
    order = sorted(sides, key=lambda s: s.hi)  # the likelier winner first
    lead = sides[0] if len(sides) == 1 else None
    while lead is None:
        mid = (min(s.lo for s in sides) + min(s.hi for s in sides)) // 2
        fit = [s for s in order if s.lo == s.hi] or [s for s in order if s.fits(mid, m)]
        lead = min(fit, key=lambda s: s.f[-1] if s.f and s.at == mid else m, default=None)
    win, B = lead, lead.settle(m)
    for s in sides:
        if s is not lead and s.fits(B - 1 if lead is sides[0] else B, m):
            win, B = s, s.settle(m)
    if state is not None:
        win.f, win.at = _level_end_dp(win.pref, B, m, win.memo), B
        if win.f is None:
            raise SweepInvariantError(
                f"bottleneck {B} is infeasible at m={m}: a seeded optimum is wrong"
            )
        state.record_opt(win.pref, m, B)
    return win, B


def _healed(solve: Callable[[], _R], *prefs: PrefixSum2D) -> _R:
    """``solve()``, re-run cold once if it disproves a fact seeded from disk.

    A lone wrong optimum in a checksum-valid store contradicts nothing else
    on record, so seeding accepts it; the solve then disproves it, either
    when ``record_opt`` rejects the optimum or when the DP at the
    converged bottleneck finds it infeasible (:func:`_optimum`).  The
    state then forgets every seeded fact of ``prefs`` (and the store drops
    them at the next flush), and the cold re-solve answers as if no store
    had been attached.
    """
    try:
        return solve()
    except SweepInvariantError:
        state = _sweep_current()
        if state is None or not any([state.forget_seeded(p) for p in prefs]):
            raise
        return solve()


def jag_m_opt_bottleneck(pref: PrefixSum2D, m: int) -> int:
    """Optimal m-way jagged bottleneck (main dimension 0) by exact bisection.

    Under an active :mod:`repro.sweep` context the bisection window is
    tightened from optima proved by earlier calls on the same prefix
    (monotone in ``m``), a recorded optimum at ``m`` itself is returned
    outright, and the stripe memo is shared across calls.  All of these
    only narrow a valid bracket or reuse proven stripe facts, so the
    returned optimum is bit-identical to a cold call's.
    """
    m = check_count(m, "m")
    return _healed(lambda: _optimum((pref,), m)[1], pref)


def _path_start(pref: PrefixSum2D, rs: list[int], f: list[int], i: int, B: int, memo: dict) -> int:
    """The reference backtrack's choice of stripe start for path row ``i``.

    The all-starts scan keeps the first ``k``, in stable order of ``lb(k) =
    f(k) + max(1, ceil(load/B))``, with ``parts(k, i, B) <= f(i) - f(k)``.
    A start that misses rules out the earlier starts of its level.
    """
    lb = [f[k] + (max(1, -((rs[k] - rs[i]) // B)) if B > 0 else 1) for k in range(i)]
    missed: dict[int, int] = {}  # f level -> its last start known to miss
    for k in sorted(range(i), key=lb.__getitem__):
        if lb[k] > f[i]:
            break
        cap = f[i] - f[k]
        if k > missed.get(f[k], -1):
            if _memo_parts(pref, memo, k, i, B, cap, lb[k] - f[k]) <= cap:
                return k
            missed[f[k]] = k
    raise AssertionError("no start reaches f(i)")


def _backtrack_stripes(
    pref: PrefixSum2D, B: int, m: int, memo: dict | None = None, f: list[int] | None = None
) -> np.ndarray:
    """Stripe cuts of a minimum-processor solution at bottleneck ``B``.

    ``f`` is the DP at ``B`` when the caller already ran it.
    """
    cuts = [pref.n1]
    memo = {} if memo is None else memo
    fl = _level_end_dp(pref, B, m, memo) if f is None else f
    assert fl is not None, "backtrack called with infeasible bottleneck"
    rs = pref.axis_prefix(0, reuse=True).tolist()
    while cuts[-1] > 0:
        cuts.append(_path_start(pref, rs, fl, cuts[-1], B, memo))
    return np.array(cuts[::-1], dtype=np.int64)


def _build(side: _Side, B: int, m: int) -> Partition:
    """The partition of ``side`` at its optimum ``B``: backtrack, phase 2, build."""
    pref = side.pref
    f = side.f if side.at == B else None
    stripe_cuts = _backtrack_stripes(pref, B, m, side.memo, f)
    stripes = list(zip(stripe_cuts[:-1].tolist(), stripe_cuts[1:].tolist()))
    # minimum per-stripe processor counts at bottleneck B
    need = np.array([_stripe_min_parts(pref, a, b, B, m) for a, b in stripes], dtype=np.int64)
    spare = m - int(need.sum())
    if spare > 0:
        # spread idle processors where they help the within-stripe balance
        rowsum = pref.axis_prefix(0, reuse=True)
        loads = rowsum[stripe_cuts[1:]] - rowsum[stripe_cuts[:-1]]
        need = need + allocate_processors(loads, spare + len(stripes)) - 1
    assert int(need.sum()) == m  # allocate_processors returns exactly spare + P
    col_cuts = []
    for (a, b), q in zip(stripes, need.tolist()):
        band = pref.axis_prefix(1, a, b, reuse=True)
        # optimal within the stripe: q >= its minimum count, which fits at B
        bq = bisect_bottleneck(band, q)
        assert bq <= B
        cc = probe_cuts(band, q, bq)
        assert cc is not None
        col_cuts.append(cc)
    # every stripe fits at B, and no m-way jagged partition fits below it
    return build_jagged_partition(
        pref, stripe_cuts, col_cuts, method="JAG-M-OPT", pad_to=m, lmax=B
    )


def jag_m_opt(A: MatrixLike, m: int, *, orientation: str = "best") -> Partition:
    """Optimal m-way jagged partition (§3.2.2) in the -HOR, -VER or -BEST variant (§4.1).

    -HOR and -VER solve one orientation.  -BEST (the default, §4.2) keeps
    the better of the two, ties to HOR, as one bisection on
    ``min(opt_HOR, opt_VER)`` (:func:`_optimum`) that builds only the
    winner.
    """
    m, pref = check_count(m, "m"), prefix_2d(A)
    o = check_choice(orientation, "orientation", ("hor", "ver", "best"))
    if o == "hor":
        prefs: tuple[PrefixSum2D, ...] = (pref,)
    else:
        T = pref.transpose()
        prefs = (T,) if o == "ver" else (pref, T)

    def solve() -> Partition:
        win, B = _optimum(prefs, m)
        part = _build(win, B, m)
        if win.pref is pref:
            part.meta["orientation"] = "hor"
            return part
        out = part.transpose().with_method(part.method)
        out.meta["orientation"] = "ver"
        return out

    return _healed(solve, *prefs)


# ----------------------------------------------------------------------
# The paper's dynamic program (small-instance oracle)
# ----------------------------------------------------------------------
def jag_m_opt_dp_bottleneck(pref: PrefixSum2D, m: int, *, limit: int = 1 << 22) -> int:
    """The paper's DP formulation, memoized — exact but high complexity.

    ``Lmax(i, q) = min_{k <= i, x <= q} max(Lmax(k, q - x), 1D(k, i, x))``
    with ``1D`` the optimal auxiliary-dimension partition of stripe
    ``[k, i)`` on ``x`` processors.  Guarded by ``limit`` on ``n1²·m`` to
    avoid accidental huge runs; use :func:`jag_m_opt_bottleneck` for real
    instances.
    """
    check_count(m, "m")
    n1 = pref.n1
    if n1 * n1 * m > limit:
        raise ParameterError(
            f"instance too large for the paper DP (n1²·m = {n1 * n1 * m} > {limit})"
        )
    @lru_cache(maxsize=None)
    def oneD(k: int, i: int, x: int) -> int:
        band = pref.axis_prefix(1, k, i)
        return bisect_bottleneck(band, x)

    @lru_cache(maxsize=None)
    def Lmax(i: int, q: int) -> int:
        if i == 0:
            return 0
        if q == 0:
            return _INF
        best = _INF
        for x in range(1, q + 1):
            for k in range(i):
                v = max(Lmax(k, q - x), oneD(k, i, x))
                if v < best:
                    best = v
        return best

    return int(Lmax(n1, m))
