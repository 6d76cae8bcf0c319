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
(property-tested).
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.bisect import bisect_bottleneck
from ..oned.probe import min_parts, probe_cuts
from ..perf.kernels import min_parts_batch
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition, oriented
from .m_heur import _jag_m_heur_main0, allocate_processors

__all__ = ["jag_m_opt", "jag_m_opt_bottleneck", "jag_m_opt_dp_bottleneck"]

_INF = np.iinfo(np.int64).max // 4

#: expected-interval threshold above which the jump-table kernel beats the
#: scalar greedy: the table costs one O(n2) vectorized searchsorted while
#: the scalar path costs one list bisection per interval actually placed
_BATCH_MIN_PARTS = 48


def _stripe_min_parts(
    pref: PrefixSum2D, k: int, i: int, B: int, cap: int, est: int = 1
) -> int:
    """Greedy rectangle count for stripe rows ``[k, i)`` at bottleneck ``B``.

    The feasibility DP revisits the same ``(k, i)`` stripes on every
    bisection iteration, so the stripe projection is served from the
    prefix cache instead of re-materializing ``G[i,:] - G[k,:]`` (and
    re-converting it to a list) per call.
    ``est`` is the caller's lower bound on the interval count
    (``ceil(load/B)``): the jump-table kernel only pays off when the greedy
    walk is long, which ``est`` predicts and ``cap`` does not.
    """
    if min(est, cap) >= _BATCH_MIN_PARTS:
        return min_parts_batch(pref.axis_prefix(1, k, i, reuse=True), B, cap=cap)
    return min_parts(pref.boundary_list(1, k, i, reuse=True), B, cap=cap)


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
    parts = _stripe_min_parts(pref, k, i, B, cap, est=lo)
    _memo_record(memo, (k, i), entries, (B, parts, parts <= cap))
    return parts


def _level_end_dp(pref: PrefixSum2D, B: int, m_cap: int, memo: dict) -> list[int] | None:
    """The DP's ``f`` (as a list), or None once a row needs more than ``m_cap``.

    ``f`` is non-decreasing and ``parts(k, i, B)`` non-increasing in ``k``,
    so row ``i`` scans only the *level ends* (the last start of each run of
    equal ``f``), by ascending lower bound, stopping at the first bound that
    cannot improve or once ``best == f(i-1)``.  Bounds only grow with ``i``
    (so does ``parts``, which a level end carries to the next row), so a
    heap of stale bounds refreshed when popped yields that order.
    """
    rs = pref.axis_prefix(0, reuse=True).tolist()
    D = max(B, 1)  # ceil(load/D) bounds parts for any D >= B (at B = 0 only zeros fit)
    f = [0]
    heap = [(1, 0, 1)]  # (stale bound on f(k) + parts(k, i, B), level end k, parts bound)
    for i in range(1, pref.n1 + 1):
        floor, ri, best = f[-1], rs[i], m_cap + 1
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


def _min_processors(
    pref: PrefixSum2D, B: int, m_cap: int, memo: dict | None = None
) -> np.ndarray | None:
    """``f`` array of the minimum-processor DP, or None when ``f > m_cap`` everywhere.

    ``f[i]`` = minimum rectangles of load ``<= B`` forming a jagged partition
    of rows ``[0, i)`` (all columns).  ``memo`` carries stripe facts across
    bisection iterations (see :func:`_memo_parts`).
    """
    fl = _level_end_dp(pref, B, m_cap, {} if memo is None else memo)
    return None if fl is None else np.array(fl, dtype=np.int64)


def _shared_memo(pref: PrefixSum2D) -> dict:
    """The stripe memo to use: sweep-shared when a sweep is active.

    The memo facts are functions of the stripe and the probed bottleneck
    alone (m never enters), so one memo soundly serves every bisection of
    every sweep step over the same prefix.
    """
    state = _sweep_current()
    if state is not None:
        memo = state.stripe_memo(pref)
        if memo is not None:
            return memo
    return {}


def jag_m_opt_bottleneck(
    pref: PrefixSum2D, m: int, *, ub: int | None = None, memo: dict | None = None
) -> int:
    """Optimal m-way jagged bottleneck (main dimension 0) by exact bisection.

    Under an active :mod:`repro.sweep` context the bisection window is
    tightened from bounds proved by earlier calls on the same prefix
    (monotone in ``m``), the internal heuristic upper bound is skipped when
    a same-``m`` witness is already recorded, and the stripe memo is shared
    across sweep steps.  All of these only narrow a valid bracket or reuse
    proven stripe facts, so the returned optimum is bit-identical to a cold
    call's.
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    state = _sweep_current()
    wlb: int | None = None
    wub: int | None = None
    if state is not None:
        exact, wlb, wub = state.mono_bounds(pref, "jag_m", m)
        if exact is not None:
            return exact
    lb = max(-(-pref.total // m), pref.max_element())
    if wlb is not None and wlb > lb:
        lb = wlb
    if ub is None:
        if state is not None and state.mono_witness(pref, "jag_m", m) is not None:
            # a same-m witness is exactly what the internal heuristic would
            # prove (or tighter); any valid ub leaves the bisection result
            # unchanged, so skip recomputing it
            ub = wub
        else:
            heur = _jag_m_heur_main0(pref, m)
            ub = heur.max_load(pref)
    assert ub is not None
    ub = max(lb, int(ub))
    if wub is not None and wub < ub:
        ub = max(lb, wub)
    if memo is None:
        memo = _shared_memo(pref)
    # F(B) = minimum processors at bottleneck B is one non-increasing
    # staircase shared by every m, so each probe's exact result (or its
    # proven "> m_cap" lower bound) is recorded under _PROBE_KEY and can
    # answer probes of *later* bisections outright.  Within a single
    # bisection the facts never decide — the window is always the still-
    # undecided gap — so a cold call's probe trajectory is unchanged, and
    # a decided probe returns exactly what the DP would have computed,
    # keeping the converged optimum bit-identical.
    while lb < ub:
        mid = (lb + ub) // 2
        feasible: bool | None = None
        entries = memo.get(_PROBE_KEY)
        if entries is not None:
            flo, fhi = _memo_bounds(entries, mid)
            if fhi is not None and fhi <= m:
                feasible = True
            elif flo > m:
                feasible = False
        if feasible is None:
            f = _min_processors(pref, mid, m, memo)
            feasible = f is not None
            rec = (mid, int(f[pref.n1]), True) if f is not None else (mid, m + 1, False)
            _memo_record(memo, _PROBE_KEY, entries, rec)
        if feasible:
            ub = mid
        else:
            lb = mid + 1
    if state is not None:
        state.record_mono_opt(pref, "jag_m", m, int(lb))
    return int(lb)


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


def _backtrack_stripes(pref: PrefixSum2D, B: int, m: int, memo: dict | None = None) -> np.ndarray:
    """Stripe cuts of a minimum-processor solution at bottleneck ``B``."""
    cuts = [pref.n1]
    memo = {} if memo is None else memo
    fl = _level_end_dp(pref, B, m, memo)
    assert fl is not None, "backtrack called with infeasible bottleneck"
    rs = pref.axis_prefix(0, reuse=True).tolist()
    while cuts[-1] > 0:
        cuts.append(_path_start(pref, rs, fl, cuts[-1], B, memo))
    return np.array(cuts[::-1], dtype=np.int64)


def _jag_m_opt_main0(pref: PrefixSum2D, m: int) -> Partition:
    """Optimal m-way jagged partition (§3.2.2) on main dimension 0."""
    memo = _shared_memo(pref)
    B = jag_m_opt_bottleneck(pref, m, memo=memo)
    stripe_cuts = _backtrack_stripes(pref, B, m, memo)
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
    return build_jagged_partition(pref, stripe_cuts, col_cuts, method="JAG-M-OPT", pad_to=m)


jag_m_opt = oriented(_jag_m_opt_main0)
jag_m_opt.__name__ = "jag_m_opt"


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
