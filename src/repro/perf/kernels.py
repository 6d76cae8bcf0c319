"""The stable kernel interface: named kernels, each with an oracle body.

Grown out of ``repro.perf.batch`` (PR 2): every inner loop of the
partitioners lives here as a *named kernel* with a ``reference`` and a
``numpy`` slot —

``reference``
    A self-contained scalar transliteration of the algorithm (Python
    ``bisect`` / exact int arithmetic).  This is the oracle the ``numpy``
    body is property-tested against bit-for-bit
    (``tests/test_kernels_equality.py``, ``tests/test_backend_equality.py``).
``numpy``
    The vectorized array-program formulation (segmented scoring of a tree
    level's windows, windowed striped walks).  The body production calls.

A numpy body stays only while some end-to-end workload measurably needs it
(``docs/performance.md``, "Kernel A/B"): ``weighted_cut``,
``relaxed_split`` and ``probe_multi`` have one; ``probe_batch``,
``min_parts``, ``probe_cuts`` and ``alloc_tail`` are one scalar body filling
both slots.  The scalar §2.2 Probe walks (:func:`probe`,
:func:`min_parts`, ``probe_cuts``) are written once, here, and
:mod:`repro.oned.probe` re-exports them.

Production calls the ``numpy`` slot only.  The public entry points below
look their entry up in :data:`KERNELS` on every call, so replacing an entry
reaches every call site at once.  That is how
the tests run a solve on the oracles (``tests/conftest.py``'s
``reference_kernels`` puts each ``reference`` body into its ``numpy``
slot) and how the end-to-end tracer wraps both slots.

This module is deliberately self-contained — it imports nothing from the
algorithm packages (``oned``/``jagged``/``hierarchical``), because those
packages import *it*.

Overflow discipline: the scalar walks search exact Python ints, the striped
walk compares differences of prefixes against a ``B`` clamped to the
largest stripe total, and the frontier cut kernels fall back to their exact
Python-int scalar code when a window's ``total · w`` or ``total · (m-1)``
could exceed int64, so loads near ``2**62`` are safe in either body.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .counters import _STACK as _OPS
from .counters import bump

__all__ = [
    "Kernel",
    "KERNELS",
    "as_boundary_list",
    "probe",
    "min_parts",
    "probe_cuts",
    "weighted_cuts",
    "relaxed_splits",
    "alloc_tail",
    "probe_multi",
    "MultiWalk",
    "StepMemo",
]

_I64_MAX = 2**63 - 1

#: frontier cut kernels: below this many candidate cuts in one batch the
#: numpy body scores window by window with the scalar code — a segmented
#: pass costs a fixed ~0.15 ms of numpy calls, a scalar candidate 1–2 µs.
#: Measured crossover on the bench box, see docs/performance.md
#: ("Frontier-batched hierarchical growth")
_FRONTIER_MIN_CANDS = 96


# ----------------------------------------------------------------------
# the §2.2 Probe greedy: decision, interval count and cut points
# ----------------------------------------------------------------------
# Each walk places the largest prefix of load <= B per interval: one
# ``bisect_right`` on a plain boundary list per interval (C speed, ~0.1 µs,
# where a scalar ``np.searchsorted`` costs ~1.5 µs of wrapper overhead).
def as_boundary_list(P: np.ndarray | list[int]) -> list[int]:
    """Convert a prefix array to the list form the probe walks search."""
    if isinstance(P, list):
        return P
    return P.tolist()


def _probe_walk(Pl: list[int], m: int, B: int, lo: int, hi: int) -> tuple[bool, int]:
    """Greedy walk over ``[lo, hi)`` with at most ``m`` intervals: ``(feasible, steps)``."""
    if B < 0:
        return False, 0
    pos = lo
    for k in range(m):
        if pos >= hi:
            return True, k
        # rightmost boundary nxt in (pos, hi] with P[nxt] <= P[pos] + B
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:  # single cell exceeds B
            return False, k + 1
        pos = nxt
    return pos >= hi, m


def probe(P: np.ndarray | list[int], m: int, B: int, lo: int = 0, hi: int | None = None) -> bool:
    """Exact decision: can ``[lo, hi)`` be cut into ``<= m`` intervals of load ``<= B``?

    ``P`` is a prefix-sum array or list (``P[0] == 0``); indices refer to
    cell boundaries, so the searched range covers cells ``lo .. hi-1``.
    A negative ``B`` is infeasible.
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    ok, steps = _probe_walk(Pl, m, B, lo, hi)
    if _OPS:  # the walk itself carries no bookkeeping
        bump("probe_calls")
        bump("probe_steps", steps)
    return ok


def min_parts(
    P: np.ndarray | list[int], B: int, lo: int = 0, hi: int | None = None, cap: int | None = None
) -> int:
    """Minimum number of intervals of load ``<= B`` covering ``[lo, hi)``.

    Returns ``cap + 1`` as soon as more than ``cap`` intervals are needed
    (early abort for branch-and-bound callers), and ``cap + 1`` as well when
    no count is feasible: some single cell exceeds ``B``, or ``B < 0`` (as
    in :func:`probe`).  With ``cap=None`` an infeasible call raises
    ``ValueError``.
    The walk stops as soon as the load left exceeds what the intervals left
    under the cap can carry, and still answers as the full walk (proof:
    ``docs/algorithms.md``, JAG-M-OPT).
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    limit = cap if cap is not None else (hi - lo) + 1
    need = Pl[hi] - limit * B  # the smallest P[pos] the remaining parts can carry
    pos = lo
    parts = 0
    while pos < hi:
        if parts >= limit:
            return limit + 1
        if Pl[pos] < need:  # more than ``limit`` parts (or none) can cover the rest
            break
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:  # single cell exceeds B (always, when B < 0)
            break
        pos = nxt
        parts += 1
        need += B
    else:
        if B >= 0:
            return parts
    if cap is None:
        raise ValueError(f"no interval count is feasible at bottleneck {B}")
    return limit + 1


def _probe_cuts(
    P: np.ndarray | list[int], m: int, B: int, lo: int = 0, hi: int | None = None
) -> np.ndarray | None:
    """Scalar greedy cuts (the contract of :func:`probe_cuts`)."""
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    if B < 0:
        return None
    cuts = np.empty(m + 1, dtype=np.int64)
    cuts[0] = lo
    pos = lo
    for p in range(1, m + 1):
        if pos < hi:
            nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
            if nxt <= pos:
                return None
            pos = nxt
        cuts[p] = pos
    if pos < hi:
        return None
    cuts[m] = hi
    return cuts


def _probe_batch(
    P: np.ndarray, m: int, Bs: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """One :func:`probe` decision per candidate bottleneck in ``Bs``."""
    Pl = as_boundary_list(np.asarray(P, dtype=np.int64))
    Bl = np.atleast_1d(np.asarray(Bs, dtype=np.int64)).tolist()
    return np.array([probe(Pl, m, b, lo, hi) for b in Bl], dtype=bool)


# ----------------------------------------------------------------------
# frontier batches — the ragged windows the hierarchical kernels score
# ----------------------------------------------------------------------
# A batch is one flat int64 array ``vals`` and ``K + 1`` offsets ``offs``
# (see ``LoadView.band_windows``): window ``k`` is ``vals[offs[k]:offs[k+1]]``,
# the boundaries ``[j0, j1]`` of one tree node's un-rebased axis projection
# (non-empty, non-decreasing), so it spans ``L = j1 - j0`` cells.  Cuts come
# back relative to the window start.  The rebased band prefix is
# ``w - w[0]``; shifting every comparison by the constant ``w[0]`` leaves the
# integer searches and the integer scores unchanged, so no window is copied.
def _windows(vals: np.ndarray, offs: np.ndarray) -> list[np.ndarray]:
    """The batch's windows, as views of ``vals``."""
    o = offs.tolist()
    return [vals[a:b] for a, b in zip(o, o[1:])]


def _totals(
    vals: np.ndarray, offs: np.ndarray, reach: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(base, total)`` of every window, or None when the batch must stay scalar.

    None when a total times ``reach`` (the largest factor a kernel multiplies
    a total by) could leave int64: the scalar code is exact in Python ints.
    """
    base = vals[offs[:-1]]
    total = vals[offs[1:] - 1] - base
    if int(total.max()) * reach > _I64_MAX:
        return None
    return base, total


def _last_at_most(
    vals: np.ndarray, start: np.ndarray, stop: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Per search, the last index ``i`` in ``[start, stop)`` with ``vals[i] <= t``.

    A lockstep binary search, each search inside its own window (which must
    have ``vals[start] <= t``): every round halves every bracket, so
    ``ceil(log2(longest window))`` rounds of a few array operations answer
    the whole batch without a pass over the windows' values.
    """
    lo, hi = start, stop
    for _ in range(int((stop - start).max() - 1).bit_length()):
        mid = (lo + hi) >> 1
        le = vals[mid] <= t
        lo = np.where(le, mid, lo)
        hi = np.where(le, hi, mid)
    return lo


def _first_argmin(x: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Index of the first minimum of each segment of ``x`` (``np.argmin``'s tie rule).

    Segments are contiguous and non-empty: ``starts`` holds their first
    indices and ``seg`` the segment of every element.
    """
    low = np.minimum.reduceat(x, starts)
    idx = np.where(x == low[seg], np.arange(len(x)), len(x))
    return np.minimum.reduceat(idx, starts)


# ----------------------------------------------------------------------
# weighted_cut — HIER-RB cut selection over a frontier of windows
# ----------------------------------------------------------------------
def _weighted_cut_window(
    w: np.ndarray, orientations: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int] | None:
    """Best weighted cut of one window: scalar, exact Python-int scores."""
    L = len(w) - 1
    if L < 2:
        return None
    if _OPS:
        bump("cut_calls", len(orientations))
    base = int(w[0])
    total = int(w[-1]) - base
    best: tuple[int, int, int, int] | None = None
    for w1, w2 in orientations:
        # integer bp ≤ total·w1/(w1+w2)  ⇔  bp ≤ floor(·): the floor target is exact
        c = int(w.searchsorted(base + (total * w1) // (w1 + w2), side="right")) - 1
        found: tuple[int, int] | None = None
        for cand in (c, c + 1):
            if cand < 1 or cand > L - 1:
                continue
            l1 = int(w[cand]) - base
            v = max(l1 * w2, (total - l1) * w1)
            if found is None or v < found[1]:
                found = (cand, v)
        if found is None:
            # balance point at a border; fall back to the nearest interior cut
            cand = min(max(c, 1), L - 1)
            l1 = int(w[cand]) - base
            found = (cand, max(l1 * w2, (total - l1) * w1))
        if best is None or found[1] < best[1]:
            best = (found[0], found[1], w1, w2)
    return best


def _weighted_cut_reference(
    vals: np.ndarray, offs: np.ndarray, orientations: Sequence[tuple[tuple[int, int], ...]]
) -> list[tuple[int, int, int, int] | None]:
    """Window by window: the scalar search and scoring of each node."""
    return [_weighted_cut_window(w, o) for w, o in zip(_windows(vals, offs), orientations)]


def _weighted_cut_numpy(
    vals: np.ndarray, offs: np.ndarray, orientations: Sequence[tuple[tuple[int, int], ...]]
) -> list[tuple[int, int, int, int] | None]:
    """Every (window, orientation) of the batch scored in one segmented pass.

    One lockstep search (:func:`_last_at_most`) finds every balance point;
    both neighbours are scored as exact int64 ``max(L1·w2, L2·w1)``, the
    scalar code's rules pick one per orientation, and the first orientation
    attaining a window's minimum wins.  Batches under ``_FRONTIER_MIN_CANDS``
    candidates, and batches whose ``total · w`` could leave int64, take the
    scalar code.
    """
    cnt = list(map(len, orientations))
    if 2 * sum(cnt) < _FRONTIER_MIN_CANDS:
        return _weighted_cut_reference(vals, offs, orientations)
    wts = np.array([w for o in orientations for w in o], dtype=np.int64).reshape(-1, 2)
    K = len(cnt)
    L = np.diff(offs) - 1
    live = (L >= 2) & (np.array(cnt) > 0)
    seg = _totals(vals, offs, int(wts.max())) if live.any() else None
    if seg is None:
        return _weighted_cut_reference(vals, offs, orientations)
    base, total = seg
    on = np.repeat(live, cnt)  # per (window, orientation): scored at all
    k = np.repeat(np.arange(K), cnt)[on]
    w1, w2 = wts[on].T
    if _OPS:
        bump("cut_calls", len(k))
    tot, Lk, o, b = total[k], L[k], offs[k], base[k]
    c = _last_at_most(vals, o, offs[k + 1], b + tot * w1 // (w1 + w2)) - o
    ca = np.clip(c, 1, Lk - 1)
    cb = np.minimum(c + 1, Lk - 1)
    la = vals[o + ca] - b
    lb = vals[o + cb] - b
    va = np.maximum(la * w2, (tot - la) * w1)
    vb = np.maximum(lb * w2, (tot - lb) * w1)
    # keep c unless c + 1 is interior and c is not (c = 0) or scores
    # strictly worse; c = L has neither interior and falls back to L - 1 = ca
    right = (c < Lk - 1) & ((c < 1) | (vb < va))
    cut = np.where(right, cb, ca)
    v = np.where(right, vb, va)
    n = np.array(cnt)[live]  # orientations per scored window
    starts = np.zeros(len(n), dtype=np.int64)
    np.cumsum(n[:-1], out=starts[1:])
    i = _first_argmin(v, starts, np.repeat(np.arange(len(n)), n))
    out: list[tuple[int, int, int, int] | None] = [None] * K
    for kk, row in zip(
        np.flatnonzero(live).tolist(),
        zip(cut[i].tolist(), v[i].tolist(), w1[i].tolist(), w2[i].tolist()),
    ):
        out[kk] = row
    return out


# ----------------------------------------------------------------------
# relaxed_split — joint (cut, processor split) selection for HIER-RELAXED
# ----------------------------------------------------------------------
def _relaxed_split_window(w: np.ndarray, m: int) -> tuple[int, int, float] | None:
    """HIER-RELAXED node rule on one window: scalar scoring of every split.

    Candidates are both neighbours of every balance point ``total·j/m``: all
    ``lo`` cuts in ``j`` order, then all ``lo + 1`` cuts.  Each scores
    ``max(L1/j, L2/(m-j))`` in floats from the exact integers; among
    candidates within 0.1% of the best the most balanced split wins, the
    first one on ties.
    """
    L = len(w) - 1
    if L < 2 or m < 2:
        return None
    if _OPS:
        bump("cut_calls")
    base = int(w[0])
    total = int(w[-1]) - base
    n = m - 1
    # exact Python-int targets (each fits int64: at most base + total); the
    # "right" insertion points are one past the lo cuts
    ends = w.searchsorted([base + (total * jv) // m for jv in range(1, m)], side="right")
    cuts: list[int] = []
    scores: list[float] = []
    v: float | None = None
    for off in (-1, 0):
        for jv, end in enumerate(ends.tolist(), 1):
            cut = end + off
            if cut < 1:
                cut = 1
            elif cut > L - 1:
                cut = L - 1
            l1 = float(int(w[cut]) - base)  # repro-lint: disable=RPL003 — relaxed score
            a = l1 / jv  # repro-lint: disable=RPL003
            b = (total - l1) / (m - jv)  # repro-lint: disable=RPL003
            if b > a:
                a = b
            cuts.append(cut)
            scores.append(a)
            if v is None or a < v:
                v = a
    assert v is not None
    # many (cut, j) pairs score within noise of each other; among splits
    # within 0.1% of the best score, prefer the most balanced processor
    # split — unbalanced chains deepen the tree and accumulate rounding
    # error (tests/test_kernels_equality.py bounds the score against the
    # per-j optimum)
    thr = v * (1.0 + 1e-3) + 1e-9
    best_bal = -1
    best_i = 0
    for i, val in enumerate(scores):
        if val <= thr:
            jv = i % n + 1
            bal = jv if jv <= m - jv else m - jv
            if bal > best_bal:
                best_bal, best_i = bal, i
    return (cuts[best_i], best_i % n + 1, scores[best_i])


def _relaxed_split_reference(
    vals: np.ndarray, offs: np.ndarray, ms: Sequence[int]
) -> list[tuple[int, int, float] | None]:
    """Window by window: the scalar node rule of each node."""
    return [_relaxed_split_window(w, int(m)) for w, m in zip(_windows(vals, offs), ms)]


def _relaxed_split_numpy(
    vals: np.ndarray, offs: np.ndarray, ms: Sequence[int]
) -> list[tuple[int, int, float] | None]:
    """Every window's ``2(m-1)`` candidates scored in one segmented pass.

    One lockstep search (:func:`_last_at_most`) finds the balance point of
    every split of every window; the candidates are laid
    out window by window in the scalar code's order, scored with the same
    float arithmetic on the same integers, and reduced per window (minimum,
    near-tie threshold, first most balanced split), so each choice is the
    scalar one bit for bit.  Batches under ``_FRONTIER_MIN_CANDS``
    candidates, and batches whose ``total · (m-1)`` could leave int64, take
    the scalar code.
    """
    if 2 * (sum(ms) - len(ms)) < _FRONTIER_MIN_CANDS:
        return _relaxed_split_reference(vals, offs, ms)
    m = np.asarray(ms, dtype=np.int64)
    L = np.diff(offs) - 1
    live = (L >= 2) & (m >= 2)
    n = m[live] - 1  # processor splits j ∈ [1, m) per live window
    ncand = 2 * int(n.sum())
    seg = _totals(vals, offs, int(n.max(initial=0)))
    if seg is None or ncand == 0:
        return _relaxed_split_reference(vals, offs, ms)
    base, total = seg
    ks = np.flatnonzero(live)
    if _OPS:
        bump("cut_calls", len(ks))
    # one balance-point search per (window, j), window-major, j ascending
    js = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=js[1:])
    sj = np.repeat(np.arange(len(n)), n)
    j = np.arange(js[-1]) - js[sj] + 1
    kj = ks[sj]
    o = offs[kj]
    lo = _last_at_most(vals, o, offs[kj + 1], base[kj] + total[kj] * j // m[kj]) - o
    # candidates: per window every lo cut, then every lo + 1 cut
    starts = 2 * js[:-1]
    sc = np.repeat(np.arange(len(n)), 2 * n)
    q = np.arange(ncand) - starts[sc]
    nc = n[sc]
    second = q >= nc
    t = js[sc] + np.where(second, q - nc, q)
    kc = ks[sc]
    cut = np.clip(lo[t] + second, 1, L[kc] - 1)
    jj = j[t]
    mj = m[kc] - jj
    # the relaxed node score is an estimate by construction: vectorized
    # float scoring is the documented RPL003 exemption; the partition loads
    # themselves stay exact
    l1 = (vals[offs[kc] + cut] - base[kc]).astype(np.float64)  # repro-lint: disable=RPL003
    val = np.maximum(l1 / jj, (total[kc] - l1) / mj)  # repro-lint: disable=RPL003
    v2 = np.minimum.reduceat(val, starts)
    near = val <= (v2 * (1.0 + 1e-3) + 1e-9)[sc]
    bal = np.where(near, np.minimum(jj, mj), -1)
    i = _first_argmin(-bal, starts, sc)
    out: list[tuple[int, int, float] | None] = [None] * len(ms)
    for kk, row in zip(ks.tolist(), zip(cut[i].tolist(), jj[i].tolist(), val[i].tolist())):
        out[kk] = row
    return out


# ----------------------------------------------------------------------
# alloc_tail — JAG-M-HEUR stripe-allocation shave + leftover-assign tail
# ----------------------------------------------------------------------
def _alloc_tail(loads: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """Exact ``Fraction``-keyed shave/assign loops (the paper's rule verbatim)."""
    P = len(loads)
    out = np.array(q, dtype=np.int64)
    while int(out.sum()) > m:
        s = min(
            (s for s in range(P) if out[s] > 1),
            key=lambda s: Fraction(int(loads[s]), int(out[s])),
        )
        out[s] -= 1
    remaining = m - int(out.sum())
    if remaining > 0:
        heap = [(Fraction(-int(loads[s]), int(out[s])), s) for s in range(P)]
        heapq.heapify(heap)
        for _ in range(remaining):
            _, s = heapq.heappop(heap)
            out[s] += 1
            heapq.heappush(heap, (Fraction(-int(loads[s]), int(out[s])), s))
    return out


# ----------------------------------------------------------------------
# probe_multi — striped-cost probe for RECT-NICOL's inner 1D problem
# ----------------------------------------------------------------------
#: what a striped greedy walk proves: ``(feasible, bound, cuts)``
MultiWalk = tuple[bool, int, "list[int] | None"]

#: one solve's step windows: ``pos -> (end, cost)``, where ``cost[k]`` is the
#: striped cost ``max_s (M[s, pos+k] - M[s, pos])`` of every end up to ``end``
StepMemo = dict[int, tuple[int, np.ndarray]]


def _probe_multi_reference(M: Any, m: int, B: int, memo: StepMemo | None = None) -> MultiWalk:
    """Scalar greedy with per-stripe shrinking-window binary searches.

    A step from ``pos`` reaches the furthest ``j`` whose striped cost
    ``max_s (M[s, j] - M[s, pos])`` is at most ``B``.  A feasible walk
    returns the largest step cost (its realised bottleneck) and its ``m + 1``
    cuts; an infeasible one returns the cheapest one-boundary extension of
    any step it took: every ``B'`` below that value walks the same steps.
    ``memo`` is accepted for the dispatcher's signature and ignored.
    """
    arr = np.asarray(M, dtype=np.int64)
    rows: list[list[int]] = arr.tolist()
    n = arr.shape[1] - 1
    if B < 0:
        return False, 0, None
    pos = 0
    cuts = [0]
    bound = 0
    exts: list[int] = []
    for _ in range(m):
        if pos >= n:
            break
        j = n
        for row in rows:
            r = bisect_right(row, row[pos] + B, pos, j + 1) - 1
            if r < j:
                j = r
                if j <= pos:
                    break
        if j < n:  # j < n needs a stripe, so the max has an argument
            exts.append(max(row[j + 1] - row[pos] for row in rows))
        if j <= pos:
            return False, min(exts), None
        bound = max(bound, max((row[j] - row[pos] for row in rows), default=0))
        pos = j
        cuts.append(j)
    if pos < n:
        # an m = 0 walk takes no step, so it proves nothing beyond B
        return False, min(exts, default=B + 1), None
    return True, bound, cuts + [n] * (m + 1 - len(cuts))


def _probe_multi_numpy(M: Any, m: int, B: int, memo: StepMemo | None = None) -> MultiWalk:
    """Windowed striped walk on the stacked int64 prefix matrix.

    Each step takes the column max of ``M[:, pos:pos+w+1] - M[:, pos]`` —
    the striped cost of every end in the window, non-decreasing — and one
    ``searchsorted`` finds the reach; the next column of the same row is
    the extension cost.  ``w`` starts at about twice the mean interval
    ``n/m`` and doubles while the reach hits the window edge, so a walk
    touches O(S·n) entries in all.  ``B`` is clamped to the largest stripe
    total: any larger bottleneck walks identically, and the costs stay in
    int64.  Degenerate shapes (no stripes, no cells, ``m < 1``, ``B < 0``)
    take the scalar walk.

    ``memo`` (one per solve, i.e. per ``M``) keeps every step's cost
    window: a later walk reaching the same ``pos`` searches the cached
    window and recomputes, twice as wide, only when its reach hits the
    cached edge.  A window's reach and extension do not depend on its
    width once the reach lies inside it, so the tuples are unchanged.
    """
    arr = np.ascontiguousarray(M, dtype=np.int64)
    if arr.ndim != 2:
        arr = arr.reshape(1, -1)
    n = arr.shape[1] - 1
    if B < 0 or m < 1 or arr.shape[0] == 0 or n <= 0:
        return _probe_multi_reference(arr, m, B)
    B = min(B, int(arr[:, n].max()))
    w0 = max(2 * n // m, 1)
    pos = 0
    cuts = [0]
    bound = 0
    ext = -1
    while len(cuts) <= m and pos < n:
        hit = None if memo is None else memo.get(pos)
        if hit is not None:
            end, cost = hit
            r = int(cost.searchsorted(B, side="right")) - 1
        if hit is None or (pos + r >= end and end < n):
            w = w0 if hit is None else 2 * (end - pos)
            while True:
                end = pos + w if pos + w < n else n
                win = arr[:, pos : end + 1]  # repro-lint: disable=RPL002 — boundary window, not cells
                cost = np.maximum.reduce(win - win[:, :1], axis=0)
                r = int(cost.searchsorted(B, side="right")) - 1
                if pos + r < end or end == n:
                    break
                w *= 2
            if memo is not None:
                memo[pos] = (end, cost)
        if pos + r < n:
            e = int(cost[r + 1])
            if ext < 0 or e < ext:
                ext = e
        if r == 0:
            return False, ext, None
        c = int(cost[r])
        if c > bound:
            bound = c
        pos += r
        cuts.append(pos)
    if pos < n:
        return False, ext, None
    return True, bound, cuts + [n] * (m + 1 - len(cuts))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """One named kernel: its reference (oracle) and numpy implementations.

    A kernel with no numpy body holds its one body in both slots.
    """

    name: str
    reference: Callable[..., Any]
    numpy: Callable[..., Any]


KERNELS: dict[str, Kernel] = {
    # no caller: kept so the registry keys (the e2e per-kernel metrics) stay fixed
    "probe_batch": Kernel("probe_batch", _probe_batch, _probe_batch),
    "min_parts": Kernel("min_parts", min_parts, min_parts),
    "probe_cuts": Kernel("probe_cuts", _probe_cuts, _probe_cuts),
    "weighted_cut": Kernel("weighted_cut", _weighted_cut_reference, _weighted_cut_numpy),
    "relaxed_split": Kernel(
        "relaxed_split", _relaxed_split_reference, _relaxed_split_numpy
    ),
    "alloc_tail": Kernel("alloc_tail", _alloc_tail, _alloc_tail),
    "probe_multi": Kernel("probe_multi", _probe_multi_reference, _probe_multi_numpy),
}


# ----------------------------------------------------------------------
# public entry points (stable signatures; each resolves KERNELS per call)
# ----------------------------------------------------------------------
def probe_cuts(
    P: np.ndarray | list[int], m: int, B: int, lo: int = 0, hi: int | None = None
) -> np.ndarray | None:
    """Greedy cut points realizing bottleneck ``B``, or None if infeasible.

    Returns an int array of length ``m + 1`` with ``cuts[0] == lo`` and
    ``cuts[m] == hi``; trailing intervals may be empty when fewer than ``m``
    intervals suffice.  ``P`` is a prefix array or boundary list.
    """
    return KERNELS["probe_cuts"].numpy(P, m, B, lo, hi)


def weighted_cuts(
    vals: np.ndarray, offs: np.ndarray, orientations: Sequence[tuple[tuple[int, int], ...]]
) -> list[tuple[int, int, int, int] | None]:
    """HIER-RB cut of every window of a frontier batch (see ``_windows``).

    Window ``k`` is ``vals[offs[k]:offs[k+1]]``; its cut minimizes
    ``max(L1/w1, L2/w2)`` over ``orientations[k]``, and the first
    orientation attaining the minimum wins.  Per window ``(cut_rel,
    value · w1·w2, w1, w2)``, or None when it has fewer than 2 cells; scores
    are exact scaled ints in either body.
    """
    return KERNELS["weighted_cut"].numpy(vals, offs, orientations)


def relaxed_splits(
    vals: np.ndarray, offs: np.ndarray, ms: Sequence[int]
) -> list[tuple[int, int, float] | None]:
    """HIER-RELAXED ``(cut_rel, j, value)`` of every window of a frontier batch.

    Window ``k`` (as in :func:`weighted_cuts`) holds ``ms[k]`` processors;
    its cut and split ``j ∈ [1, ms[k])`` jointly minimize
    ``max(L1/j, L2/(m-j))``.  None when the window has fewer than 2 cells
    or ``ms[k] < 2``.
    """
    return KERNELS["relaxed_split"].numpy(vals, offs, ms)


def alloc_tail(loads: np.ndarray, q: Sequence[int] | np.ndarray, m: int) -> np.ndarray:
    """JAG-M-HEUR allocation tail: shave ceil-overflow, assign leftovers."""
    return KERNELS["alloc_tail"].numpy(loads, q, m)


def probe_multi(M: Any, m: int, B: int, memo: StepMemo | None = None) -> MultiWalk:
    """Striped-cost greedy walk at bottleneck ``B`` over the ``(S, n+1)`` stack ``M``.

    Returns ``(feasible, bound, cuts)``.  Feasible: ``bound <= B`` is the
    realised bottleneck of the ``m + 1`` greedy ``cuts``, and every
    ``B'`` in ``[bound, B]`` walks the same cuts.  Infeasible
    (``cuts is None``): ``bound > B``, and every ``B' < bound`` is
    infeasible too.  ``memo`` is a dict shared by the walks of one solve on
    the same ``M`` (start it empty); it changes no result.
    """
    return KERNELS["probe_multi"].numpy(M, m, B, memo)
