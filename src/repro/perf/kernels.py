"""The stable kernel interface: named kernels × selectable backends.

Grown out of ``repro.perf.batch`` (PR 2): every vectorized inner loop of the
partitioners lives here as a *named kernel* with two implementations —

``reference``
    A self-contained scalar transliteration of the algorithm (Python
    ``bisect`` / exact int arithmetic).  This is the oracle the ``numpy``
    backend is property-tested against bit-for-bit
    (``tests/test_kernels_equality.py``, ``tests/test_backend_equality.py``).
``numpy``
    The vectorized array-program formulation (chained/jump-table
    ``searchsorted``, segmented scoring of a tree level's windows).  The
    default backend, and the only production path.

The backend is selected by ``REPRO_PERF_BACKEND`` (parsed in
:mod:`repro.perf.config`, declared in :data:`repro.config.ENV_VARS`), or
scoped with :func:`repro.perf.config.use_perf_backend`.  Call sites always
resolve through :func:`kernel`, so switching the backend swaps every
kernel call at once.

This module is deliberately self-contained — it imports nothing from the
algorithm packages (``oned``/``jagged``/``hierarchical``), because those
packages import *it*.

Overflow discipline: every ``searchsorted`` target is clamped into the
window (``target = p[pos] + min(B, p[hi] - p[pos])`` decides identically —
any target at or beyond ``p[hi]`` resolves to the window end), the striped
walk compares differences of prefixes against a ``B`` clamped to the
largest stripe total, and the frontier cut kernels fall back to their exact
Python-int scalar code when a window's ``total · w`` or ``total · (m-1)``
could exceed int64, so loads near ``2**62`` are safe in every backend.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .config import perf_backend
from .counters import _STACK as _OPS
from .counters import bump

__all__ = [
    "Kernel",
    "KERNELS",
    "kernel",
    "probe_batch",
    "min_parts_batch",
    "probe_cuts",
    "weighted_cuts",
    "relaxed_splits",
    "alloc_tail",
    "probe_multi",
    "MultiWalk",
    "StepMemo",
]

_I64_MAX = 2**63 - 1

#: amortization bar for the probe_cuts jump table: the greedy realizes a
#: *feasible* bottleneck, so it covers the window in ~span/B steps and pads
#: the remaining cuts without further searches.  The O(window) table build
#: (~40ns/boundary) only beats per-step ``bisect_right`` (~250ns/step on
#: a 10^5-boundary window) when the walk visits at least window/4
#: boundaries — measured crossover on the bench box, see
#: docs/performance.md ("probe_cuts regime crossover")
_CUTS_STEP_AMORT = 4

#: min_parts jump-table walk: list conversion of the whole table only
#: amortizes when the walk visits at least window/5 entries; sparser walks
#: read the ndarray directly (same values, no O(window) ``tolist``)
_MINPARTS_LIST_AMORT = 5

#: frontier cut kernels: below this many candidate cuts in one batch the
#: numpy backend scores window by window with the scalar code — a segmented
#: pass costs a fixed ~0.15 ms of numpy calls, a scalar candidate 1–2 µs.
#: Measured crossover on the bench box, see docs/performance.md
#: ("Frontier-batched hierarchical growth")
_FRONTIER_MIN_CANDS = 96

# ----------------------------------------------------------------------
# probe_batch — many candidate bottlenecks against one prefix
# ----------------------------------------------------------------------
def _probe_ref(Pl: list[int], m: int, B: int, lo: int, hi: int) -> bool:
    """Scalar greedy probe on a boundary list (exact Python ints)."""
    if _OPS:
        bump("probe_calls")
    if B < 0:
        return False
    pos = lo
    steps = 0
    result = pos >= hi
    for _ in range(m):
        if pos >= hi:
            result = True
            break
        steps += 1
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:  # single cell exceeds B
            result = False
            break
        pos = nxt
    else:
        result = pos >= hi
    if _OPS:
        bump("probe_steps", steps)
    return result


def _probe_batch_reference(
    P: np.ndarray, m: int, Bs: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """K independent scalar probes — the ground truth for the batch kernel."""
    arr = np.asarray(P, dtype=np.int64)
    B = np.atleast_1d(np.asarray(Bs, dtype=np.int64))
    if hi is None:
        hi = arr.shape[0] - 1
    Pl = arr.tolist()
    out = np.empty(B.shape, dtype=bool)
    for i, b in enumerate(B.tolist()):
        out[i] = _probe_ref(Pl, m, b, lo, hi)
    return out


def _probe_batch_numpy(
    P: np.ndarray, m: int, Bs: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Lockstep vectorized probes over a *compacted* active candidate set.

    Each of the at most ``m`` rounds performs one chained ``searchsorted``
    over only the candidates still walking; candidates that reach ``hi``
    (success) or get stuck (failure) leave the working set immediately, and
    the loop exits as soon as it is empty.  Op counters are accumulated per
    round and flushed once per call.
    """
    arr = np.asarray(P, dtype=np.int64)
    B = np.atleast_1d(np.asarray(Bs, dtype=np.int64))
    if hi is None:
        hi = arr.shape[0] - 1
    ok = np.zeros(B.shape, dtype=bool)
    if lo >= hi:
        # empty window: every non-negative candidate trivially covers it
        ok[B >= 0] = True
        if _OPS:
            bump("probe_batch_calls")
        return ok
    arr_hi = int(arr[hi])
    idx = np.flatnonzero(B >= 0)
    pos = np.full(idx.shape, lo, dtype=np.int64)
    Ba = B[idx]
    rounds = 0
    items = 0
    for _ in range(m):
        if idx.size == 0:
            break  # early exit: every candidate already decided
        base = arr[pos]
        # clamp the chained targets into the window: any target at or beyond
        # arr[hi] resolves to the window end either way, and the clamped sum
        # cannot overflow int64 even with loads near 2**62
        targets = base + np.minimum(Ba, arr_hi - base)
        nxt = np.searchsorted(arr, targets, side="right") - 1
        np.minimum(nxt, hi, out=nxt)
        rounds += 1
        items += int(idx.shape[0])  # repro-lint: disable=RPL001 — op-counter bookkeeping, not a load accumulation
        stuck = nxt <= pos  # a single cell exceeds B: candidate fails
        done = nxt >= hi  # window covered: candidate succeeds
        ok[idx[done & ~stuck]] = True
        keep = ~(stuck | done)
        idx = idx[keep]
        pos = nxt[keep]
        Ba = Ba[keep]
    # candidates still walking after m rounds did not cover the window: fail
    if _OPS:
        bump("probe_batch_calls")
        bump("searchsorted_calls", rounds)
        bump("searchsorted_items", items)
    return ok


# ----------------------------------------------------------------------
# min_parts — greedy interval count from a jump table
# ----------------------------------------------------------------------
def _min_parts_reference(
    P: np.ndarray, B: int, lo: int = 0, hi: int | None = None, cap: int | None = None
) -> int:
    """Scalar greedy count (same contract as :func:`repro.oned.probe.min_parts`)."""
    arr = np.asarray(P, dtype=np.int64)
    Pl = arr.tolist()
    if hi is None:
        hi = len(Pl) - 1
    limit = cap if cap is not None else (hi - lo) + 1
    if B < 0:
        if cap is None:
            raise ValueError(f"single cell exceeds bottleneck {B}")
        return limit + 1
    pos = lo
    parts = 0
    while pos < hi:
        if parts >= limit:
            return limit + 1
        nxt = bisect_right(Pl, Pl[pos] + B, pos, hi + 1) - 1
        if nxt <= pos:
            if cap is None:
                raise ValueError(f"single cell exceeds bottleneck {B}")
            return limit + 1
        pos = nxt
        parts += 1
    return parts


def _min_parts_numpy(
    P: np.ndarray, B: int, lo: int = 0, hi: int | None = None, cap: int | None = None
) -> int:
    """Jump-table count: one vectorized ``searchsorted``, then a pointer walk.

    Returns ``cap + 1`` past the cap or on an infeasible single cell
    (``cap=None`` raises ``ValueError`` on infeasibility, like the scalar
    reference).
    """
    arr = np.asarray(P, dtype=np.int64)
    if hi is None:
        hi = arr.shape[0] - 1
    limit = cap if cap is not None else (hi - lo) + 1
    if B < 0:
        if cap is None:
            raise ValueError(f"single cell exceeds bottleneck {B}")
        return limit + 1
    # the jump-table window covers boundaries lo..hi of the prefix
    w = arr[lo : hi + 1]  # repro-lint: disable=RPL002 — boundary window, not cells
    span = 0
    if w.size:
        span = int(w[-1]) - int(w[0])
        if B > span:
            B = span  # any B covering the whole window jumps the same; stays in int64
        targets = w[-1] - w  # stays int64: both ends bounded by the total
        np.minimum(targets, B, out=targets)
        np.add(targets, w, out=targets)  # clamped: cannot overflow int64
    else:
        targets = w
    nxt = np.searchsorted(w, targets, side="right")
    nxt -= 1
    if _OPS:
        bump("searchsorted_calls")
        bump("searchsorted_items", hi - lo + 1)
    end = hi - lo
    # the walk reads ~span/B of the (hi-lo) table entries; converting the
    # whole table to a list (~17ns/entry) only amortizes against per-read
    # ``.item`` overhead (~90ns) when the walk is dense — measured
    # crossover at window/_MINPARTS_LIST_AMORT on the bench box
    est = min(limit, span // B + 1) if B > 0 else 1
    if est * _MINPARTS_LIST_AMORT >= end:
        fetch = nxt.tolist().__getitem__
    else:
        fetch = nxt.item
    pos = 0
    parts = 0
    while pos < end:
        if parts >= limit:
            if _OPS:
                bump("probe_calls")
                bump("probe_steps", parts)
            return limit + 1
        step = fetch(pos)
        if step <= pos:  # single cell exceeds B
            if cap is None:
                raise ValueError(f"single cell exceeds bottleneck {B}")
            if _OPS:
                bump("probe_calls")
                bump("probe_steps", parts)
            return limit + 1
        pos = step
        parts += 1
    if _OPS:
        bump("probe_calls")
        bump("probe_steps", parts)
    return parts


# ----------------------------------------------------------------------
# probe_cuts — greedy cut points realizing a bottleneck
# ----------------------------------------------------------------------
def _probe_cuts_reference(
    P: np.ndarray | list[int],
    m: int,
    B: int,
    lo: int = 0,
    hi: int | None = None,
) -> np.ndarray | None:
    """Scalar greedy cuts (same contract as :func:`repro.oned.probe.probe_cuts`)."""
    Pl: list[int] = P if isinstance(P, list) else np.asarray(P, dtype=np.int64).tolist()
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


def _probe_cuts_numpy(
    P: np.ndarray | list[int],
    m: int,
    B: int,
    lo: int = 0,
    hi: int | None = None,
) -> np.ndarray | None:
    """Adaptive greedy cuts: jump table only when the walk can amortize it.

    The greedy realizes a bottleneck ``B`` and stops searching once the
    window is covered — after roughly ``span/B`` steps — padding the
    remaining cuts for free.  Estimated walk length (capped at ``m``) must
    reach a constant fraction of the window (``_CUTS_STEP_AMORT``) for the
    O(window) table build to beat per-step ``bisect_right``; below that
    measured crossover the scalar walk (trivially identical to the
    reference) is kept.
    """
    if hi is None:
        hi = len(P) - 1
    if B < 0:
        return None
    window = hi - lo
    span = int(P[hi]) - int(P[lo]) if window > 0 else 0
    steps = min(m, span // B + 1) if B > 0 else 0
    if steps * _CUTS_STEP_AMORT < window:
        return _probe_cuts_reference(P, m, B, lo, hi)
    arr = np.asarray(P, dtype=np.int64)
    w = arr[lo : hi + 1]  # repro-lint: disable=RPL002 — boundary window, not cells
    if w.size:
        if B > span:
            B = span  # any B covering the whole window jumps the same
        targets = w[-1] - w  # stays int64: both ends bounded by the total
        np.minimum(targets, B, out=targets)
        np.add(targets, w, out=targets)  # clamped: cannot overflow int64
    else:
        targets = w
    nxt = np.searchsorted(w, targets, side="right")
    nxt -= 1
    jump = nxt.tolist()
    if _OPS:
        bump("searchsorted_calls")
        bump("searchsorted_items", hi - lo + 1)
    end = hi - lo
    cuts = np.empty(m + 1, dtype=np.int64)
    cuts[0] = lo
    pos = 0
    for p in range(1, m + 1):
        if pos < end:
            step = jump[pos]
            if step <= pos:  # single cell exceeds B
                return None
            pos = step
        cuts[p] = lo + pos
    if pos < end:
        return None
    cuts[m] = hi
    return cuts


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
def _alloc_tail_reference(loads: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
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


class _RatioKey:
    """Heap key ordering stripes by descending ``load/q``, exact integers.

    Induces the same total order as the reference path's
    ``(Fraction(-load, q), s)`` tuples: ratios compare by cross-
    multiplication (exact in unbounded ints, RPL003 discipline), ties fall
    back to the stripe index.  Skipping ``Fraction``'s gcd normalization on
    every heap push is the whole point.
    """

    __slots__ = ("load", "q", "s")

    def __init__(self, load: int, q: int, s: int):
        self.load = load
        self.q = q
        self.s = s

    def __lt__(self, other: "_RatioKey") -> bool:
        # load/q > other.load/other.q  (descending ratio; q > 0 always)
        a = self.load * other.q
        b = other.load * self.q
        if a != b:
            return a > b
        return self.s < other.s


def _alloc_tail_numpy(loads: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """Cross-multiplied Python-int twin of the ``Fraction`` reference loops.

    Same decisions (exact comparisons, first minimal index wins) on plain
    Python ints — int64 scalar arithmetic and ``Fraction`` construction both
    disappear from the per-call cost.  The cross products exceed int64 once
    loads approach ``2**32``, so they stay unbounded Python ints.
    """
    P = len(loads)
    ql = [int(x) for x in q]
    ll = [int(x) for x in loads]
    s_total = sum(ql)
    while s_total > m:
        # argmin of load/q over stripes with q > 1; strict < keeps the
        # first minimal stripe, matching min() over the reference generator
        bs = -1
        bl = bq = 0
        for s in range(P):
            if ql[s] > 1:
                load, qs = ll[s], ql[s]
                if bs < 0 or load * bq < bl * qs:
                    bs, bl, bq = s, load, qs
        ql[bs] -= 1
        s_total -= 1
    remaining = m - s_total
    if remaining > 0:
        heap = [_RatioKey(ll[s], ql[s], s) for s in range(P)]
        heapq.heapify(heap)
        for _ in range(remaining):
            k = heapq.heappop(heap)
            ql[k.s] += 1
            heapq.heappush(heap, _RatioKey(k.load, ql[k.s], k.s))
    return np.array(ql, dtype=np.int64)


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
# registry + backend resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """One named kernel: its reference (oracle) and numpy implementations."""

    name: str
    reference: Callable[..., Any]
    numpy: Callable[..., Any]


KERNELS: dict[str, Kernel] = {
    "probe_batch": Kernel("probe_batch", _probe_batch_reference, _probe_batch_numpy),
    "min_parts": Kernel("min_parts", _min_parts_reference, _min_parts_numpy),
    "probe_cuts": Kernel("probe_cuts", _probe_cuts_reference, _probe_cuts_numpy),
    "weighted_cut": Kernel("weighted_cut", _weighted_cut_reference, _weighted_cut_numpy),
    "relaxed_split": Kernel(
        "relaxed_split", _relaxed_split_reference, _relaxed_split_numpy
    ),
    "alloc_tail": Kernel("alloc_tail", _alloc_tail_reference, _alloc_tail_numpy),
    "probe_multi": Kernel("probe_multi", _probe_multi_reference, _probe_multi_numpy),
}


def kernel(name: str, backend: str | None = None) -> Callable[..., Any]:
    """Resolve kernel ``name`` for ``backend`` (default: the active one)."""
    k = KERNELS[name]
    b = perf_backend() if backend is None else backend
    if b == "reference":
        return k.reference
    if b == "numpy":
        return k.numpy
    raise ValueError(f"unknown kernel backend {b!r}")


# ----------------------------------------------------------------------
# public entry points (stable signatures; call sites dispatch through these)
# ----------------------------------------------------------------------
def probe_batch(
    P: np.ndarray, m: int, Bs: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Vectorized ``probe``: one boolean per candidate bottleneck in ``Bs``.

    ``P`` is a prefix array (``P[0] == 0``); the answer for ``Bs[i]`` equals
    ``probe(P, m, Bs[i], lo, hi)`` exactly, on every backend.
    """
    return kernel("probe_batch")(P, m, Bs, lo, hi)


def min_parts_batch(
    P: np.ndarray,
    B: int,
    lo: int = 0,
    hi: int | None = None,
    cap: int | None = None,
) -> int:
    """Jump-table twin of :func:`repro.oned.probe.min_parts` (same contract)."""
    return kernel("min_parts")(P, B, lo, hi, cap)


def probe_cuts(
    P: np.ndarray | list[int], m: int, B: int, lo: int = 0, hi: int | None = None
) -> np.ndarray | None:
    """Greedy cut points realizing bottleneck ``B`` (None if infeasible)."""
    return kernel("probe_cuts")(P, m, B, lo, hi)


def weighted_cuts(
    vals: np.ndarray, offs: np.ndarray, orientations: Sequence[tuple[tuple[int, int], ...]]
) -> list[tuple[int, int, int, int] | None]:
    """HIER-RB cut of every window of a frontier batch (see ``_windows``).

    Window ``k`` is ``vals[offs[k]:offs[k+1]]``; its cut minimizes
    ``max(L1/w1, L2/w2)`` over ``orientations[k]``, and the first
    orientation attaining the minimum wins.  Per window ``(cut_rel,
    value · w1·w2, w1, w2)``, or None when it has fewer than 2 cells; scores
    are exact scaled ints on every backend.
    """
    return kernel("weighted_cut")(vals, offs, orientations)


def relaxed_splits(
    vals: np.ndarray, offs: np.ndarray, ms: Sequence[int]
) -> list[tuple[int, int, float] | None]:
    """HIER-RELAXED ``(cut_rel, j, value)`` of every window of a frontier batch.

    Window ``k`` (as in :func:`weighted_cuts`) holds ``ms[k]`` processors;
    its cut and split ``j ∈ [1, ms[k])`` jointly minimize
    ``max(L1/j, L2/(m-j))``.  None when the window has fewer than 2 cells
    or ``ms[k] < 2``.
    """
    return kernel("relaxed_split")(vals, offs, ms)


def alloc_tail(loads: np.ndarray, q: Sequence[int] | np.ndarray, m: int) -> np.ndarray:
    """JAG-M-HEUR allocation tail: shave ceil-overflow, assign leftovers."""
    return kernel("alloc_tail")(loads, q, m)


def probe_multi(M: Any, m: int, B: int, memo: StepMemo | None = None) -> MultiWalk:
    """Striped-cost greedy walk at bottleneck ``B`` over the ``(S, n+1)`` stack ``M``.

    Returns ``(feasible, bound, cuts)``.  Feasible: ``bound <= B`` is the
    realised bottleneck of the ``m + 1`` greedy ``cuts``, and every
    ``B'`` in ``[bound, B]`` walks the same cuts.  Infeasible
    (``cuts is None``): ``bound > B``, and every ``B' < bound`` is
    infeasible too.  ``memo`` is a dict shared by the walks of one solve on
    the same ``M`` (start it empty); it changes no result.
    """
    return kernel("probe_multi")(M, m, B, memo)
