"""The stable kernel interface: named kernels × selectable backends.

Grown out of ``repro.perf.batch`` (PR 2): every vectorized inner loop of the
partitioners now lives here as a *named kernel* with up to three
implementations —

``reference``
    A self-contained scalar transliteration of the algorithm module's
    straight-line path (Python ``bisect`` / exact int arithmetic).  This is
    the ground truth the other backends are property-tested against
    bit-for-bit (``tests/test_kernels_equality.py``).
``numpy``
    The vectorized array-program formulation (chained/jump-table
    ``searchsorted``, fused windowed scoring).  The default backend, and
    exactly the behavior the perf layer shipped before the registry existed.
``numba``
    An optional compiled twin (``pip install .[perf]``), lazily imported
    from :mod:`repro.perf._numba` on first use.  When numba is absent — or a
    kernel has no compiled form — resolution silently degrades to ``numpy``;
    requesting the backend never errors.  Kernels whose decisions need
    arbitrary-precision Python-int arithmetic (``weighted_cut``,
    ``relaxed_split``, ``alloc_tail``) deliberately have no compiled form:
    int64 nopython arithmetic could overflow where the contract promises
    exactness at any load magnitude.  ``probe_multi`` has none either.

The backend is selected by ``REPRO_PERF_BACKEND`` (parsed in
:mod:`repro.perf.config`, declared in :data:`repro.config.ENV_VARS`), or
scoped with :func:`repro.perf.config.use_perf_backend`.  Backend selection
is *orthogonal* to :func:`~repro.perf.config.perf_enabled`: call sites keep
their ``perf_enabled()`` dispatch and reference twins (the RPL009 contract),
and only the fast branch routes through this registry.

This module is deliberately self-contained — it imports nothing from the
algorithm packages (``oned``/``jagged``/``hierarchical``), because those
packages import *it*; the reference implementations are transliterations,
pinned against the originals by the equality suites rather than by sharing
code.

Overflow discipline: every ``searchsorted`` target is clamped into the
window (``target = p[pos] + min(B, p[hi] - p[pos])`` decides identically —
any target at or beyond ``p[hi]`` resolves to the window end), the striped
walk compares differences of prefixes against a ``B`` clamped to the
largest stripe total, and balance targets fall back to exact Python-int
arithmetic when ``total · (m-1)`` could exceed int64, so loads near
``2**62`` are safe in every backend.
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
    "numba_available",
    "probe_batch",
    "min_parts_batch",
    "probe_cuts",
    "weighted_cut_win",
    "relaxed_split_win",
    "relaxed_split_scalar",
    "alloc_tail",
    "probe_multi",
    "MultiWalk",
    "SCALAR_MAX_M",
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

#: processor count below which the scalar relaxed-split path beats the
#: vectorized one (small-array numpy call overhead dominates under ~32)
SCALAR_MAX_M = 32

#: memoized ``np.arange(1, m)`` split indices — every recursion node with the
#: same processor count re-needs the identical tiny array
_J_CACHE: dict[int, np.ndarray] = {}


def _split_indices(m: int) -> np.ndarray:
    j = _J_CACHE.get(m)
    if j is None:
        j = np.arange(1, m, dtype=np.int64)
        j.flags.writeable = False
        _J_CACHE[m] = j
    return j


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
# weighted_cut — windowed, orientation-fused HIER-RB cut selection
# ----------------------------------------------------------------------
def _weighted_cut_reference(
    p: np.ndarray, j0: int, j1: int, orientations: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int] | None:
    """Rebased per-orientation scalar scoring — exact Python-int arithmetic."""
    L = j1 - j0
    if L < 2:
        return None
    if _OPS:
        bump("cut_calls", len(orientations))
    band = p[j0 : j1 + 1]  # repro-lint: disable=RPL002 — prefix window, not a load slice
    b0 = int(band[0])
    bl = [int(x) - b0 for x in band]
    total = bl[-1]
    best: tuple[int, int, int, int] | None = None
    for w1, w2 in orientations:
        # integer bp ≤ total·w1/(w1+w2)  ⇔  bp ≤ floor(·): the floor target is exact
        target = (total * w1) // (w1 + w2)
        c = bisect_right(bl, target) - 1
        found: tuple[int, int] | None = None
        for cand in (c, c + 1):
            if cand < 1 or cand > L - 1:
                continue
            l1 = bl[cand]
            v = max(l1 * w2, (total - l1) * w1)
            if found is None or v < found[1]:
                found = (cand, v)
        if found is None:
            # balance point at a border; fall back to the nearest interior cut
            cand = min(max(c, 1), L - 1)
            l1 = bl[cand]
            found = (cand, max(l1 * w2, (total - l1) * w1))
        if best is None or found[1] < best[1]:
            best = (found[0], found[1], w1, w2)
    return best


def _weighted_cut_numpy(
    p: np.ndarray, j0: int, j1: int, orientations: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int] | None:
    """Windowed scoring on the un-rebased memoized projection.

    The rebased band prefix is ``p[j0:j1+1] - p[j0]``; shifting every
    comparison by the constant ``base = p[j0]`` leaves the integer
    searchsorted and the integer scores unchanged, so no per-node band
    allocation is needed.  All orientations share the window, total and
    search bounds; the first orientation attaining the minimum wins,
    matching the sequential first-occurrence rule of the chooser loop.
    """
    L = j1 - j0
    if L < 2:
        return None
    if _OPS:
        bump("cut_calls", len(orientations))
    base = int(p[j0])
    total = int(p[j1]) - base
    view = p[j0 : j1 + 1]  # repro-lint: disable=RPL002 — prefix window, not a load slice
    best: tuple[int, int, int, int] | None = None
    for w1, w2 in orientations:
        # integer bp ≤ t  ⇔  p ≤ base + t: the shifted floor target is exact
        target = base + (total * w1) // (w1 + w2)
        c = int(view.searchsorted(target, side="right")) - 1
        found: tuple[int, int] | None = None
        for cand in (c, c + 1):
            if cand < 1 or cand > L - 1:
                continue
            l1 = int(view[cand]) - base
            v = max(l1 * w2, (total - l1) * w1)
            if found is None or v < found[1]:
                found = (cand, v)
        if found is None:
            cand = min(max(c, 1), L - 1)
            l1 = int(view[cand]) - base
            found = (cand, max(l1 * w2, (total - l1) * w1))
        if best is None or found[1] < best[1]:
            best = (found[0], found[1], w1, w2)
    return best


# ----------------------------------------------------------------------
# relaxed_split — joint (cut, processor split) selection for HIER-RELAXED
# ----------------------------------------------------------------------
def relaxed_split_scalar(
    bp: np.ndarray, m: int, total: int, lo: list[int], L: int, *, base: int = 0
) -> tuple[int, int, float]:
    """Scalar twin of the vectorized relaxed split for small ``m``.

    Below ~32 splits the per-call overhead of clip/concatenate/where
    dominates the vectorized path; most nodes of a recursion tree are deep
    and small, so this is the common case.  Candidates are enumerated in
    the exact array order of the vectorized path (all ``lo`` cuts, then all
    ``lo + 1`` cuts) with the same float arithmetic and the same
    first-occurrence argmax tie-breaking, so the chosen split is
    bit-identical.
    """
    n = m - 1
    vals: list[float] = []
    v: float | None = None
    for off in (0, 1):
        for idx in range(n):
            jv = idx + 1
            cut = lo[idx] + off
            if cut < 1:
                cut = 1
            elif cut > L - 1:
                cut = L - 1
            l1 = float(int(bp[cut]) - base)  # repro-lint: disable=RPL003 — relaxed score
            a = l1 / jv  # repro-lint: disable=RPL003
            b = (total - l1) / (m - jv)  # repro-lint: disable=RPL003
            if b > a:
                a = b
            vals.append(a)
            if v is None or a < v:
                v = a
    assert v is not None
    thr = v * (1.0 + 1e-3) + 1e-9
    best_bal = -1
    best_i = 0
    for i, val in enumerate(vals):
        if val <= thr:
            jv = i % n + 1
            bal = jv if jv <= m - jv else m - jv
            if bal > best_bal:
                best_bal, best_i = bal, i
    jv = best_i % n + 1
    cut = lo[best_i % n] + (1 if best_i >= n else 0)
    if cut < 1:
        cut = 1
    elif cut > L - 1:
        cut = L - 1
    return (cut, jv, vals[best_i])


def _relaxed_targets(base: int, total: int, m: int) -> np.ndarray:
    """Shifted integer balance targets ``base + total·j/m`` for ``j in [1, m)``.

    Falls back to exact Python-int arithmetic when ``total · (m-1)`` could
    overflow int64 — each *result* fits (it is at most ``base + total``,
    a prefix value), only the vectorized intermediate product does not.
    """
    if total > 0 and m > 2 and total > _I64_MAX // (m - 1):
        return np.array(
            [base + (total * jv) // m for jv in range(1, m)], dtype=np.int64
        )
    return base + (total * _split_indices(m)) // m


def _relaxed_split_reference(
    p: np.ndarray, j0: int, j1: int, m: int
) -> tuple[int, int, float] | None:
    """Per-target scalar searches + exhaustive scalar candidate enumeration."""
    L = j1 - j0
    if L < 2 or m < 2:
        return None
    if _OPS:
        bump("cut_calls")
    base = int(p[j0])
    total = int(p[j1]) - base
    view = p[j0 : j1 + 1]  # repro-lint: disable=RPL002 — prefix window, not a load slice
    lo = [
        int(view.searchsorted(base + (total * jv) // m, side="right")) - 1
        for jv in range(1, m)
    ]
    return relaxed_split_scalar(view, m, total, lo, L, base=base)


def _relaxed_split_numpy(
    p: np.ndarray, j0: int, j1: int, m: int
) -> tuple[int, int, float] | None:
    """Windowed relaxed split on an un-rebased projection.

    Same shifting argument as the weighted-cut kernel: the rebased band is
    ``p[j0:j1+1] - base``, integer searchsorted targets shift by ``base``
    exactly, and the float scores are computed from the *same* integers
    (``l1 = view[cut] - base``), so the chosen ``(cut, j, value)`` is
    bit-identical to rebasing first — without the per-node band copy.
    """
    L = j1 - j0
    if L < 2 or m < 2:
        return None
    if _OPS:
        bump("cut_calls")
    base = int(p[j0])
    total = int(p[j1]) - base
    view = p[j0 : j1 + 1]  # repro-lint: disable=RPL002 — prefix window, not a load slice
    if m == 2:
        # a bipartition node — j = 1 is the only split, and roughly half the
        # nodes of any recursion tree look like this: pure scalar, no numpy
        # temporaries.  Same candidate order and float scores as the
        # vectorized path (j/1 division and (m-j) = 1 division are exact).
        c = int(view.searchsorted(base + total // 2, side="right")) - 1
        ca = 1 if c < 1 else (L - 1 if c > L - 1 else c)
        cb = c + 1
        cb = 1 if cb < 1 else (L - 1 if cb > L - 1 else cb)
        la = float(int(view[ca]) - base)  # repro-lint: disable=RPL003 — relaxed score
        lb = float(int(view[cb]) - base)  # repro-lint: disable=RPL003
        va = la if la > total - la else total - la
        vb = lb if lb > total - lb else total - lb
        v = va if va < vb else vb
        # both candidates tie on processor balance, so argmax keeps the first
        # candidate within the near-tie threshold
        if va <= v * (1.0 + 1e-3) + 1e-9:
            return (ca, 1, va)
        return (cb, 1, vb)
    j = _split_indices(m)
    targets = _relaxed_targets(base, total, m)
    lo = view.searchsorted(targets, side="right") - 1
    if m <= SCALAR_MAX_M:
        return relaxed_split_scalar(view, m, total, lo.tolist(), L, base=base)
    cuts = np.concatenate([np.clip(lo, 1, L - 1), np.clip(lo + 1, 1, L - 1)])
    jj = np.concatenate([j, j])
    # the relaxed node score is an estimate by construction: vectorized
    # float scoring is the documented RPL003 exemption (see
    # repro.hierarchical.cuts); the partition loads themselves stay exact
    l1 = (view[cuts] - base).astype(np.float64)  # repro-lint: disable=RPL003
    val = np.maximum(l1 / jj, (total - l1) / (m - jj))  # repro-lint: disable=RPL003
    v2 = float(val.min())  # repro-lint: disable=RPL003 — reporting boundary
    # many (cut, j) pairs score within noise of each other; among splits
    # within 0.1% of the best score, prefer the most balanced processor
    # split — unbalanced chains deepen the tree and accumulate rounding
    # error (measured in benchmarks/bench_ablation_hier.py)
    near = val <= v2 * (1.0 + 1e-3) + 1e-9
    bal = np.where(near, np.minimum(jj, m - jj), -1)
    k = int(np.argmax(bal))
    return (int(cuts[k]), int(jj[k]), float(val[k]))  # repro-lint: disable=RPL003


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
    disappear from the per-call cost.  No compiled form on purpose: the
    cross products exceed int64 once loads approach ``2**32``.
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


def _probe_multi_reference(M: Any, m: int, B: int) -> MultiWalk:
    """Scalar greedy with per-stripe shrinking-window binary searches.

    A step from ``pos`` reaches the furthest ``j`` whose striped cost
    ``max_s (M[s, j] - M[s, pos])`` is at most ``B``.  A feasible walk
    returns the largest step cost (its realised bottleneck) and its ``m + 1``
    cuts; an infeasible one returns the cheapest one-boundary extension of
    any step it took: every ``B'`` below that value walks the same steps.
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


def _probe_multi_numpy(M: Any, m: int, B: int) -> MultiWalk:
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
        w = w0
        while True:
            end = pos + w if pos + w < n else n
            win = arr[:, pos : end + 1]  # repro-lint: disable=RPL002 — boundary window, not cells
            cost = np.maximum.reduce(win - win[:, :1], axis=0)
            r = int(cost.searchsorted(B, side="right")) - 1
            if pos + r < end or end == n:
                break
            w *= 2
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
    """One named kernel: reference/numpy implementations, optional compiled."""

    name: str
    reference: Callable[..., Any]
    numpy: Callable[..., Any]
    numba_attr: str | None = None  #: wrapper name in :mod:`repro.perf._numba`


KERNELS: dict[str, Kernel] = {
    "probe_batch": Kernel(
        "probe_batch", _probe_batch_reference, _probe_batch_numpy, "probe_batch"
    ),
    "min_parts": Kernel(
        "min_parts", _min_parts_reference, _min_parts_numpy, "min_parts_batch"
    ),
    "probe_cuts": Kernel(
        "probe_cuts", _probe_cuts_reference, _probe_cuts_numpy, "probe_cuts"
    ),
    "weighted_cut": Kernel("weighted_cut", _weighted_cut_reference, _weighted_cut_numpy),
    "relaxed_split": Kernel(
        "relaxed_split", _relaxed_split_reference, _relaxed_split_numpy
    ),
    "alloc_tail": Kernel("alloc_tail", _alloc_tail_reference, _alloc_tail_numpy),
    "probe_multi": Kernel("probe_multi", _probe_multi_reference, _probe_multi_numpy),
}

_NUMBA_MOD: Any | None = None
_NUMBA_FAILED: bool = False


def _numba_module() -> Any | None:
    """The compiled-backend module, imported lazily; ``None`` when absent."""
    global _NUMBA_MOD, _NUMBA_FAILED
    if _NUMBA_MOD is None and not _NUMBA_FAILED:
        try:
            from . import _numba as mod
        except ImportError:
            _NUMBA_FAILED = True
            return None
        _NUMBA_MOD = mod
    return _NUMBA_MOD


def numba_available() -> bool:
    """True when the compiled backend can serve requests (``[perf]`` extra)."""
    return _numba_module() is not None


def kernel(name: str, backend: str | None = None) -> Callable[..., Any]:
    """Resolve kernel ``name`` for ``backend`` (default: the active one).

    The ``numba`` backend degrades per kernel: kernels without a compiled
    implementation — or any kernel when numba is not installed — resolve to
    the numpy implementation.  Requesting it never raises.
    """
    k = KERNELS[name]
    b = perf_backend() if backend is None else backend
    if b == "reference":
        return k.reference
    if b == "numba" and k.numba_attr is not None:
        mod = _numba_module()
        if mod is not None:
            impl: Callable[..., Any] = getattr(mod, k.numba_attr)
            return impl
    return k.numpy


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


def weighted_cut_win(
    p: np.ndarray, j0: int, j1: int, orientations: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int] | None:
    """Best weighted cut of window ``[j0, j1]`` over the given orientations.

    Returns ``(cut_rel, value · w1·w2, w1, w2)`` or ``None`` when the window
    has fewer than 2 cells; scores are exact scaled ints on every backend.
    """
    return kernel("weighted_cut")(p, j0, j1, orientations)


def relaxed_split_win(
    p: np.ndarray, j0: int, j1: int, m: int
) -> tuple[int, int, float] | None:
    """Jointly optimal ``(cut, j, value)`` over all processor splits of a window."""
    return kernel("relaxed_split")(p, j0, j1, m)


def alloc_tail(loads: np.ndarray, q: Sequence[int] | np.ndarray, m: int) -> np.ndarray:
    """JAG-M-HEUR allocation tail: shave ceil-overflow, assign leftovers."""
    return kernel("alloc_tail")(loads, q, m)


def probe_multi(M: Any, m: int, B: int) -> MultiWalk:
    """Striped-cost greedy walk at bottleneck ``B`` over the ``(S, n+1)`` stack ``M``.

    Returns ``(feasible, bound, cuts)``.  Feasible: ``bound <= B`` is the
    realised bottleneck of the ``m + 1`` greedy ``cuts``, and every
    ``B'`` in ``[bound, B]`` walks the same cuts.  Infeasible
    (``cuts is None``): ``bound > B``, and every ``B' < bound`` is
    infeasible too.
    """
    return kernel("probe_multi")(M, m, B)
