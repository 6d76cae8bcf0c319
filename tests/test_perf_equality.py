"""Property tests: optimized kernels are bit-identical to the reference oracles.

The perf layer's contract (docs/performance.md) is *exact* equality, not
approximate: every kernel's ``numpy`` body must produce the same
integers — same probe decisions, same cut positions, same rectangles — as
its ``reference`` body, the Probe walks must answer alike
(``probe_batch`` and ``min_parts`` against per-candidate ``probe``), and
the JAG-M-OPT level-end DP must match the all-starts DP
(:func:`repro.jagged.m_opt._reference_dp`).  These tests drive both on
randomized instances and compare the raw outputs.
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.jagged.m_opt import (
    _backtrack_stripes,
    _level_end_dp,
    _reference_dp,
    jag_m_opt_bottleneck,
)
from repro.oned.bisect import bisect_bottleneck
from repro.oned.nicol import nicol_plus_bottleneck
from repro.oned.probe import min_parts, probe
from repro.perf.kernels import KERNELS, relaxed_splits, weighted_cuts
from repro.sweep import use_sweep

from .conftest import alloc_oracle, load_arrays, prefix_of, reference_kernels

# ---------------------------------------------------------------------------
# the probe_batch kernel and min_parts vs the scalar probe


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, m=st.integers(1, 8), data=st.data())
def test_probe_batch_matches_scalar_probe(values, m, data):
    P = prefix_of(values)
    total = int(P[-1])
    Bs = data.draw(
        st.lists(st.integers(-2, total + 2), min_size=1, max_size=12),
        label="bottleneck candidates",
    )
    got = KERNELS["probe_batch"].numpy(P, m, np.array(Bs, dtype=np.int64))
    want = np.array([probe(P, m, B) for B in Bs])
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, data=st.data())
def test_probe_batch_matches_on_windows(values, data):
    m = 3
    P = prefix_of(values)
    n = len(P) - 1
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    Bs = np.array([0, 1, int(P[-1]) // 2 + 1, int(P[-1])], dtype=np.int64)
    got = KERNELS["probe_batch"].numpy(P, m, Bs, lo, hi)
    want = np.array([probe(P, m, int(B), lo, hi) for B in Bs])
    np.testing.assert_array_equal(got, want)


def _fewest_parts(P, B: int, lo: int, hi: int) -> int | None:
    """The least ``m`` whose probe succeeds on ``[lo, hi)``, or None if none does."""
    return next((m for m in range(hi - lo + 1) if probe(P, m, B, lo, hi)), None)


def _check_min_parts(P, B: int, lo: int, hi: int, cap: int | None) -> None:
    """``min_parts`` is the fewest parts ``probe`` accepts, ``cap + 1`` past the cap."""
    want = _fewest_parts(P, B, lo, hi)
    if want is None and cap is None:
        with pytest.raises(ValueError):
            min_parts(P, B, lo, hi, cap=cap)
        return
    if cap is not None and (want is None or want > cap):
        want = cap + 1
    assert min_parts(P, B, lo, hi, cap=cap) == want


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, data=st.data())
def test_min_parts_batch_matches_scalar(values, data):
    P = prefix_of(values)
    n = len(P) - 1
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    Bs = data.draw(
        st.lists(st.integers(-2, int(P[-1]) + 1), min_size=1, max_size=6),
        label="bottleneck candidates",
    )
    cap = data.draw(st.one_of(st.none(), st.integers(0, n + 1)), label="cap")
    for B in Bs:
        _check_min_parts(P, B, lo, hi, cap)


def test_min_parts_batch_windowed():
    rng = np.random.default_rng(3)
    P = prefix_of(rng.integers(0, 40, 60))
    for lo, hi in ((0, 60), (5, 55), (20, 21), (30, 30)):
        for B in (-1, 0, 37, 120, 999):
            for cap in (None, 2, 7):
                _check_min_parts(P, B, lo, hi, cap)


# ---------------------------------------------------------------------------
# cut kernels vs the Fraction / reference oracles


def _fraction_score(bp: np.ndarray, c: int, w1: int, w2: int) -> Fraction:
    """The paper's weighted-cut score in exact Fractions: ``max(L1/w1, L2/w2)``."""
    return max(Fraction(int(bp[c]), w1), Fraction(int(bp[-1]) - int(bp[c]), w2))


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, w1=st.integers(1, 9), w2=st.integers(1, 9))
def test_weighted_cut_num_orders_like_fractions(values, w1, w2):
    bp = prefix_of(values)
    L = len(bp) - 1
    (num,) = KERNELS["weighted_cut"].reference(bp, np.array([0, L + 1]), [((w1, w2),)])
    if L < 2:
        assert num is None
        return
    # brute force over every interior cut: the kernel's cut attains the
    # Fraction optimum, and its integer score is that optimum times w1·w2
    best = min(_fraction_score(bp, c, w1, w2) for c in range(1, L))
    assert _fraction_score(bp, num[0], w1, w2) == best
    assert num[1] == best * w1 * w2


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, m=st.integers(2, 9), data=st.data())
def test_windowed_cut_kernels_match_rebased(values, m, data):
    p = prefix_of(values)
    n = len(p) - 1
    j0 = data.draw(st.integers(0, n), label="j0")
    j1 = data.draw(st.integers(j0, n), label="j1")
    bp = p[j0 : j1 + 1] - p[j0]
    L = j1 - j0

    m1, m2 = m // 2, m - m // 2
    orients = ((m1, m2),) if m1 == m2 else ((m1, m2), (m2, m1))
    band = (bp, np.array([0, L + 1]))
    window = (p[j0 : j1 + 1], np.array([0, L + 1]))
    ref_cut = KERNELS["weighted_cut"].reference(*band, [orients])
    assert weighted_cuts(*window, [orients]) == ref_cut

    ref_split = KERNELS["relaxed_split"].reference(*band, [m])
    assert relaxed_splits(*window, [m]) == ref_split


# ---------------------------------------------------------------------------
# whole-algorithm bit identity: numpy kernels vs reference kernels (every
# registry algorithm across kernel bodies, substrates and sweep temperatures:
# test_backend_equality.py)


def _rects(A, m, method):
    return partition_2d(A, m, method).rects


EQUALITY_METHODS = [
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "JAG-PQ-HEUR-HOR",
    "JAG-M-HEUR-VER",
    "JAG-M-OPT",
    "JAG-PQ-OPT",
    "HIER-RB",
    "HIER-RB-DIST",
    "HIER-RELAXED",
    "HIER-RELAXED-HOR",
]


@pytest.mark.parametrize("method", EQUALITY_METHODS)
def test_partitions_bit_identical_across_modes(method):
    for seed, m in ((0, 5), (1, 9), (2, 16)):
        rng = np.random.default_rng(seed)
        A = rng.integers(0, 60, (21, 17))
        with reference_kernels():
            ref = _rects(A, m, method)
        opt = _rects(A, m, method)
        assert ref == opt, f"{method} diverged (seed={seed}, m={m})"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_allocate_processors_identical_across_modes(data):
    # the Fraction-keyed allocation tail must match the cross-multiplied
    # linear-scan oracle entry for entry, ties included (first minimal
    # stripe wins in both)
    from repro.jagged.m_heur import allocate_processors

    P = data.draw(st.integers(1, 20))
    m = data.draw(st.integers(P, 12 * P))
    # zeros force the max(q, 1) bump + overflow shave; huge loads would
    # break any float shortcut (2**60 > 2**53)
    loads = np.array(
        data.draw(
            st.lists(
                st.one_of(st.integers(0, 50), st.integers(2**60, 2**62)),
                min_size=P,
                max_size=P,
            )
        ),
        dtype=object,
    )
    with reference_kernels():
        ref = allocate_processors(loads.astype(np.int64, copy=False), m)
    opt = allocate_processors(loads.astype(np.int64, copy=False), m)
    assert ref.tolist() == opt.tolist()
    L = [int(x) for x in loads]
    total = sum(L)
    if total:
        # the caller's ceil allocation, exact: neither the sum nor (m - P)·load may wrap
        q = [max(1, -(-(m - P) * x // total)) for x in L]
        assert opt.tolist() == alloc_oracle(L, q, m)


@st.composite
def tie_heavy_matrices(draw):
    """Small matrices whose minimum-processor DP is full of equal costs."""
    n1, n2 = draw(
        st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            st.tuples(st.just(1), st.integers(1, 16)),
            st.tuples(st.integers(1, 16), st.just(1)),
        )
    )
    kind = draw(st.sampled_from(("binary", "ones", "zero_rows", "spiky")))
    if kind == "ones":
        return np.ones((n1, n2), dtype=np.int64)
    top = 1 if kind == "binary" else 3
    A = draw(hnp.arrays(np.int64, (n1, n2), elements=st.integers(0, top)))
    if kind == "zero_rows":
        A[draw(st.lists(st.integers(0, n1 - 1), max_size=n1)), :] = 0
    elif kind == "spiky":
        A[draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))] = 40
    return A


def _jag_m_opt_outputs(A, ms):
    # one prefix for every m, so a sweep scope shares its facts across them
    pref = PrefixSum2D(A)
    out = []
    for m in ms:
        B = jag_m_opt_bottleneck(pref, m)
        cuts = _backtrack_stripes(pref, B, m).tolist()
        out.append((B, cuts, partition_2d(pref, m, "JAG-M-OPT").rects))
    return out


def _reference_outputs(A, ms):
    """Optimum and stripe cuts from the all-starts DP alone: bisection + argmin chain."""
    pref = PrefixSum2D(A)
    out = []
    for m in ms:
        lo, hi = 0, pref.total
        while lo < hi:
            mid = (lo + hi) // 2
            if _reference_dp(pref, mid, m)[0][pref.n1] <= m:
                hi = mid
            else:
                lo = mid + 1
        arg = _reference_dp(pref, lo, m)[1]
        cuts = [pref.n1]
        while cuts[-1] > 0:
            cuts.append(int(arg[cuts[-1]]))
        out.append((lo, cuts[::-1]))
    return out


@settings(max_examples=200, deadline=None)
@given(A=tie_heavy_matrices(), data=st.data())
def test_min_processors_identical_across_modes(A, data):
    # the level-end DP scans level-end starts only; f must match the
    # all-starts reference entry for entry, including at B below the
    # largest cell (infeasible: both None) and m >= n1
    m = data.draw(st.integers(1, A.shape[0] + 4), label="m")
    B = data.draw(st.integers(0, int(A.max()) + int(A.sum())), label="B")
    f = _reference_dp(PrefixSum2D(A), B, m)[0]
    opt = _level_end_dp(PrefixSum2D(A), B, m, {})
    assert (f[A.shape[0]] > m) == (opt is None)
    if opt is not None:
        assert f.tolist() == opt


@settings(max_examples=200, deadline=None)
@given(A=tie_heavy_matrices(), data=st.data())
def test_pinned_dp_identical_to_unpinned(A, data):
    # f falls as B grows, so f at B + d (full, when that DP fits) floors
    # every row and the rows a DP at B - d computed (up to where it failed)
    # cap them; rows where the two meet are pinned without a stripe walk.
    # The pinned DP must return the unbounded call's f, and keep the same
    # rows when it fails, and both must match the all-starts reference
    pref = PrefixSum2D(A)
    n1 = A.shape[0]
    m = data.draw(st.integers(1, n1 + 4), label="m")
    B = data.draw(st.integers(0, int(A.max()) + int(A.sum())), label="B")
    above = B + data.draw(st.integers(0, int(A.max()) + 2), label="above")
    below = max(0, B - data.draw(st.integers(0, int(A.max()) + 2), label="below"))
    memo: dict = {}
    low = _level_end_dp(pref, above, m, memo)
    up: list[int] = []
    _level_end_dp(pref, below, m, memo, out=up)
    rows: list[int] = []
    f = _level_end_dp(pref, B, m, memo, low=low, up=up, out=rows)
    bare: list[int] = []
    assert f == _level_end_dp(pref, B, m, {}, out=bare)
    assert rows == bare
    ref = _reference_dp(pref, B, m)[0].tolist()
    assert ref[: len(rows)] == rows
    assert (f is None) == (len(rows) <= n1) == (ref[n1] > m)


@settings(max_examples=150, deadline=None)
@given(A=tie_heavy_matrices(), data=st.data())
def test_jag_m_opt_backtrack_identical_across_modes(A, data):
    # the backtrack resolves the all-starts tie-break only on the path rows:
    # bottleneck and stripe cuts must match the reference DP's argmin chain,
    # and the rectangles must not move — on either kernel body, cold and
    # with facts shared across the m values of one sweep scope
    ms = data.draw(st.lists(st.integers(1, A.shape[0] + 4), min_size=1, max_size=3), label="ms")
    out = _jag_m_opt_outputs(A, ms)
    assert [(B, cuts) for B, cuts, _ in out] == _reference_outputs(A, ms)
    with use_sweep():
        assert _jag_m_opt_outputs(A, ms) == out
    with reference_kernels():
        assert _jag_m_opt_outputs(A, ms) == out


def _best_outputs(A, ms, first=()):
    """-BEST outputs on one prefix, after solving ``first`` (-HOR/-VER) at every m."""
    pref = PrefixSum2D(A)
    for o in first:
        for m in ms:
            partition_2d(pref, m, f"JAG-M-OPT-{o}")
    return [
        (p.rects, p.meta["lmax"], p.meta["orientation"])
        for p in (partition_2d(pref, m, "JAG-M-OPT") for m in ms)
    ]


@settings(max_examples=120, deadline=None)
@given(A=tie_heavy_matrices(), data=st.data())
def test_jag_m_opt_best_is_the_better_orientation(A, data):
    # -BEST settles both orientations in one joint bisection; it must return
    # exactly the -HOR partition when hor.lmax <= ver.lmax (ties keep HOR)
    # and the -VER one otherwise: cold, in a sweep scope (also after -HOR
    # and/or -VER solves put one or both optima on record), and warm from a
    # store seeded by the same solves
    ms = data.draw(st.lists(st.integers(1, A.shape[0] + 4), min_size=1, max_size=3), label="ms")
    want = []
    for m in ms:
        hor = partition_2d(PrefixSum2D(A), m, "JAG-M-OPT-HOR")
        ver = partition_2d(PrefixSum2D(A), m, "JAG-M-OPT-VER")
        pick = hor if hor.meta["lmax"] <= ver.meta["lmax"] else ver
        want.append((pick.rects, pick.meta["lmax"], pick.meta["orientation"]))
    assert _best_outputs(A, ms) == want
    for first in ((), ("HOR",), ("VER",), ("HOR", "VER")):
        with use_sweep():
            assert _best_outputs(A, ms, first) == want, first
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "facts.json")
        for _ in range(2):  # cold into the store, then warm from it
            with use_sweep(store=path):
                assert _best_outputs(A, ms) == want


def test_bisect_bottleneck_identical_on_nd_probe_path():
    # n >= 512*m: the bisection probes the ndarray directly, skipping the
    # list conversion — the bottleneck must not move by a single unit
    # against the list path (a list input) or the independent NicolPlus
    rng = np.random.default_rng(13)
    values = rng.integers(0, 1_000_000, 8_000)
    P = prefix_of(values)
    for m in (3, 7, 15):
        opt = bisect_bottleneck(P, m)
        assert opt == bisect_bottleneck(P.tolist(), m) == nicol_plus_bottleneck(P, m)


def test_shared_prefix_instance_is_safe_across_methods():
    # one PrefixSum2D reused by many algorithms: the shared projection cache
    # must never leak state between them
    rng = np.random.default_rng(42)
    A = rng.integers(0, 60, (20, 20))
    pref = PrefixSum2D(A)
    shared = [partition_2d(pref, 6, mth).rects for mth in EQUALITY_METHODS]
    fresh = []
    for mth in EQUALITY_METHODS:
        with reference_kernels():
            fresh.append(partition_2d(PrefixSum2D(A), 6, mth).rects)
    assert shared == fresh
