"""Property tests: optimized kernels are bit-identical to the reference oracles.

The perf layer's contract (docs/performance.md) is *exact* equality, not
approximate: every kernel's ``numpy`` backend must produce the same
integers — same probe decisions, same cut positions, same rectangles — as
its ``reference`` backend, and the JAG-M-OPT level-end DP must match the
all-starts DP (:func:`repro.jagged.m_opt._reference_dp`).  These tests
drive both on randomized instances and compare the raw outputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.hierarchical.cuts import best_relaxed_split_win, best_weighted_cut_win
from repro.jagged.m_opt import (
    _backtrack_stripes,
    _min_processors,
    _reference_dp,
    jag_m_opt_bottleneck,
)
from repro.oned.bisect import bisect_bottleneck, feasible_bottlenecks
from repro.oned.nicol import nicol_plus_bottleneck
from repro.oned.probe import min_parts, probe
from repro.perf import kernel, min_parts_batch, probe_batch, use_perf_backend
from repro.sweep import use_sweep

from .conftest import load_arrays, prefix_of

# ---------------------------------------------------------------------------
# batched probe kernels vs scalar references


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, m=st.integers(1, 8), data=st.data())
def test_probe_batch_matches_scalar_probe(values, m, data):
    P = prefix_of(values)
    total = int(P[-1])
    Bs = data.draw(
        st.lists(st.integers(-2, total + 2), min_size=1, max_size=12),
        label="bottleneck candidates",
    )
    got = probe_batch(P, m, np.array(Bs, dtype=np.int64))
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
    got = probe_batch(P, m, Bs, lo, hi)
    want = np.array([probe(P, m, int(B), lo, hi) for B in Bs])
    np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, data=st.data())
def test_min_parts_batch_matches_scalar(values, data):
    P = prefix_of(values)
    total = int(P[-1])
    B = data.draw(st.integers(0, total + 1), label="B")
    cap = data.draw(st.one_of(st.none(), st.integers(0, len(P) + 1)), label="cap")
    try:
        want = min_parts(P, B, cap=cap)
    except ValueError:
        with pytest.raises(ValueError):
            min_parts_batch(P, B, cap=cap)
        return
    assert min_parts_batch(P, B, cap=cap) == want


def test_min_parts_batch_windowed():
    rng = np.random.default_rng(3)
    P = prefix_of(rng.integers(0, 40, 60))
    for lo, hi in ((0, 60), (5, 55), (20, 21), (30, 30)):
        for B in (0, 37, 120, 999):
            for cap in (None, 2, 7):
                try:
                    want = min_parts(P, B, lo, hi, cap=cap)
                except ValueError:
                    continue
                assert min_parts_batch(P, B, lo, hi, cap=cap) == want


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
    num = kernel("weighted_cut", "reference")(bp, 0, L, ((w1, w2),))
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
    ref_cut = kernel("weighted_cut", "reference")(bp, 0, L, orients)
    assert best_weighted_cut_win(p, j0, j1, orients) == ref_cut

    ref_split = kernel("relaxed_split", "reference")(bp, 0, L, m)
    assert best_relaxed_split_win(p, j0, j1, m) == ref_split


# ---------------------------------------------------------------------------
# whole-algorithm bit identity: numpy kernels vs reference kernels (every
# registry algorithm across backends, substrates and sweep temperatures:
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
        with use_perf_backend("reference"):
            ref = _rects(A, m, method)
        opt = _rects(A, m, method)
        assert ref == opt, f"{method} diverged (seed={seed}, m={m})"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_allocate_processors_identical_across_modes(data):
    # the numpy kernel replaces Fraction-keyed ratio comparisons with exact
    # cross-multiplied ints; the allocation must match entry for entry,
    # ties included (first minimal stripe wins in both)
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
    with use_perf_backend("reference"):
        ref = allocate_processors(loads.astype(np.int64, copy=False), m)
    opt = allocate_processors(loads.astype(np.int64, copy=False), m)
    assert ref.tolist() == opt.tolist()


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
    opt = _min_processors(PrefixSum2D(A), B, m)
    assert (f[A.shape[0]] > m) == (opt is None)
    if opt is not None:
        assert f.tolist() == opt.tolist()


@settings(max_examples=150, deadline=None)
@given(A=tie_heavy_matrices(), data=st.data())
def test_jag_m_opt_backtrack_identical_across_modes(A, data):
    # the backtrack resolves the all-starts tie-break only on the path rows:
    # bottleneck and stripe cuts must match the reference DP's argmin chain,
    # and the rectangles must not move — on either kernel backend, cold and
    # with facts shared across the m values of one sweep scope
    ms = data.draw(st.lists(st.integers(1, A.shape[0] + 4), min_size=1, max_size=3), label="ms")
    out = _jag_m_opt_outputs(A, ms)
    assert [(B, cuts) for B, cuts, _ in out] == _reference_outputs(A, ms)
    with use_sweep():
        assert _jag_m_opt_outputs(A, ms) == out
    with use_perf_backend("reference"):
        assert _jag_m_opt_outputs(A, ms) == out


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


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, m=st.integers(1, 8), data=st.data())
def test_feasible_bottlenecks_identical_across_modes(values, m, data):
    P = prefix_of(values)
    total = int(P[-1])
    Bs = data.draw(
        st.lists(st.integers(-2, total + 2), min_size=1, max_size=10),
        label="bottleneck candidates",
    )
    with use_perf_backend("reference"):
        ref = feasible_bottlenecks(P, m, Bs)
    opt = feasible_bottlenecks(P, m, Bs)
    np.testing.assert_array_equal(ref, opt)
    np.testing.assert_array_equal(ref, [probe(P, m, int(B)) for B in Bs])


def test_shared_prefix_instance_is_safe_across_methods():
    # one PrefixSum2D reused by many algorithms: the shared projection cache
    # must never leak state between them
    rng = np.random.default_rng(42)
    A = rng.integers(0, 60, (20, 20))
    pref = PrefixSum2D(A)
    shared = [partition_2d(pref, 6, mth).rects for mth in EQUALITY_METHODS]
    fresh = []
    for mth in EQUALITY_METHODS:
        with use_perf_backend("reference"):
            fresh.append(partition_2d(PrefixSum2D(A), 6, mth).rects)
    assert shared == fresh
