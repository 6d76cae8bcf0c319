"""Tests for the 1D heuristics: DirectCut, refined DC, recursive bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oned.heuristics import direct_cut, direct_cut_refined, recursive_bisection
from repro.oned.api import interval_loads, partition_1d

from .conftest import load_arrays, positive_arrays, prefix_of

ALL_HEURISTICS = [direct_cut, direct_cut_refined, recursive_bisection]


@pytest.mark.parametrize("heur", ALL_HEURISTICS)
class TestCutShape:
    @given(vals=load_arrays, m=st.integers(1, 9))
    @settings(max_examples=40)
    def test_cuts_wellformed(self, heur, vals, m):
        P = prefix_of(vals)
        cuts = heur(P, m)
        assert len(cuts) == m + 1
        assert cuts[0] == 0 and cuts[-1] == len(vals)
        assert (np.diff(cuts) >= 0).all()

    def test_single_processor(self, heur):
        P = prefix_of([5, 3, 2])
        cuts = heur(P, 1)
        np.testing.assert_array_equal(cuts, [0, 3])

    def test_more_processors_than_cells(self, heur):
        P = prefix_of([4, 4])
        cuts = heur(P, 5)
        loads = interval_loads(P, cuts)
        assert loads.max() == 4  # one cell per interval is achievable


class TestGuarantees:
    @given(vals=load_arrays, m=st.integers(1, 9))
    @settings(max_examples=50)
    def test_dc_bound(self, vals, m):
        """Lmax(DC) <= sum/m + max (§2.2)."""
        P = prefix_of(vals)
        loads = interval_loads(P, direct_cut(P, m))
        assert loads.max(initial=0) <= vals.sum() / m + vals.max(initial=0) + 1e-9

    @given(vals=load_arrays, m=st.integers(1, 9))
    @settings(max_examples=50)
    def test_rb_bound(self, vals, m):
        """Lmax(RB) <= sum/m + max (§2.2)."""
        P = prefix_of(vals)
        loads = interval_loads(P, recursive_bisection(P, m))
        assert loads.max(initial=0) <= vals.sum() / m + vals.max(initial=0) + 1e-9

    @given(vals=positive_arrays, m=st.integers(1, 9))
    @settings(max_examples=50)
    def test_lemma1_bound(self, vals, m):
        """Lemma 1: Lmax(DC) <= (sum/m)(1 + Δ m/n) on zero-free arrays."""
        from repro.theory.bounds import lemma1_dc_bound

        P = prefix_of(vals)
        delta = vals.max() / vals.min()
        loads = interval_loads(P, direct_cut(P, m))
        assert loads.max() <= lemma1_dc_bound(int(vals.sum()), m, len(vals), delta) + 1e-9

    @given(vals=load_arrays, m=st.integers(1, 9))
    @settings(max_examples=50)
    def test_refined_no_worse_than_2x(self, vals, m):
        P = prefix_of(vals)
        loads = interval_loads(P, direct_cut_refined(P, m))
        assert loads.max(initial=0) <= vals.sum() / m + vals.max(initial=0) + 1e-9


class TestRefinedImprovement:
    def test_often_beats_plain_dc(self, rng):
        """Statistically, snapping to the nearest boundary helps."""
        wins = ties = losses = 0
        for seed in range(50):
            vals = np.random.default_rng(seed).integers(1, 100, 200)
            P = prefix_of(vals)
            b1 = interval_loads(P, direct_cut(P, 16)).max()
            b2 = interval_loads(P, direct_cut_refined(P, 16)).max()
            if b2 < b1:
                wins += 1
            elif b2 == b1:
                ties += 1
            else:
                losses += 1
        assert wins > losses


class TestRecursiveBisectionOddSplit:
    def test_odd_m_uses_both_orientations(self):
        # Load concentrated at the front: the heavier side should receive
        # the extra processor.
        vals = np.array([10, 10, 10, 1, 1, 1])
        P = prefix_of(vals)
        cuts = recursive_bisection(P, 3)
        loads = interval_loads(P, cuts)
        assert loads.max() <= 20  # a (2,1)-orientation split achieves this


class TestRecursiveBisectionExactTarget:
    def test_balance_point_is_exact_past_float_precision(self):
        # the balance-point search target is base + total·w1 // (w1 + w2):
        # a float target total·w1 / (w1 + w2) lands 24 above the exact one
        # here (2^61 + 2000 has no exact double), so it cuts at 1025
        r = partition_1d([2**60] + [1] * 2000 + [2**60], 2, "rb")
        assert r.cuts.tolist() == [0, 1001, 2002]
        assert r.bottleneck == 2**60 + 1000
