"""Tests for the Probe subroutine (plain, sliced, counting variants)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oned.probe import as_boundary_list, min_parts, probe, probe_cuts, probe_sliced

from .conftest import load_arrays, prefix_of


def brute_feasible(vals, m, B):
    """Reference decision via exhaustive interval enumeration."""
    n = len(vals)
    if n == 0:
        return True
    best = None
    for k in range(min(m, n) - 1, min(m, n)):
        for cuts in itertools.combinations(range(1, n), k):
            cc = [0, *cuts, n]
            v = max(vals[a:b].sum() for a, b in zip(cc, cc[1:]))
            best = v if best is None else min(best, v)
    return best is not None and best <= B


class TestProbe:
    def test_simple(self):
        P = prefix_of([3, 1, 4, 1, 5])
        assert probe(P, 3, 5)
        assert not probe(P, 3, 4)
        assert probe(P, 5, 5)
        assert not probe(P, 1, 13)
        assert probe(P, 1, 14)

    def test_single_large_cell(self):
        P = prefix_of([10])
        assert not probe(P, 3, 9)
        assert probe(P, 1, 10)

    def test_negative_bottleneck(self):
        P = prefix_of([1])
        assert not probe(P, 2, -1)
        assert probe_cuts(P, 2, -1) is None
        assert not probe_sliced(P, 2, -1)

    def test_subrange(self):
        P = prefix_of([5, 1, 1, 5])
        assert probe(P, 2, 2, lo=1, hi=3)
        assert not probe(P, 1, 1, lo=1, hi=3)

    def test_accepts_lists(self):
        P = as_boundary_list(prefix_of([1, 2, 3]))
        assert isinstance(P, list)
        assert probe(P, 2, 3)

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=10).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
        st.integers(1, 5),
        st.integers(0, 40),
    )
    @settings(max_examples=60)
    def test_matches_bruteforce(self, vals, m, B):
        P = prefix_of(vals)
        assert probe(P, m, B) == brute_feasible(vals, m, B)

    @given(load_arrays, st.integers(1, 6), st.integers(0, 40))
    @settings(max_examples=60)
    def test_sliced_matches_plain(self, vals, m, B):
        P = prefix_of(vals)
        assert probe_sliced(P, m, B) == probe(P, m, B)


class TestProbeCuts:
    @given(load_arrays, st.integers(1, 6), st.integers(0, 60))
    @settings(max_examples=60)
    def test_cuts_realize_bottleneck(self, vals, m, B):
        P = prefix_of(vals)
        cuts = probe_cuts(P, m, B)
        if probe(P, m, B):
            assert cuts is not None
            assert cuts[0] == 0 and cuts[-1] == len(vals)
            assert (np.diff(cuts) >= 0).all()
            loads = P[cuts[1:]] - P[cuts[:-1]]
            assert loads.max(initial=0) <= B
        else:
            assert cuts is None


class TestMinParts:
    def test_counts(self):
        P = prefix_of([2, 2, 2, 2])
        assert min_parts(P, 8) == 1
        assert min_parts(P, 4) == 2
        assert min_parts(P, 2) == 4

    def test_cap_aborts(self):
        P = prefix_of([2] * 10)
        assert min_parts(P, 2, cap=3) == 4  # cap + 1

    def test_infeasible_with_cap(self):
        P = prefix_of([5])
        assert min_parts(P, 4, cap=7) == 8

    def test_infeasible_without_cap_raises(self):
        P = prefix_of([5])
        with pytest.raises(ValueError):
            min_parts(P, 4)

    def test_zero_bottleneck_on_zeros(self):
        P = prefix_of([0, 0, 0])
        assert min_parts(P, 0) == 1

    def test_negative_bottleneck_is_infeasible_on_any_window(self):
        # as in probe, B < 0 fits no interval count, even on an empty window
        P = prefix_of([3, 1, 4, 1])
        assert not probe(P, 2, -1, lo=2, hi=2)
        with pytest.raises(ValueError):
            min_parts(P, -1, lo=2, hi=2)
        assert min_parts(P, -1, lo=2, hi=2, cap=5) == 6
        assert min_parts(P, -1, cap=5) == 6

    @given(load_arrays, st.integers(1, 50))
    @settings(max_examples=50)
    def test_consistent_with_probe(self, vals, B):
        P = prefix_of(vals)
        if vals.max(initial=0) > B:
            # infeasible at any count: cap form returns cap + 1
            assert min_parts(P, B, cap=len(vals)) == len(vals) + 1
            return
        k = min_parts(P, B)
        assert probe(P, k, B)
        if k > 1:
            assert not probe(P, k - 1, B)
