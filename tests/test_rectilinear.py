"""Tests for RECT-UNIFORM and RECT-NICOL (§3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParameterError
from repro.core.prefix import PrefixSum2D
from repro.instances import peak, uniform
from repro.rectilinear import grid_bottleneck, rect_nicol, rect_uniform, uniform_cuts

from .conftest import load_matrices


class TestUniformCuts:
    def test_even_split(self):
        np.testing.assert_array_equal(uniform_cuts(8, 4), [0, 2, 4, 6, 8])

    def test_uneven_split(self):
        cuts = uniform_cuts(10, 3)
        assert cuts[0] == 0 and cuts[-1] == 10
        assert (np.diff(cuts) >= 3).all()

    def test_more_parts_than_cells(self):
        cuts = uniform_cuts(2, 5)
        assert cuts[0] == 0 and cuts[-1] == 2
        assert (np.diff(cuts) >= 0).all()


class TestRectUniform:
    @given(load_matrices, st.integers(1, 9))
    @settings(max_examples=40)
    def test_valid(self, A, m):
        p = rect_uniform(A, m)
        assert p.m == m
        p.validate()

    def test_balances_area_not_load(self, rng):
        # all the load in one corner: RECT-UNIFORM ignores it
        A = np.ones((8, 8), dtype=np.int64)
        A[:4, :4] = 100
        p = rect_uniform(A, 4)
        areas = {r.area for r in p.rects}
        assert areas == {16}
        assert p.imbalance(A) > 1.0

    def test_explicit_pq(self, rng):
        A = rng.integers(1, 9, (6, 6))
        p = rect_uniform(A, 6, P=2, Q=3)
        p.validate()
        with pytest.raises(ParameterError):
            rect_uniform(A, 6, P=2, Q=2)

    def test_grid_bottleneck_matches_loads(self, rng):
        A = rng.integers(0, 9, (7, 9))
        pf = PrefixSum2D(A)
        p = rect_uniform(pf, 6, P=2, Q=3)
        rc, cc = p.meta["row_cuts"], p.meta["col_cuts"]
        assert grid_bottleneck(pf, rc, cc) == p.max_load(pf)


class TestRectNicol:
    @given(load_matrices, st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_valid(self, A, m):
        p = rect_nicol(A, m)
        assert p.m == m
        p.validate()

    def test_never_worse_than_uniform(self, rng):
        for seed in range(5):
            A = peak(48, seed=seed)
            for m in (4, 16, 36):
                assert rect_nicol(A, m).max_load(A) <= rect_uniform(A, m).max_load(A)

    def test_converges_quickly_on_uniformish(self):
        A = uniform(64, 1.2, seed=0)
        p = rect_nicol(A, 16)
        assert p.meta["iterations"] <= 10  # paper: 3-10 iterations in practice

    def test_explicit_pq_mismatch(self, rng):
        with pytest.raises(ParameterError):
            rect_nicol(rng.integers(1, 5, (4, 4)), 4, P=3, Q=2)

    @pytest.mark.parametrize(
        "kw, match",
        [
            # P*Q == m, but the uniform start failed inside numpy
            (dict(P=-1, Q=-4), "P must be an integer >= 1"),
            (dict(P=2.0, Q=2), "P must be an integer >= 1"),  # was a bare TypeError
            (dict(P=2, Q=True), "Q must be an integer >= 1"),
        ],
        ids=["negative-pq", "float-p", "bool-q"],
    )
    def test_malformed_arguments_are_parameter_errors(self, rng, kw, match):
        A = rng.integers(1, 5, (8, 8))
        with pytest.raises(ParameterError, match=match):
            rect_nicol(A, 4, **kw)

    def test_integral_arguments_of_any_int_type(self, rng):
        A = rng.integers(1, 5, (8, 8))
        want = rect_nicol(A, 4, P=2, Q=2).coords()
        got = rect_nicol(A, 4, P=np.int64(2), Q=np.int32(2))
        np.testing.assert_array_equal(got.coords(), want)

    def test_single_processor(self, rng):
        A = rng.integers(1, 5, (4, 4))
        p = rect_nicol(A, 1)
        assert p.max_load(A) == A.sum()

    def test_indexer_matches_owner_map(self, rng):
        A = rng.integers(0, 9, (10, 12))
        p = rect_nicol(A, 6)
        owner = p.owner_map()
        for i in range(10):
            for j in range(12):
                assert p.owner_of(i, j) == owner[i, j]
