"""Tests for hierarchical bipartitions: HIER-RB, HIER-RELAXED, HIER-OPT (§3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.hierarchical import (
    HIER_VARIANTS,
    HierTree,
    hier_opt,
    hier_opt_bottleneck,
    hier_rb,
    hier_relaxed,
)
from repro.perf.kernels import relaxed_splits, weighted_cuts

from .conftest import load_matrices, prefix_of

tiny_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.integers(0, 30),
)


def _one_window(bp):
    """``bp`` as a frontier batch of one window."""
    return np.asarray(bp, dtype=np.int64), np.array([0, len(bp)], dtype=np.int64)


def weighted_cut(bp, w1, w2):
    """``(cut, max(L1/w1, L2/w2) · w1·w2)`` over the whole prefix, or None."""
    (found,) = weighted_cuts(*_one_window(bp), [((w1, w2),)])
    return None if found is None else found[:2]


def relaxed_split(bp, m):
    (found,) = relaxed_splits(*_one_window(bp), [m])
    return found


class TestCutHelpers:
    def test_weighted_cut_balances(self):
        bp = prefix_of([4, 4, 4, 4])
        cut, val = weighted_cut(bp, 1, 1)
        assert cut == 2 and val == 8

    def test_weighted_cut_respects_weights(self):
        bp = prefix_of([3, 3, 3, 3])
        cut, val = weighted_cut(bp, 3, 1)
        assert cut == 3  # 9 load for 3 procs vs 3 for 1
        assert val == 9  # max(9/3, 3/1) = 3, scaled by w1·w2 = 3

    def test_weighted_cut_too_short(self):
        assert weighted_cut(prefix_of([5]), 1, 1) is None

    def test_relaxed_split_uniformish(self):
        bp = prefix_of([2] * 16)
        cut, j, val = relaxed_split(bp, 4)
        assert 1 <= cut <= 15 and 1 <= j <= 3
        assert val == pytest.approx(8.0)

    def test_relaxed_split_too_small(self):
        assert relaxed_split(prefix_of([5]), 4) is None
        assert relaxed_split(prefix_of([5, 5]), 1) is None


@pytest.mark.parametrize("algo", [hier_rb, hier_relaxed])
class TestHierCommon:
    @given(A=load_matrices, m=st.integers(1, 9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_valid_all_variants(self, algo, A, m, data):
        variant = data.draw(st.sampled_from(HIER_VARIANTS))
        p = algo(A, m, variant)
        assert p.m == m
        p.validate()

    def test_indexer_matches_owner_map(self, algo, rng):
        A = rng.integers(0, 9, (12, 10))
        p = algo(A, 7)
        owner = p.owner_map()
        for i in range(12):
            for j in range(10):
                assert p.owner_of(i, j) == owner[i, j]

    def test_unknown_variant(self, algo, rng):
        with pytest.raises(ParameterError):
            algo(rng.integers(1, 5, (4, 4)), 2, "sideways")

    def test_nonpositive_m(self, algo, rng):
        with pytest.raises(ParameterError):
            algo(rng.integers(1, 5, (4, 4)), 0)

    def test_tiny_matrix_idle_processors(self, algo):
        A = np.array([[5]])
        p = algo(A, 4)
        assert p.m == 4
        p.validate()
        assert p.max_load(A) == 5

    def test_deep_tree_no_recursion_error(self, algo):
        # a 1-cell-wide matrix forces a chain of cuts along one dimension
        A = np.ones((2048, 1), dtype=np.int64)
        p = algo(A, 512)
        p.validate()


class TestAgainstOptOracle:
    @given(tiny_matrices, st.integers(1, 5), st.sampled_from(HIER_VARIANTS))
    @settings(max_examples=40, deadline=None)
    def test_heuristics_never_beat_opt(self, A, m, variant):
        opt = hier_opt_bottleneck(A, m)
        assert hier_rb(A, m, variant).max_load(A) >= opt
        assert hier_relaxed(A, m, variant).max_load(A) >= opt

    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_opt_partition_achieves_dp_value(self, A, m):
        p = hier_opt(A, m)
        p.validate()
        assert p.max_load(A) == hier_opt_bottleneck(A, m)

    def test_opt_single_processor(self, rng):
        A = rng.integers(1, 9, (4, 4))
        assert hier_opt_bottleneck(A, 1) == A.sum()

    def test_opt_size_guard(self, rng):
        A = rng.integers(1, 5, (64, 64))
        with pytest.raises(ParameterError):
            hier_opt_bottleneck(A, 64, limit=1000)


class TestTreeStructure:
    def test_meta_contains_tree(self, rng):
        A = rng.integers(1, 9, (8, 8))
        p = hier_rb(A, 4)
        tree = p.meta["tree"]
        assert isinstance(tree, HierTree)
        assert tree.procs[0] == 4
        leaves = tree.leaves()
        assert [tree.proc[k] for k in leaves] == list(range(len(leaves)))

    def test_power_of_two_balanced_depth(self, rng):
        A = rng.integers(1, 9, (32, 32))
        p = hier_rb(A, 16)
        assert p.meta["tree"].depth() == 4

    def test_variants_differ_on_skewed_instance(self):
        # a wide flat matrix: DIST always cuts columns, HOR starts with rows
        A = np.arange(1, 5 * 64 + 1, dtype=np.int64).reshape(5, 64)
        rb_dist = hier_rb(A, 8, "dist")
        first_dims = {rb_dist.meta["tree"].dim[0]}
        assert first_dims == {1}
        rb_hor = hier_rb(A, 8, "hor")
        assert rb_hor.meta["tree"].dim[0] == 0
