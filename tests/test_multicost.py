"""Tests for the striped-cost 1D solver used by RECT-NICOL.

The perf-on solve narrows its bracket with the bounds each walk proves;
the perf-off solve is plain bisection on the reference walk.  Both must
return the same optimum and the same cuts, for any ``ub`` hint.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.oned.multicost import multi_bottleneck, multi_cuts, partition_multi, probe_multi
from repro.perf import use_perf

stripe_loads = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 8)),
    elements=st.integers(0, 30),
)


def stack_prefix(A):
    M = np.zeros((A.shape[0], A.shape[1] + 1), dtype=np.int64)
    M[:, 1:] = np.cumsum(A, axis=1)
    return M


def brute(M, m):
    n = M.shape[1] - 1
    best = None
    for cuts in itertools.combinations(range(1, n), min(m - 1, n - 1)):
        cc = [0, *cuts, n]
        v = max(
            max(int(M[s][b] - M[s][a]) for s in range(M.shape[0]))
            for a, b in zip(cc, cc[1:])
        )
        best = v if best is None else min(best, v)
    return best if best is not None else int(M[:, -1].max())


class TestMultiBottleneck:
    @given(stripe_loads, st.integers(1, 5))
    @settings(max_examples=80)
    def test_matches_bruteforce(self, A, m):
        M = stack_prefix(A)
        assert multi_bottleneck(M, m) == brute(M, m)

    @given(stripe_loads, st.integers(1, 5))
    @settings(max_examples=40)
    def test_cuts_realize_value(self, A, m):
        M = stack_prefix(A)
        B, cuts = partition_multi(M, m)
        assert cuts[0] == 0 and cuts[-1] == A.shape[1]
        worst = 0
        for a, b in zip(cuts, cuts[1:]):
            worst = max(worst, int((M[:, b] - M[:, a]).max()))
        assert worst == B

    def test_single_stripe_equals_plain_1d(self, rng):
        from repro.oned.bisect import bisect_bottleneck

        vals = rng.integers(0, 40, 30)
        M = stack_prefix(vals[None, :])
        for m in (1, 3, 8):
            assert multi_bottleneck(M, m) == bisect_bottleneck(M[0], m)

    def test_probe_multi_monotone_in_b(self, rng):
        A = rng.integers(0, 20, (3, 12))
        M = stack_prefix(A)
        feas = [probe_multi(M, 3, B) for B in range(0, int(A.sum()) + 1, 5)]
        # once feasible, stays feasible
        assert feas == sorted(feas)

    def test_multi_cuts_infeasible(self):
        M = stack_prefix(np.array([[9, 9]]))
        assert multi_cuts(M, 2, 5) is None

    def test_degenerate_empty(self):
        M = np.zeros((2, 1), dtype=np.int64)
        assert multi_bottleneck(M, 3) == 0


def striped_cost(M, cuts) -> int:
    return max(int((M[:, b] - M[:, a]).max()) for a, b in zip(cuts, cuts[1:]))


HINTS = ("neg", "below", "at", "above", "huge")


class TestBoundTightening:
    """The optimum and the cuts do not depend on the hint or the bisection."""

    @given(stripe_loads, st.integers(1, 5), st.sampled_from(HINTS))
    @settings(max_examples=120, deadline=None)
    def test_optimum_identical_for_any_hint(self, A, m, where):
        M = stack_prefix(A)
        want = brute(M, m)
        hints = {"neg": -7, "below": want - 1, "at": want, "above": 2 * want + 3, "huge": 10**30}
        ub = hints[where]
        for perf in (True, False):
            with use_perf(perf):
                assert multi_bottleneck(M, m, ub=ub) == want, perf
                B, cuts = partition_multi(M, m, ub=ub)
            assert B == want
            np.testing.assert_array_equal(cuts, multi_cuts(M, m, want))

    @given(stripe_loads, st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_cuts_are_the_greedy_cuts_at_the_optimum(self, A, m):
        M = stack_prefix(A)
        with use_perf(False):
            B_ref, cuts_ref = partition_multi(M, m)
        with use_perf(True):
            B, cuts = partition_multi(M, m)
        assert B == B_ref and cuts.tolist() == cuts_ref.tolist()
        assert striped_cost(M, cuts) == B

    def test_wide_stripes_match_plain_bisection(self, rng):
        # n >> m: the windowed walk doubles its window on most steps
        M = stack_prefix(rng.integers(0, 1_000, (5, 3_000)))
        for m in (1, 2, 7, 40):
            with use_perf(False):
                want = partition_multi(M, m)
            got = partition_multi(M, m, ub=int(M[:, -1].max()) // m)
            assert got[0] == want[0] and got[1].tolist() == want[1].tolist()


class TestParameterValidation:
    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("perf", [True, False])
    def test_m_below_one_is_a_parameter_error(self, m, perf):
        M = stack_prefix(np.array([[3, 1, 4], [1, 5, 9]]))
        with use_perf(perf):
            with pytest.raises(ParameterError, match="m must be >= 1"):
                multi_bottleneck(M, m)
            with pytest.raises(ParameterError, match="m must be >= 1"):
                partition_multi(M, m)
            with pytest.raises(ParameterError, match="m must be >= 1"):
                multi_cuts(M, m, 100)
