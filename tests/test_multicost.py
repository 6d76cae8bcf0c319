"""Tests for the striped-cost 1D solver used by RECT-NICOL.

The solve narrows its bracket with the bounds each walk proves.  On either
kernel body (production's ``numpy`` slot, or the oracles swapped in by
``reference_kernels``) it must return the brute-force optimum and the
greedy cuts at it, for any ``ub`` hint.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.oned.multicost import multi_bottleneck, multi_cuts, partition_multi, probe_multi

from .conftest import reference_kernels

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


def dp_optimum(M, m) -> int:
    """Exact striped optimum by dynamic programming over the last cut."""
    n = M.shape[1] - 1
    rows = M.tolist()

    def cost(a, b):
        return max(r[b] - r[a] for r in rows)

    best = [cost(0, j) for j in range(n + 1)]  # one interval
    for _ in range(m - 1):
        best = [min(max(best[i], cost(i, j)) for i in range(j + 1)) for j in range(n + 1)]
    return best[n]


def greedy_cuts(M, m, B) -> list[int]:
    """Cuts of the greedy walk at ``B``: each interval reaches as far as it can."""
    n = M.shape[1] - 1
    rows = M.tolist()
    cuts, pos = [0], 0
    while pos < n:
        j = pos
        while j < n and max(r[j + 1] - r[pos] for r in rows) <= B:
            j += 1
        cuts.append(j)
        pos = j
    return cuts + [n] * (m + 1 - len(cuts))


wide_stripe_loads = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40)),
    elements=st.integers(0, 30),
)
HINTS = ("none", "neg", "below", "at", "realised", "above", "above-heaviest", "huge")


class TestBoundTightening:
    """The optimum and the cuts do not depend on the hint or the search."""

    @given(wide_stripe_loads, st.integers(1, 8), st.sampled_from(HINTS))
    @settings(max_examples=300, deadline=None)
    def test_optimum_identical_for_any_hint(self, A, m, where):
        # a hinted solve gallops down from the hint and its walks share one
        # step memo; neither may change the optimum or the greedy cuts at it
        M = stack_prefix(A)
        want = dp_optimum(M, m)
        n = A.shape[1]
        uniform = [min(n, -(-k * n // m)) for k in range(m + 1)]
        hints = {
            "none": None,
            "neg": -7,
            "below": want - 1,
            "at": want,
            "realised": striped_cost(M, uniform),  # what a known partition achieves
            "above": 2 * want + 3,
            "above-heaviest": int(M[:, -1].max()) + 5,
            "huge": 10**30,
        }
        ub = hints[where]
        for backend in ("numpy", "reference"):
            with reference_kernels(backend == "reference"):
                assert multi_bottleneck(M, m, ub=ub) == want, backend
                B, cuts = partition_multi(M, m, ub=ub)
            assert B == want
            assert cuts.tolist() == greedy_cuts(M, m, want), backend

    @given(stripe_loads, st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_cuts_are_the_greedy_cuts_at_the_optimum(self, A, m):
        M = stack_prefix(A)
        with reference_kernels():
            B_ref, cuts_ref = partition_multi(M, m)
        B, cuts = partition_multi(M, m)
        assert B == B_ref and cuts.tolist() == cuts_ref.tolist()
        assert striped_cost(M, cuts) == B

    def test_wide_stripes_match_plain_bisection(self, rng):
        # n >> m: the windowed walk doubles its window on most steps; the
        # oracle is plain integer bisection over the reference walk
        M = stack_prefix(rng.integers(0, 1_000, (5, 3_000)))
        for m in (1, 2, 7, 40):
            lo, hi = 0, int(M[:, -1].max())
            with reference_kernels():
                while lo < hi:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if probe_multi(M, m, mid) else (mid + 1, hi)
                want_cuts = multi_cuts(M, m, lo)
            got = partition_multi(M, m, ub=int(M[:, -1].max()) // m)
            assert got[0] == lo and got[1].tolist() == want_cuts.tolist()


class TestParameterValidation:
    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_m_below_one_is_a_parameter_error(self, m, backend):
        M = stack_prefix(np.array([[3, 1, 4], [1, 5, 9]]))
        with reference_kernels(backend == "reference"):
            with pytest.raises(ParameterError, match="m must be >= 1"):
                multi_bottleneck(M, m)
            with pytest.raises(ParameterError, match="m must be >= 1"):
                partition_multi(M, m)
            with pytest.raises(ParameterError, match="m must be >= 1"):
                multi_cuts(M, m, 100)

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_one_dimensional_prefix_is_one_stripe(self, backend):
        # partition_multi used to raise IndexError on a 1D prefix
        P = np.array([0, 4, 5, 9, 10])
        with reference_kernels(backend == "reference"):
            assert partition_multi(P, 2)[0] == multi_bottleneck(P[None, :], 2) == 5
            assert partition_multi(P, 2)[1].tolist() == [0, 2, 4]
            assert multi_cuts(P, 2, 5).tolist() == [0, 2, 4]
            assert probe_multi(P, 2, 5) and not probe_multi(P, 2, 4)

    @pytest.mark.parametrize(
        "M, match",
        [
            # was truncated to [[0, 1, 3, 6]] and solved (optimum 3)
            ([[0, 1.5, 3, 6]], "stripe prefix must contain integers"),
            ([[0, np.nan, 3, 6]], "stripe prefix must be finite"),
            (np.array([[0, 3, 2**63]], dtype=np.uint64), "exceeds int64"),
            ([[0.0, 3.0, 2.0**64]], "exceeds int64"),
            # a negative load: was solved, optimum 5
            ([[0, 5, 3, 6]], "must be non-decreasing"),
            ([[1, 5, 6]], "must start at 0"),
        ],
        ids=["fractional", "nan", "uint64-2^63", "float-2^64", "decreasing", "offset"],
    )
    def test_malformed_prefix_is_a_parameter_error(self, M, match):
        for call in (
            lambda: multi_bottleneck(M, 2),
            lambda: partition_multi(M, 2, ub=4),
            lambda: multi_cuts(M, 2, 4),
            lambda: probe_multi(M, 2, 4),
        ):
            with pytest.raises(ParameterError, match=match):
                call()
