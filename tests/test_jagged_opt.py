"""Tests for the optimal jagged algorithms JAG-PQ-OPT and JAG-M-OPT (§3.2)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.core.prefix import PrefixSum2D
from repro.jagged import (
    jag_m_heur,
    jag_m_opt,
    jag_m_opt_bottleneck,
    jag_m_opt_dp_bottleneck,
    jag_pq_heur,
    jag_pq_opt,
    jag_pq_opt_bottleneck,
    jag_pq_opt_dp_bottleneck,
)
from repro.jagged import pq_opt
from repro.oned.bisect import bisect_bottleneck
from repro.oned.probe import probe
from repro.rectilinear.opt import rect_opt, rect_opt_bottleneck

tiny_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    elements=st.integers(0, 30),
)

#: up to 8×8, about half the cells zero (empty stripes and all-zero rows)
zero_heavy_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.one_of(st.just(0), st.integers(0, 30)),
)

_shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))


@st.composite
def _zero_rows(draw):
    A = draw(hnp.arrays(np.int64, _shapes, elements=st.integers(0, 30)))
    A[draw(hnp.arrays(np.bool_, (A.shape[0],)))] = 0
    return A


#: tie-heavy: 0/1 cells, all ones, whole zero rows, one row, one column
tie_heavy_matrices = st.one_of(
    hnp.arrays(np.int64, _shapes, elements=st.integers(0, 1)),
    _shapes.map(lambda s: np.ones(s, dtype=np.int64)),
    _zero_rows(),
    hnp.arrays(np.int64, st.tuples(st.just(1), st.integers(1, 8)), elements=st.integers(0, 9)),
    hnp.arrays(np.int64, st.tuples(st.integers(1, 8), st.just(1)), elements=st.integers(0, 9)),
)


def plain_feasible(A, P, Q, B):
    """The probe-of-probes decision, stripes grown one row at a time."""
    n1 = A.shape[0]
    G = np.zeros((n1 + 1, A.shape[1] + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    pos = 0
    for _ in range(P):
        end = pos
        while end < n1 and probe(G[end + 1] - G[pos], Q, B):
            end += 1
        if end == pos:
            return pos == n1
        pos = end
    return pos == n1


def brute_pq(A, P, Q):
    """Exhaustive optimal P×Q-way jagged bottleneck (main dim 0)."""
    n1, n2 = A.shape
    G = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    best = None
    k = min(P, n1) - 1
    for bounds in itertools.combinations(range(1, n1), k):
        bb = [0, *bounds, n1]
        worst = 0
        for a, b in zip(bb, bb[1:]):
            band = G[b, :] - G[a, :]
            worst = max(worst, bisect_bottleneck(band, Q))
        best = worst if best is None else min(best, worst)
    return best


def brute_mway(A, m):
    """Exhaustive optimal m-way jagged bottleneck (main dim 0)."""
    n1, n2 = A.shape
    G = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    INF = 1 << 60
    best = None
    for nstripes in range(1, min(n1, m) + 1):
        for bounds in itertools.combinations(range(1, n1), nstripes - 1):
            bb = [0, *bounds, n1]
            f = [INF] * (m + 1)
            f[0] = 0
            for a, b in zip(bb, bb[1:]):
                band = G[b, :] - G[a, :]
                g = [INF] * (m + 1)
                for used in range(m + 1):
                    if f[used] == INF:
                        continue
                    for q in range(1, m - used + 1):
                        v = max(f[used], bisect_bottleneck(band, q))
                        if v < g[used + q]:
                            g[used + q] = v
                f = g
            v = min(f[1:])
            best = v if best is None else min(best, v)
    return best


class TestJagPQOpt:
    @given(tiny_matrices, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, A, P, Q):
        pref = PrefixSum2D(A)
        assert jag_pq_opt_bottleneck(pref, P, Q) == brute_pq(A, P, Q)

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_not_worse_than_heuristic(self, A, m):
        opt = jag_pq_opt(A, m).max_load(A)
        heur = jag_pq_heur(A, m).max_load(A)
        assert opt <= heur

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_achieves_bottleneck(self, A, m):
        p = jag_pq_opt(A, m, orientation="hor")
        p.validate()
        from repro.jagged.common import choose_pq

        P, Q = choose_pq(m, A.shape[0], A.shape[1])
        assert p.max_load(A) == jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q)

    @given(zero_heavy_matrices, st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_paper_dp(self, A, P, Q):
        """The probe-of-probes bisection against the Manne–Sørevik DP, P > n1 included."""
        pref = PrefixSum2D(A)
        assert jag_pq_opt_bottleneck(pref, P, Q) == jag_pq_opt_dp_bottleneck(pref, P, Q)

    @given(tie_heavy_matrices, st.integers(1, 10), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_probe_bounds_are_sound(self, A, P, Q):
        """Every probe's bound against the plain decision, P > n1 included.

        An infeasible probe at ``B`` returns ``b > B`` with every value of
        ``[B, b)`` infeasible; a feasible one returns ``b <= B``, feasible.
        """
        pref = PrefixSum2D(A)
        lb = max(-(-pref.total // (P * Q)), pref.max_element())
        for B in range(lb, max(lb, pref.total) + 1):
            cuts, b = pq_opt._probe(pref, P, Q, B)
            if cuts is None:
                assert b > B
                assert not any(plain_feasible(A, P, Q, x) for x in range(B, b))
            else:
                assert b <= B and plain_feasible(A, P, Q, b)
                assert cuts[0] == 0 and cuts[-1] == A.shape[0] and len(cuts) == P + 1

    @given(tie_heavy_matrices, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_orientations_match_dp_and_bruteforce(self, A, m):
        """-HOR and -VER reach their optimum; -BEST keeps the smaller, ties to HOR."""
        from repro.jagged.common import choose_pq

        lmax = {}
        for o, M in (("hor", A), ("ver", A.T)):
            part = jag_pq_opt(A, m, orientation=o)
            P, Q = choose_pq(m, *M.shape)
            want = brute_pq(M, P, Q)
            assert jag_pq_opt_dp_bottleneck(PrefixSum2D(M), P, Q) == want
            assert part.meta["lmax"] == part.max_load(A) == want
            assert part.meta["orientation"] == o
            lmax[o] = want
        best = jag_pq_opt(A, m)
        best.validate()
        winner = "ver" if lmax["ver"] < lmax["hor"] else "hor"
        assert (best.meta["orientation"], best.meta["lmax"]) == (winner, lmax[winner])
        assert np.array_equal(best.coords(), jag_pq_opt(A, m, orientation=winner).coords())

    def test_medium_instance(self, rng):
        A = rng.integers(1, 100, (40, 40))
        p = jag_pq_opt(A, 16)
        p.validate()
        assert p.max_load(A) <= jag_pq_heur(A, 16).max_load(A)


class TestJagMOpt:
    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, A, m):
        pref = PrefixSum2D(A)
        assert jag_m_opt_bottleneck(pref, m) == brute_mway(A, m)

    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_matches_paper_dp(self, A, m):
        pref = PrefixSum2D(A)
        assert jag_m_opt_bottleneck(pref, m) == jag_m_opt_dp_bottleneck(pref, m)

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_dominance_chain(self, A, m):
        """OPT(m-way) <= OPT(P×Q-way) <= HEUR(P×Q); OPT(m-way) <= HEUR(m-way)."""
        mo = jag_m_opt(A, m).max_load(A)
        assert mo <= jag_pq_opt(A, m).max_load(A)
        assert mo <= jag_m_heur(A, m).max_load(A)

    @given(tiny_matrices, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_partition_achieves_bottleneck(self, A, m):
        pref = PrefixSum2D(A)
        p = jag_m_opt(pref, m, orientation="hor")
        p.validate()
        assert p.max_load(pref) == jag_m_opt_bottleneck(pref, m)

    def test_medium_instance_beats_heuristic(self, rng):
        A = rng.integers(1, 100, (32, 32))
        m = 25
        opt = jag_m_opt(A, m)
        opt.validate()
        assert opt.max_load(A) <= jag_m_heur(A, m).max_load(A)

    def test_dp_size_guard(self, rng):
        from repro.core.errors import ParameterError

        A = rng.integers(1, 5, (100, 100))
        with pytest.raises(ParameterError):
            jag_m_opt_dp_bottleneck(PrefixSum2D(A), 1000)


_ONES = np.ones((4, 4), dtype=np.int64)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: jag_pq_opt_bottleneck(PrefixSum2D(_ONES), 0, 3), id="pq-opt-bottleneck"),
        pytest.param(lambda: jag_pq_opt(_ONES, 0, P=0, Q=5), id="pq-opt"),
        pytest.param(lambda: jag_pq_opt(_ONES, -3, P=-1, Q=3), id="pq-opt-negative"),
        pytest.param(lambda: jag_pq_opt_dp_bottleneck(PrefixSum2D(_ONES), 0, 3), id="pq-opt-dp"),
        pytest.param(lambda: jag_m_opt_dp_bottleneck(PrefixSum2D(_ONES), 0), id="m-opt-dp"),
        pytest.param(lambda: rect_opt_bottleneck(PrefixSum2D(_ONES), 0, 3), id="rect-opt-bottleneck"),
        pytest.param(lambda: rect_opt_bottleneck(PrefixSum2D(_ONES), 3, 0), id="rect-opt-bottleneck-q"),
        pytest.param(lambda: rect_opt(_ONES, 0, P=0, Q=3), id="rect-opt"),
    ],
)
def test_exact_solvers_reject_non_positive_counts(call):
    """Zero or negative P, Q or m is a ParameterError at the entry point.

    These once raised ZeroDivisionError, RecursionError or a bare
    ValueError, or returned the DP's infinity sentinel as an answer.
    """
    with pytest.raises(ParameterError):
        call()
