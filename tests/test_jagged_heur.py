"""Tests for the jagged heuristics JAG-PQ-HEUR and JAG-M-HEUR (§3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.core.prefix import PrefixSum2D
from repro.jagged import (
    allocate_processors,
    choose_pq,
    default_stripe_count,
    jag_m_heur,
    jag_pq_heur,
)
from repro.theory.bounds import jag_m_guarantee, jag_pq_guarantee

from .conftest import alloc_oracle, load_matrices, positive_matrices


class TestChoosePQ:
    def test_square(self):
        assert choose_pq(16, 100, 100) == (4, 4)

    def test_prime(self):
        P, Q = choose_pq(13, 100, 100)
        assert P * Q == 13
        assert {P, Q} == {1, 13}

    def test_orientation_fits_matrix(self):
        P, Q = choose_pq(12, 3, 100)  # only 3 rows available
        assert P * Q == 12 and P <= 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            choose_pq(0, 4, 4)


class TestDefaultStripes:
    def test_sqrt_m(self):
        assert default_stripe_count(100, 1000) == 10

    def test_clamped_by_rows(self):
        assert default_stripe_count(100, 4) == 4

    def test_clamped_by_m(self):
        assert default_stripe_count(2, 1000) <= 2


class TestAllocateProcessors:
    @given(
        hnp.arrays(np.int64, st.integers(1, 8), elements=st.integers(0, 100)),
        st.data(),
    )
    @settings(max_examples=60)
    def test_distributes_exactly_m(self, loads, data):
        m = data.draw(st.integers(len(loads), len(loads) + 12))
        q = allocate_processors(loads, m)
        assert q.sum() == m
        assert (q >= 1).all()

    def test_proportionality(self):
        q = allocate_processors(np.array([75, 25]), 8)
        assert q[0] > q[1]
        assert q.sum() == 8

    def test_zero_loads_uniform(self):
        q = allocate_processors(np.zeros(3, dtype=np.int64), 7)
        assert q.sum() == 7
        assert q.max() - q.min() <= 1

    @pytest.mark.parametrize(
        "loads,m",
        [
            ([2**61, 2**61 + 1, 2**61 - 1, 5], 10),
            ([2**62, 2**62 - 7, 1], 9),
            ([2**62 + 3, 0, 2**61, 2**60], 40),
        ],
    )
    def test_ceilings_exact_where_int64_wraps(self, monkeypatch, loads, m):
        # (m - P)·load passes 2**63 here: the proportional start must be the
        # paper's ceil((m - P)·load/total) in exact integers (at least 1),
        # and the result the exact shave-then-assign rule from that start
        from repro.perf import kernels

        starts = []
        tail = kernels.alloc_tail

        def spy(loads_, q, m_):
            starts.append(q.tolist())
            return tail(loads_, q, m_)

        monkeypatch.setattr(kernels, "alloc_tail", spy)
        P, total = len(loads), sum(loads)
        assert max((m - P) * x for x in loads) > 2**63
        want = [max(1, -(-(m - P) * x // total)) for x in loads]
        got = allocate_processors(np.array(loads, dtype=np.int64), m)
        assert starts == [want]
        assert got.tolist() == alloc_oracle(loads, want, m)

    def test_too_few_processors(self):
        with pytest.raises(ParameterError):
            allocate_processors(np.array([1, 1, 1]), 2)


class TestJagPQHeur:
    @given(load_matrices, st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_valid(self, A, m):
        p = jag_pq_heur(A, m)
        assert p.m == m
        p.validate()
        assert p.method == "JAG-PQ-HEUR"

    @pytest.mark.parametrize("orientation", ["hor", "ver", "best"])
    def test_orientations(self, rng, orientation):
        A = rng.integers(1, 9, (12, 8))
        p = jag_pq_heur(A, 6, orientation=orientation)
        p.validate()

    def test_best_at_least_as_good(self, rng):
        for seed in range(5):
            A = np.random.default_rng(seed).integers(1, 50, (16, 10))
            best = jag_pq_heur(A, 6, orientation="best").max_load(A)
            hor = jag_pq_heur(A, 6, orientation="hor").max_load(A)
            ver = jag_pq_heur(A, 6, orientation="ver").max_load(A)
            assert best == min(hor, ver)

    def test_bad_orientation(self, rng):
        with pytest.raises(ParameterError):
            jag_pq_heur(rng.integers(1, 5, (4, 4)), 4, orientation="diagonal")

    def test_pq_mismatch(self, rng):
        with pytest.raises(ParameterError):
            jag_pq_heur(rng.integers(1, 5, (6, 6)), 6, P=2, Q=2)

    @given(positive_matrices, st.data())
    @settings(max_examples=40, deadline=None)
    def test_theorem1_guarantee(self, A, data):
        """On zero-free matrices the heuristic respects Theorem 1."""
        n1, n2 = A.shape
        P = data.draw(st.integers(1, n1 - 1))
        Q = data.draw(st.integers(1, n2 - 1))
        m = P * Q
        pref = PrefixSum2D(A)
        part = jag_pq_heur(pref, m, P=P, Q=Q, orientation="hor")
        ratio = jag_pq_guarantee(pref, P, Q)
        lavg = pref.total / m
        assert part.max_load(pref) <= ratio * lavg + 1e-6


class TestJagMHeur:
    @given(load_matrices, st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_valid(self, A, m):
        p = jag_m_heur(A, m)
        assert p.m == m
        p.validate()

    def test_stripe_count_override(self, rng):
        A = rng.integers(1, 9, (20, 20))
        p = jag_m_heur(A, 12, num_stripes=3, orientation="hor")
        p.validate()
        assert len(p.meta["stripe_cuts"]) == 4

    def test_stripe_count_out_of_range(self, rng):
        A = rng.integers(1, 9, (8, 8))
        with pytest.raises(ParameterError):
            jag_m_heur(A, 4, num_stripes=9, orientation="hor")

    @given(positive_matrices, st.data())
    @settings(max_examples=40, deadline=None)
    def test_theorem3_guarantee(self, A, data):
        n1, n2 = A.shape
        m = data.draw(st.integers(2, 9))
        P = data.draw(st.integers(1, min(n1 - 1, m - 1)))
        pref = PrefixSum2D(A)
        part = jag_m_heur(pref, m, num_stripes=P, orientation="hor")
        ratio = jag_m_guarantee(pref, P, m)
        lavg = pref.total / m
        assert part.max_load(pref) <= ratio * lavg + 1e-6

    def test_beats_pq_heur_at_scale(self):
        """The paper's headline: m-way jagged beats P×Q-way for large m."""
        from repro.instances import peak

        A = peak(128, seed=1)
        m = 400
        assert jag_m_heur(A, m).max_load(A) <= jag_pq_heur(A, m).max_load(A)

    def test_sparse_matrix_with_zero_stripes(self):
        # rows of zeros force the zero-load stripe handling
        A = np.zeros((12, 12), dtype=np.int64)
        A[5, :] = 7
        p = jag_m_heur(A, 6)
        p.validate()
        assert p.m == 6
