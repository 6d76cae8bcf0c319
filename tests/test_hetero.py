"""Tests for the heterogeneous-processor extension (1D + jagged 2D)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParameterError
from repro.core.prefix import PrefixSum2D
from repro.instances import peak
from repro.jagged import hetero_makespan_2d, jag_hetero, jag_m_heur, speed_groups
from repro.oned.bisect import bisect_bottleneck
from repro.oned.hetero import (
    hetero_cuts,
    hetero_makespan,
    partition_hetero,
    probe_hetero,
)

from .conftest import prefix_of


def brute_hetero(vals, speeds):
    """Reference optimal ordered-hetero makespan via exhaustive cuts.

    Cuts may repeat (empty intervals are legal — e.g. skip a slow processor
    so a later fast one takes the load).
    """
    n, m = len(vals), len(speeds)
    best = None
    for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1):
        cc = [0, *cuts, n]
        t = max(vals[a:b].sum() / s for (a, b), s in zip(zip(cc, cc[1:]), speeds))
        best = t if best is None else min(best, t)
    return best if best is not None else float(vals.sum()) / speeds[0]


class TestHetero1D:
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=8).map(np.array),
        st.lists(st.floats(0.5, 4.0), min_size=1, max_size=4),
    )
    @settings(max_examples=80)
    def test_matches_bruteforce(self, vals, speeds):
        speeds = np.array(speeds)
        T, cuts = partition_hetero(vals, speeds)
        bf = brute_hetero(vals, speeds)
        assert T == pytest.approx(bf, rel=1e-6, abs=1e-6)
        assert cuts[0] == 0 and cuts[-1] == len(vals)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=25).map(np.array),
        st.integers(1, 8),
    )
    @settings(max_examples=50)
    def test_equal_speeds_match_homogeneous(self, vals, m):
        P = prefix_of(vals)
        T, _ = partition_hetero(vals, np.ones(m))
        assert T == pytest.approx(bisect_bottleneck(P, m), rel=1e-9, abs=1e-6)

    def test_probe_monotone_in_t(self, rng):
        vals = rng.integers(1, 50, 30)
        P = prefix_of(vals)
        speeds = rng.uniform(0.5, 3.0, 5)
        feas = [probe_hetero(P, speeds, T) for T in np.linspace(0, vals.sum(), 25)]
        assert feas == sorted(feas)

    def test_fast_processor_takes_more(self):
        vals = np.full(100, 10, dtype=np.int64)
        T, cuts = partition_hetero(vals, np.array([3.0, 1.0]))
        widths = np.diff(cuts)
        assert widths[0] == pytest.approx(75, abs=1)

    def test_negative_time_infeasible(self):
        P = prefix_of(np.array([1]))
        assert not probe_hetero(P, np.array([1.0]), -1.0)
        assert hetero_cuts(P, np.array([1.0]), 0.5) is None

    def test_zero_load(self):
        assert hetero_makespan(prefix_of(np.zeros(4, dtype=np.int64)), np.ones(3)) == 0.0

    def test_speed_validation(self):
        with pytest.raises(ParameterError):
            partition_hetero(np.array([1, 2]), np.array([1.0, -1.0]))
        with pytest.raises(ParameterError):
            partition_hetero(np.array([1, 2]), np.zeros(0))

    def test_load_validation(self):
        # both used to be truncated to integers and solved
        with pytest.raises(ParameterError, match="load array must contain integers"):
            partition_hetero([1.5, 2.0], np.ones(2))
        with pytest.raises(ParameterError, match="prefix array must contain integers"):
            partition_hetero([0, 1.5, 3.5], np.ones(2), is_prefix=True)


class TestSpeedGroups:
    def test_partition_of_indices(self, rng):
        speeds = rng.uniform(0.5, 5.0, 13)
        groups = speed_groups(speeds, 4)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(13))

    def test_balanced_totals(self, rng):
        speeds = rng.uniform(1.0, 2.0, 40)
        groups = speed_groups(speeds, 4)
        totals = [speeds[g].sum() for g in groups]
        assert max(totals) / min(totals) < 1.3

    def test_validation(self):
        with pytest.raises(ParameterError):
            speed_groups(np.ones(3), 4)
        with pytest.raises(ParameterError):
            speed_groups(np.ones(3), 0)


class TestJagHetero:
    def test_valid_and_indexed_by_processor(self, rng):
        A = rng.integers(1, 50, (30, 30))
        speeds = rng.uniform(0.5, 4.0, 10)
        p = jag_hetero(A, speeds)
        p.validate()
        assert p.m == 10
        assert p.meta["makespan"] == pytest.approx(
            hetero_makespan_2d(p, A, speeds)
        )

    def test_fast_processors_carry_more(self, rng):
        A = rng.integers(1, 50, (40, 40))
        speeds = np.array([4.0] + [1.0] * 8)
        p = jag_hetero(A, speeds)
        loads = p.loads(PrefixSum2D(A)).astype(float)
        assert loads[0] > 2.0 * loads[1:].mean()

    def test_makespan_near_ideal_on_uniform(self):
        A = np.full((64, 64), 100, dtype=np.int64)
        speeds = np.array([1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0, 1.0])
        p = jag_hetero(A, speeds)
        ideal = A.sum() / speeds.sum()
        assert p.meta["makespan"] <= 1.25 * ideal

    def test_equal_speeds_reasonable(self, rng):
        A = rng.integers(1, 50, (32, 32))
        p = jag_hetero(A, np.ones(9))
        hom = jag_m_heur(A, 9)
        assert p.meta["makespan"] <= 1.3 * hom.max_load(A)

    def test_speed_aware_beats_speed_blind(self):
        """A mixed cluster finishes sooner on its speed-grouped partition than
        on a speed-blind JAG-M-HEUR partition of the same processors."""
        speeds = np.concatenate([np.full(8, 2.5), np.full(24, 1.0)])
        np.random.default_rng(0).shuffle(speeds)
        pref = PrefixSum2D(peak(256, seed=0))
        aware = jag_hetero(pref, speeds).meta["makespan"]
        assert aware < hetero_makespan_2d(jag_m_heur(pref, len(speeds)), pref, speeds)

    def test_lower_bound(self, rng):
        A = rng.integers(1, 20, (16, 16))
        speeds = rng.uniform(0.5, 2.0, 5)
        p = jag_hetero(A, speeds)
        assert p.meta["makespan"] >= A.sum() / speeds.sum() - 1e-9

    def test_speed_validation(self, rng):
        with pytest.raises(ParameterError):
            jag_hetero(rng.integers(1, 5, (4, 4)), np.array([]))
        with pytest.raises(ParameterError):
            hetero_makespan_2d(
                jag_hetero(rng.integers(1, 5, (4, 4)), np.ones(2)),
                rng.integers(1, 5, (4, 4)),
                np.ones(3),
            )
