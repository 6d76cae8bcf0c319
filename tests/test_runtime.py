"""Tests for the BSP execution simulator."""

import numpy as np
import pytest

from repro import partition_2d
from repro.core.errors import ParameterError
from repro.core.partition import Partition
from repro.core.rectangle import Rect
from repro.dynamic import EveryK
from repro.runtime import BSPSimulator, CostModel, SimulationReport


def snapshots(n=16, steps=4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(100, 200, (n, n))
    out = []
    for k in range(steps):
        drift = rng.integers(0, 20, (n, n))
        out.append((k * 500, (base + k * drift).astype(np.int64)))
    return out


def jag(pref, m):
    return partition_2d(pref, m, "JAG-M-HEUR")


class TestAccounting:
    def test_report_totals_are_sums(self):
        sim = BSPSimulator(4, jag)
        rep = sim.run(snapshots())
        assert rep.total_time == pytest.approx(
            rep.compute_time + rep.comm_time + rep.migration_time
        )
        assert len(rep.steps) == 4
        assert rep.total_time == pytest.approx(sum(s.total_time for s in rep.steps))

    def test_first_step_never_migrates(self):
        rep = BSPSimulator(4, jag).run(snapshots())
        assert rep.steps[0].migration_time == 0.0
        assert rep.steps[0].repartitioned

    def test_static_strategy_no_migration(self):
        rep = BSPSimulator(4, jag, policy=EveryK(0)).run(snapshots())
        assert rep.migration_time == 0.0
        assert [s.repartitioned for s in rep.steps] == [True, False, False, False]

    def test_periodic_repartitioning(self):
        rep = BSPSimulator(4, jag, policy=EveryK(2)).run(snapshots())
        assert [s.repartitioned for s in rep.steps] == [True, False, True, False]

    def test_compute_time_scales_with_alpha(self):
        snaps = snapshots()
        r1 = BSPSimulator(4, jag, cost=CostModel(alpha=1e-6, beta=0, gamma=0)).run(snaps)
        r2 = BSPSimulator(4, jag, cost=CostModel(alpha=2e-6, beta=0, gamma=0)).run(snaps)
        assert r2.compute_time == pytest.approx(2 * r1.compute_time)

    def test_steps_per_snapshot_multiplies_comp_and_comm(self):
        snaps = snapshots()
        r1 = BSPSimulator(4, jag).run(snaps)
        r3 = BSPSimulator(4, jag).run(snaps, steps_per_snapshot=3)
        assert r3.compute_time == pytest.approx(3 * r1.compute_time)
        assert r3.comm_time == pytest.approx(3 * r1.comm_time)
        assert r3.migration_time == pytest.approx(r1.migration_time)

    def test_imbalance_recorded(self):
        rep = BSPSimulator(4, jag).run(snapshots())
        for s in rep.steps:
            assert s.imbalance >= 0
        assert rep.mean_imbalance == pytest.approx(
            np.mean([s.imbalance for s in rep.steps])
        )

    def test_static_worse_than_dynamic_on_drifting_load(self):
        """Repartitioning pays off when the load drifts (the paper's motivation)."""
        rng = np.random.default_rng(2)
        n = 32
        snaps = []
        for k in range(6):
            A = np.ones((n, n), dtype=np.int64)
            c = 4 + 4 * k  # peak moving across the domain
            A[:, max(0, c - 4) : c + 4] = 500
            snaps.append((k * 500, A))
        cost = CostModel(alpha=1e-6, beta=0.0, gamma=0.0)  # isolate imbalance
        static = BSPSimulator(8, jag, cost=cost, policy=EveryK(0)).run(snaps)
        dynamic = BSPSimulator(8, jag, cost=cost, policy=EveryK(1)).run(snaps)
        assert dynamic.compute_time < static.compute_time

    def test_summary_string(self):
        rep = BSPSimulator(2, jag).run(snapshots(steps=2))
        s = rep.summary()
        assert "steps=2" in s and "mean_imb" in s

    def test_empty_report(self):
        rep = SimulationReport()
        assert rep.total_time == 0.0
        assert rep.mean_imbalance == 0.0


class TestExactImbalance:
    def test_step_imbalance_exact_past_float_precision(self):
        from fractions import Fraction

        from repro.core.partition import Partition
        from repro.core.rectangle import Rect

        # total > 2^62: the old lavg = total / m float path collapsed this
        # tiny positive imbalance to 0.0 (same bug class as
        # Partition.imbalance before PR 5)
        big = (1 << 61) + 2
        A = np.array([[big, big - 1]], dtype=np.int64)
        fixed = Partition(
            [Rect(0, 1, 0, 1), Rect(0, 1, 1, 2)], shape=(1, 2), method="manual"
        )
        rep = BSPSimulator(2, lambda pref, m: fixed).run([(0, A)])
        total = 2 * big - 1
        expected = float(Fraction(2 * big - total, total))
        assert expected > 0.0
        assert rep.steps[0].imbalance == expected
        naive = float(big) / (float(total) / 2) - 1.0
        assert naive == 0.0  # what the old code recorded

    def test_matches_partition_imbalance(self):
        snaps = snapshots()
        parts = []

        def capture(pref, m):
            part = jag(pref, m)
            parts.append((part, pref))
            return part

        rep = BSPSimulator(4, capture).run(snaps)
        for s, (part, pref) in zip(rep.steps, parts):
            assert s.imbalance == part.imbalance(pref)


class TestSubstratePassThrough:
    def test_sparse_stream_never_densifies(self):
        from repro.core.prefix import PrefixSum2D
        from repro.core.sparse import SparsePrefix2D

        rng = np.random.default_rng(3)
        mats = []
        for _ in range(3):
            A = np.zeros((32, 32), dtype=np.int64)
            idx = rng.integers(0, 32, (40, 2))
            A[idx[:, 0], idx[:, 1]] = rng.integers(1, 100, 40)
            mats.append(A)

        seen = []

        def capture(pref, m):
            seen.append(pref)
            return jag(pref, m)

        sparse_rep = BSPSimulator(4, capture).run(
            (k, SparsePrefix2D(A)) for k, A in enumerate(mats)
        )
        # the substrate the partitioner (and all metrics) received is the
        # caller's sparse one — the old hardwired PrefixSum2D(A) densified
        assert all(isinstance(p, SparsePrefix2D) for p in seen)
        assert not any(isinstance(p, PrefixSum2D) for p in seen)
        # and the accounting is bit-identical to the dense run
        dense_rep = BSPSimulator(4, jag).run(list(enumerate(mats)))
        assert sparse_rep.steps == dense_rep.steps


class TestBSPSimulator:
    def test_compute_time_is_alpha_times_lmax(self):
        fixed = Partition(
            [Rect(0, 1, 0, 1), Rect(0, 1, 1, 2)], shape=(1, 2), method="manual"
        )
        cost = CostModel(alpha=1.0, beta=0.0, gamma=0.0)
        rep = BSPSimulator(2, lambda p, m: fixed, cost=cost).run(
            [(0, np.array([[6, 2]], dtype=np.int64))]
        )
        assert rep.steps[0].compute_time == 6.0
        assert rep.steps[0].max_load == 6

    @pytest.mark.parametrize("m", [0, -1, 2.0])
    def test_rejects_bad_processor_count(self, m):
        with pytest.raises(ParameterError, match="m must be"):
            BSPSimulator(m, jag)

    @pytest.mark.parametrize("steps", [0, -3, 1.5])
    def test_rejects_bad_steps_per_snapshot(self, steps):
        with pytest.raises(ParameterError, match="steps_per_snapshot"):
            BSPSimulator(4, jag).run(snapshots(steps=1), steps_per_snapshot=steps)

    def test_rejects_partition_of_wrong_size(self):
        with pytest.raises(ParameterError, match="2 parts for m=4"):
            BSPSimulator(4, lambda p, m: jag(p, 2)).run(snapshots(steps=1))


class TestCostModel:
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative(self, field, bad):
        with pytest.raises(ParameterError, match=field):
            CostModel(**{field: bad})
