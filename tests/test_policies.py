"""Tests for the repartitioning-policy framework (dynamic loop, §5)."""

from fractions import Fraction

import numpy as np
import pytest

from repro import partition_2d
from repro.core.errors import ParameterError
from repro.dynamic import (
    EveryK,
    ImbalanceTriggered,
    IncrementalJagged,
    MigrationBudgeted,
    WarmStarted,
    drift_exceeds,
)
from repro.perf.counters import op_counters
from repro.runtime import BSPSimulator, CostModel
from repro.sweep import SweepStore


def blob_snapshots(n=24, steps=5, speed=2.0):
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    out = []
    for k in range(steps):
        cx, cy = 6 + speed * k, 6 + speed * 1.3 * k
        A = 10 + (
            400 * np.exp(-(((ii - cx) ** 2 + (jj - cy) ** 2) / (2 * 4.0**2)))
        ).astype(np.int64)
        out.append((k * 500, A.astype(np.int64)))
    return out


def jag(pref, m):
    return partition_2d(pref, m, "JAG-M-HEUR")


class TestDriftExceeds:
    def test_basic_semantics(self):
        assert drift_exceeds(111, 100, 0.10)
        assert not drift_exceeds(110, 100, 0.10)  # boundary is not exceeded
        assert not drift_exceeds(100, 100, 0.0)
        assert drift_exceeds(101, 100, 0.0)

    def test_degenerate_baseline(self):
        assert drift_exceeds(1, 0, 0.10)
        assert not drift_exceeds(0, 0, 0.10)
        assert not drift_exceeds(-1, 0, 0.10)

    @pytest.mark.parametrize(
        "value,baseline,threshold",
        [
            # triples where the naive float form flips the decision:
            # value > (1.0 + t) * baseline rounds baseline to 53 bits and
            # the product once more; the exact rational answer differs
            (2536428244843917064, 2305843858949015501, 0.1),
            (2421135251765350138, 2305843096919381077, 0.05),
            (2308149920638053043, 2305844076561491554, 0.001),
        ],
    )
    def test_big_int_flip_pins(self, value, baseline, threshold):
        exact = Fraction(value - baseline, baseline) > Fraction(threshold)
        naive = value > (1.0 + threshold) * baseline
        assert naive != exact  # the float form really does flip here
        assert drift_exceeds(value, baseline, threshold) == exact

    def test_scale_invariance(self):
        # the decision is relative: scaling both loads cannot change it
        for v, b in [(111, 100), (110, 100), (2**31 + 1, 2**31)]:
            base = drift_exceeds(v, b, 0.07)
            for c in (3, 1 << 30, (1 << 40) + 7):
                assert drift_exceeds(c * v, c * b, 0.07) == base


class TestEveryK:
    def test_pattern(self):
        snaps = blob_snapshots(steps=5)
        expected = {
            0: [True, False, False, False, False],
            1: [True, True, True, True, True],
            2: [True, False, True, False, True],
        }
        for k, pattern in expected.items():
            rep = BSPSimulator(4, jag, policy=EveryK(k)).run(snaps)
            assert [s.repartitioned for s in rep.steps] == pattern, k
        # EveryK(1) is the simulator's default policy
        assert BSPSimulator(4, jag).run(snaps).steps == (
            BSPSimulator(4, jag, policy=EveryK(1)).run(snaps).steps
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            EveryK(-1)

    def test_fractional_k_rejected(self):
        # pinned: EveryK(2.5) used to truncate silently to every-2
        with pytest.raises(ParameterError):
            EveryK(2.5)


class TestImbalanceTriggered:
    def test_constant_stream_never_retriggers(self):
        # perfectly balanceable load: imbalance stays below any threshold
        A = np.ones((8, 8), dtype=np.int64)
        snaps = [(k, A) for k in range(5)]
        rep = BSPSimulator(4, jag, policy=ImbalanceTriggered(0.10)).run(snaps)
        assert rep.repartitions == 1  # only the mandatory first solve
        assert rep.migration_time == 0.0

    def test_drifting_stream_retriggers(self):
        rep = BSPSimulator(
            8, jag, policy=ImbalanceTriggered(0.0)
        ).run(blob_snapshots(steps=6, speed=3.0))
        assert rep.repartitions > 1

    def test_fewer_solves_than_every_step(self):
        snaps = blob_snapshots(steps=6)
        solves = 0

        def counting(pref, m):
            nonlocal solves
            solves += 1
            return jag(pref, m)

        rep = BSPSimulator(4, counting, policy=ImbalanceTriggered(1.0)).run(snaps)
        # deciding costs no solve: solves happen only on triggered steps
        assert solves == rep.repartitions < len(snaps)

    def test_zero_total_snapshot(self):
        Z = np.zeros((4, 4), dtype=np.int64)
        A = np.ones((4, 4), dtype=np.int64)
        rep = BSPSimulator(2, jag, policy=ImbalanceTriggered(0.1)).run(
            [(0, A), (1, Z), (2, A)]
        )
        assert len(rep.steps) == 3  # empty snapshot neither triggers nor breaks

    def test_validation(self):
        with pytest.raises(ParameterError):
            ImbalanceTriggered(-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_threshold_rejected(self, bad):
        # pinned: these constructed fine, then raised a bare ValueError /
        # OverflowError from Fraction at the first decision
        with pytest.raises(ParameterError):
            ImbalanceTriggered(bad)


class TestMigrationBudgeted:
    def test_prohibitive_gamma_keeps_partition(self):
        cost = CostModel(alpha=1e-6, beta=0.0, gamma=1e3)
        pol = MigrationBudgeted()
        rep = BSPSimulator(8, jag, cost=cost, policy=pol).run(
            blob_snapshots(steps=5, speed=3.0)
        )
        assert rep.repartitions == 1  # migration never amortizes
        assert rep.migration_time == 0.0
        assert pol.candidate_solves == 4  # but every step paid a candidate

    def test_free_migration_tracks_improvement(self):
        cost = CostModel(alpha=1e-6, beta=0.0, gamma=0.0)
        snaps = blob_snapshots(steps=5, speed=3.0)
        rep = BSPSimulator(8, jag, cost=cost, policy=MigrationBudgeted()).run(snaps)
        assert rep.repartitions > 1  # any strict improvement is installed

    def test_validation(self):
        # the horizon is fixed at 5: the policy takes no settings
        assert MigrationBudgeted().name == "budgeted-h5"
        with pytest.raises(TypeError):
            MigrationBudgeted(horizon=3)


class TestWarmStarted:
    def opt(self, pref, m):
        return partition_2d(pref, m, "JAG-M-OPT")

    def test_bit_identical_to_cold_and_seeds_on_rerun(self, tmp_path):
        snaps = blob_snapshots(n=12, steps=3)
        store = SweepStore(tmp_path / "store.json")

        def recording(partitioner):
            rects = []

            def run(pref, m):
                part = partitioner(pref, m)
                rects.append(part.coords().tolist())
                return part

            return run, rects

        cold_run, cold_rects = recording(self.opt)
        cold = BSPSimulator(4, cold_run).run(snaps)

        warm_run1, rects1 = recording(self.opt)
        with op_counters() as populate_ops:
            r1 = BSPSimulator(4, warm_run1, policy=WarmStarted(store=store)).run(snaps)
        assert store.seeded == 0  # nothing on disk yet

        warm_run2, rects2 = recording(self.opt)
        with op_counters() as warm_ops:
            r2 = BSPSimulator(4, warm_run2, policy=WarmStarted(store=store)).run(snaps)
        assert store.seeded > 0  # second pass starts from persisted facts
        # ... and consumes them: strictly less solver work than populating
        assert sum(warm_ops.values()) < sum(populate_ops.values())

        # warm results are bit-identical to cold — the sweep contract
        assert rects1 == cold_rects == rects2
        assert r1.steps == cold.steps == r2.steps

    def test_delegates_decision_to_inner(self):
        snaps = blob_snapshots(steps=4)
        inner = EveryK(2)
        rep = BSPSimulator(4, jag, policy=WarmStarted(inner)).run(snaps)
        plain = BSPSimulator(4, jag, policy=EveryK(2)).run(snaps)
        assert [s.repartitioned for s in rep.steps] == [
            s.repartitioned for s in plain.steps
        ]

    def test_name_composition(self):
        assert WarmStarted(EveryK(3)).name == "warm-every-3"
        assert WarmStarted().name == "warm-every-1"


class TestDeterminism:
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: EveryK(2),
            lambda: ImbalanceTriggered(0.05),
            lambda: MigrationBudgeted(),
            lambda: IncrementalJagged(8, threshold=0.2),
        ],
        ids=["every-2", "imbalance", "budgeted", "incremental"],
    )
    def test_same_stream_same_report(self, make_policy):
        snaps = blob_snapshots(steps=4)
        reps = [
            BSPSimulator(8, jag, policy=make_policy()).run(snaps) for _ in range(2)
        ]
        assert reps[0].steps == reps[1].steps  # frozen dataclass equality

    def test_policy_instance_is_reusable(self):
        # reset() must make one instance reusable across runs
        snaps = blob_snapshots(steps=4)
        pol = MigrationBudgeted()
        sim = BSPSimulator(8, jag, policy=pol)
        assert sim.run(snaps).steps == sim.run(snaps).steps


class TestIncrementalAsPolicy:
    def test_runs_via_policy_route(self):
        inc = IncrementalJagged(8, threshold=0.2)
        rep = BSPSimulator(8, jag, policy=inc).run(blob_snapshots(steps=4))
        assert len(rep.steps) == 4
        assert inc.full_repartitions + inc.refinements == 4

    def test_m_mismatch(self):
        inc = IncrementalJagged(8)
        with pytest.raises(ParameterError):
            BSPSimulator(9, jag, policy=inc).run(blob_snapshots(steps=1))
