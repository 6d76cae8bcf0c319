"""Integration tests: full pipelines across modules.

Each test drives a realistic end-to-end flow the library supports:
instance generation → partitioning → metrics → rendering/serialization →
execution simulation, mixing modules the unit tests cover in isolation.
"""

import pytest

from repro import (
    ALGORITHMS,
    algorithm_names,
    communication_volume,
    load_imbalance,
    lower_bound,
    partition_2d,
)
from repro.core.prefix import PrefixSum2D
from repro.core.render import ascii_render, save_ppm
from repro.core.serialize import load_partition, save_partition
from repro.dynamic import EveryK, IncrementalJagged
from repro.instances import PICConfig, PICMagDataset, peak, slac_instance
from repro.runtime import BSPSimulator, CostModel


class TestStaticPipeline:
    def test_peak_to_report(self, tmp_path, rng):
        """Generate → partition with every heuristic → metrics → artifacts."""
        A = peak(64, seed=3)
        pref = PrefixSum2D(A)
        report = {}
        for name in algorithm_names(heuristics_only=True):
            part = ALGORITHMS[name](pref, 12)
            part.validate()
            report[name] = {
                "imbalance": load_imbalance(pref, part),
                "comm": communication_volume(part),
            }
            assert part.max_load(pref) >= lower_bound(pref, 12)
        # artifacts for the winning method
        best = min(report, key=lambda k: report[k]["imbalance"])
        part = ALGORITHMS[best](pref, 12)
        art = ascii_render(part, max_width=32, max_height=16)
        assert len(art.splitlines()) == 16
        img = save_ppm(part, tmp_path / "best.ppm", A=A)
        assert img.stat().st_size > 0
        loaded = load_partition(save_partition(part, tmp_path / "best.json"))
        assert loaded.max_load(pref) == part.max_load(pref)

    def test_sparse_mesh_pipeline(self):
        """SLAC flow: mesh → projection → comparison of the families."""
        A = slac_instance(96)
        pref = PrefixSum2D(A)
        imb = {
            name: ALGORITHMS[name](pref, 25).imbalance(pref)
            for name in ("RECT-UNIFORM", "JAG-M-HEUR", "HIER-RELAXED")
        }
        # load-aware methods must beat the area-balancing baseline on a
        # sparse instance by a wide margin
        assert imb["JAG-M-HEUR"] < 0.5 * imb["RECT-UNIFORM"]
        assert imb["HIER-RELAXED"] < 0.5 * imb["RECT-UNIFORM"]


class TestDynamicPipeline:
    @pytest.fixture(scope="class")
    def dataset(self):
        return PICMagDataset(
            PICConfig(grid=48, particles=4000, seed=21, particle_load=400, smooth=2),
            period=200,
            max_iteration=1200,
            cache=False,
        )

    def test_bsp_with_incremental_strategy(self, dataset):
        """PIC snapshots → incremental repartitioning → BSP accounting."""
        inc = IncrementalJagged(9, threshold=0.15)
        sim = BSPSimulator(
            9,
            lambda pref, m: partition_2d(pref, m, "JAG-M-HEUR"),
            cost=CostModel(alpha=1e-6, beta=2e-6, gamma=1e-6),
            policy=inc,
        )
        rep = sim.run(dataset.snapshots(), steps_per_snapshot=200)
        assert len(rep.steps) == 7
        assert rep.total_time > 0
        assert inc.full_repartitions >= 1
        assert inc.full_repartitions + inc.refinements == 7
        # balance stays sane throughout the run
        assert rep.mean_imbalance < 1.0

    def test_strategy_comparison_is_consistent(self, dataset):
        """Dynamic repartitioning never increases compute time vs static."""
        cost = CostModel(alpha=1e-6, beta=0.0, gamma=0.0)

        def jag(pref, m):
            return partition_2d(pref, m, "JAG-M-HEUR")

        static = BSPSimulator(9, jag, cost=cost, policy=EveryK(0)).run(
            dataset.snapshots()
        )
        dynamic = BSPSimulator(9, jag, cost=cost, policy=EveryK(1)).run(
            dataset.snapshots()
        )
        assert dynamic.compute_time <= static.compute_time * (1 + 1e-9)


class TestExactVersusHeuristicPipeline:
    def test_optimality_chain_on_real_instance(self):
        """On a PIC-like snapshot: LB <= M-OPT <= {PQ-OPT, M-HEUR} <= PQ-HEUR."""
        ds = PICMagDataset(
            PICConfig(grid=32, particles=2500, seed=5),
            period=100,
            max_iteration=200,
            cache=False,
        )
        A = ds.snapshot(200)
        pref = PrefixSum2D(A)
        m = 10
        lb = lower_bound(pref, m)
        mo = partition_2d(pref, m, "JAG-M-OPT").max_load(pref)
        po = partition_2d(pref, m, "JAG-PQ-OPT").max_load(pref)
        mh = partition_2d(pref, m, "JAG-M-HEUR").max_load(pref)
        ph = partition_2d(pref, m, "JAG-PQ-HEUR").max_load(pref)
        assert lb <= mo <= po <= ph
        assert mo <= mh
