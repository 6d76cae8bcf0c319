"""Tests for the evaluation instances: synthetic, PIC-MAG, SLAC (§4.1)."""

import zipfile

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.instances import (
    PICConfig,
    PICMagDataset,
    PICMagSimulator,
    diagonal,
    make_instance,
    multi_peak,
    peak,
    slac_instance,
    uniform,
)
from repro.instances.mesh import CavityConfig, cavity_vertices, project_vertices
from repro.instances.pic import dataset as pic_dataset
from repro.instances.pic.simulator import _box_smooth


class TestSynthetic:
    def test_uniform_range(self):
        A = uniform(32, 1.4, seed=0)
        assert A.shape == (32, 32)
        assert A.min() >= 1000 and A.max() <= 1400

    def test_uniform_rectangular(self):
        assert uniform(8, 1.2, seed=0, n2=16).shape == (8, 16)

    def test_uniform_delta_domain(self):
        with pytest.raises(ParameterError):
            uniform(8, 0.9)

    @pytest.mark.parametrize("gen", [diagonal, peak, multi_peak])
    def test_distance_classes_positive(self, gen):
        A = gen(24, seed=3)
        assert A.shape == (24, 24)
        assert A.min() >= 1  # strictly positive loads

    def test_deterministic(self):
        np.testing.assert_array_equal(peak(16, seed=5), peak(16, seed=5))
        assert not np.array_equal(peak(16, seed=5), peak(16, seed=6))

    def test_diagonal_concentrates_on_diagonal(self):
        A = diagonal(64, seed=0)
        on_diag = np.mean([A[i, i] for i in range(64)])
        off_diag = np.mean([A[i, (i + 32) % 64] for i in range(64)])
        assert on_diag > 5 * off_diag

    def test_multi_peak_count_validation(self):
        with pytest.raises(ParameterError):
            multi_peak(8, peaks=0)

    def test_make_instance_dispatch(self):
        assert make_instance("uniform", 8).shape == (8, 8)
        assert make_instance("multi-peak", 8).shape == (8, 8)
        with pytest.raises(ParameterError):
            make_instance("volcano", 8)


class TestSLAC:
    def test_sparse_with_zeros(self):
        A = slac_instance(128)
        assert A.shape == (128, 128)
        zero_frac = (A == 0).mean()
        assert zero_frac > 0.2  # genuinely sparse, like the mesh projection

    def test_total_equals_vertex_count(self):
        cfg = CavityConfig(rings=100, density=100.0)
        verts = cavity_vertices(cfg)
        A = project_vertices(verts, 64)
        assert A.sum() == len(verts)

    def test_projection_axes(self):
        verts = cavity_vertices(CavityConfig(rings=50, density=50.0))
        top = project_vertices(verts, 32, axes=(0, 2))
        side = project_vertices(verts, 32, axes=(0, 1))
        assert top.sum() == side.sum()

    def test_projection_validation(self):
        with pytest.raises(ParameterError):
            project_vertices(np.zeros((4, 2)), 8)

    def test_cavity_config_validation(self):
        with pytest.raises(ParameterError):
            cavity_vertices(CavityConfig(rings=1))

    def test_deterministic(self):
        np.testing.assert_array_equal(slac_instance(64), slac_instance(64))


class TestPICSimulator:
    CFG = PICConfig(grid=48, particles=4000, seed=7)

    def test_deterministic(self):
        a = PICMagSimulator(self.CFG)
        b = PICMagSimulator(self.CFG)
        a.step(20)
        b.step(20)
        np.testing.assert_array_equal(a.load_matrix(), b.load_matrix())

    def test_particles_stay_in_domain(self):
        sim = PICMagSimulator(self.CFG)
        sim.step(50)
        assert (sim.x >= 0).all() and (sim.x < 1).all()
        assert (sim.y >= 0).all() and (sim.y < 1).all()

    def test_load_matrix_positive(self):
        sim = PICMagSimulator(self.CFG)
        sim.step(10)
        A = sim.load_matrix()
        assert A.shape == (48, 48)
        assert A.min() >= self.CFG.base_load

    def test_delta_band(self):
        """Default config hits the paper's Δ window (Δ ∈ [1.21, 1.51])."""
        sim = PICMagSimulator(PICConfig(grid=128, particles=30_000))
        sim.step(500)
        assert 1.1 <= sim.delta() <= 1.7

    def test_density_conserves_particles(self):
        sim = PICMagSimulator(self.CFG)
        sim.step(5)
        assert sim.density().sum() == self.CFG.particles

    def test_box_smooth_preserves_mean(self, rng):
        H = rng.uniform(0, 10, (16, 16))
        S = _box_smooth(H, 2)
        assert S.shape == H.shape
        # clamped-window box average preserves constants exactly
        np.testing.assert_allclose(_box_smooth(np.full((8, 8), 3.0), 3), 3.0)

    def test_box_smooth_identity_at_zero(self, rng):
        H = rng.uniform(0, 10, (8, 8))
        assert _box_smooth(H, 0) is H


class TestPICDataset:
    CFG = PICConfig(grid=32, particles=2000, seed=11)

    def test_cadence(self):
        ds = PICMagDataset(self.CFG, period=100, max_iteration=500, cache=False)
        assert ds.iterations == [0, 100, 200, 300, 400, 500]

    def test_snapshot_validation(self):
        ds = PICMagDataset(self.CFG, period=100, max_iteration=500, cache=False)
        with pytest.raises(ParameterError):
            ds.snapshot(150)
        with pytest.raises(ParameterError):
            ds.snapshot(600)

    def test_snapshots_in_order_and_deterministic(self):
        ds1 = PICMagDataset(self.CFG, period=100, max_iteration=300, cache=False)
        ds2 = PICMagDataset(self.CFG, period=100, max_iteration=300, cache=False)
        for (i1, a1), (i2, a2) in zip(ds1.snapshots(), ds2.snapshots()):
            assert i1 == i2
            np.testing.assert_array_equal(a1, a2)

    def test_out_of_order_access(self):
        ds = PICMagDataset(self.CFG, period=100, max_iteration=300, cache=False)
        late = ds.snapshot(300)
        early = ds.snapshot(100)
        ref = PICMagDataset(self.CFG, period=100, max_iteration=300, cache=False)
        np.testing.assert_array_equal(early, ref.snapshot(100))
        np.testing.assert_array_equal(late, ref.snapshot(300))

    @staticmethod
    def _count_simulators(monkeypatch) -> list:
        built = []
        real = pic_dataset.PICMagSimulator

        def spy(config):
            built.append(config)
            return real(config)

        monkeypatch.setattr(pic_dataset, "PICMagSimulator", spy)
        return built

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        ds1 = PICMagDataset(self.CFG, period=100, max_iteration=200)
        a = ds1.snapshot(200)
        built = self._count_simulators(monkeypatch)
        ds2 = PICMagDataset(self.CFG, period=100, max_iteration=200)
        np.testing.assert_array_equal(ds2.snapshot(200), a)
        assert built == []  # served from disk, no simulation

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "bad-entries", "one-bad-entry"])
    def test_corrupt_disk_cache_heals(self, tmp_path, monkeypatch, damage):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        ref = PICMagDataset(self.CFG, period=100, max_iteration=200, cache=False)
        want = dict(ref.snapshots())
        a = PICMagDataset(self.CFG, period=100, max_iteration=200).snapshot(200)
        (path,) = tmp_path.glob("*.npz")
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "garbage":
            path.write_bytes(b"garbage{")
        elif damage == "bad-entries":  # a readable archive whose entries are all unusable
            bad = {"junk": a, "100": a.astype(np.float64), "200": a[:-1], "0": a.ravel()}
            np.savez(path, **bad)
        else:  # one undecodable entry among good ones
            np.savez(path, **{"100": want[100], "200": want[200]})
            with zipfile.ZipFile(path, "a") as zf:
                zf.writestr("0.npy", b"garbage{")
        built = self._count_simulators(monkeypatch)
        ds = PICMagDataset(self.CFG, period=100, max_iteration=200)
        if damage == "one-bad-entry":
            np.testing.assert_array_equal(ds.snapshot(200), want[200])
            assert built == []  # a good entry is served without simulating
            # regenerating 0 rewrites the archive before 100 was ever read
            np.testing.assert_array_equal(ds.snapshot(0), want[0])
        for (i, got), (j, exp) in zip(ds.snapshots(), ref.snapshots(), strict=True):
            assert i == j
            np.testing.assert_array_equal(got, exp)
            assert got.dtype == np.int64
        assert len(built) == 1
        with np.load(path) as data:  # rewritten, and readable again
            assert sorted(int(name) for name in data.files) == ds.iterations
            for it in ds.iterations:
                np.testing.assert_array_equal(data[str(it)], want[it])

    def test_period_validation(self):
        with pytest.raises(ParameterError):
            PICMagDataset(self.CFG, period=0, cache=False)
