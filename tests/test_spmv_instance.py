"""Tests for the SpMV (sparse-matrix) workload generator."""

import tracemalloc

import numpy as np
import pytest

from repro import partition_2d
from repro.core.errors import ParameterError
from repro.core.sparse import SparsePrefix2D
from repro.instances import rmat_edges, spmv_instance
from repro.instances.mesh.project import (
    project_vertices,
    project_vertices_sparse,
    slac_sparse,
)
from repro.instances.spmv import spmv_sparse


class TestRmatEdges:
    def test_shape_and_range(self):
        edges = rmat_edges(10, 4, seed=0)
        assert edges.shape == (4 * 1024, 2)
        assert edges.min() >= 0 and edges.max() < 1024

    def test_deterministic(self):
        np.testing.assert_array_equal(rmat_edges(8, seed=3), rmat_edges(8, seed=3))

    def test_skew(self):
        """R-MAT concentrates edges in the low-index quadrant."""
        edges = rmat_edges(12, 8, seed=1)
        size = 1 << 12
        low = ((edges[:, 0] < size // 2) & (edges[:, 1] < size // 2)).mean()
        assert low > 0.4  # a=0.57 recursion => far above the uniform 0.25

    def test_validation(self):
        with pytest.raises(ParameterError):
            rmat_edges(0)
        with pytest.raises(ParameterError):
            rmat_edges(4, probs=(0.5, 0.5, 0.5, 0.5))


class TestSpmvInstance:
    def test_rmat_totals(self):
        A = spmv_instance(64, model="rmat", scale=12, edge_factor=4, seed=0)
        assert A.shape == (64, 64)
        assert A.sum() == 4 * (1 << 12)  # every edge lands in one block

    def test_mesh_structure(self):
        A = spmv_instance(32, model="mesh", mesh_size=64)
        # 5-point stencil: nnz = size + 4*size - boundary corrections
        size = 64 * 64
        assert A.sum() == size + 4 * size - 4 * 64
        # banded: mass on/near the block diagonal
        diag_mass = sum(int(A[i, i]) for i in range(32))
        assert diag_mass > 0.5 * int(A.sum())

    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            spmv_instance(16, model="csr")

    def test_bad_resolution(self):
        with pytest.raises(ParameterError):
            spmv_instance(0)

    def test_partitioning_pipeline(self):
        """The intro's use case: balance nonzeros across a 2D decomposition."""
        A = spmv_instance(96, model="rmat", scale=13, seed=2)
        uni = partition_2d(A, 36, "RECT-UNIFORM").imbalance(A)
        jag = partition_2d(A, 36, "JAG-M-HEUR").imbalance(A)
        assert jag < 0.5 * uni  # load-aware tiling pays off on power-law nnz
        partition_2d(A, 36, "JAG-M-HEUR").validate()


class TestSparseGenerators:
    """`large`-profile generator twins: build CSR substrates, never densify."""

    def test_spmv_sparse_rmat_never_densifies(self):
        n = 4096  # the `large` profile's n_spmv; dense Γ would be 128+ MiB
        dense_bytes = 8 * n * n
        tracemalloc.start()
        try:
            sub = spmv_sparse(n, model="rmat", scale=14, edge_factor=8, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(sub, SparsePrefix2D)
        assert sub.shape == (n, n)
        assert sub.total == 8 * (1 << 14)  # every edge lands in one block
        assert peak < dense_bytes / 10
        assert sub.nbytes < dense_bytes / 10

    def test_spmv_sparse_mesh_peak_independent_of_resolution(self):
        """The mesh twin's peak is O(stencil points), not O(n²): growing the
        histogram resolution 4× (16× the cell count) must leave the build's
        peak allocation essentially flat — a densifying build would 16× it."""

        def peak_at(n):
            tracemalloc.start()
            try:
                sub = spmv_sparse(n, model="mesh", mesh_size=512)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert isinstance(sub, SparsePrefix2D)
            size = 512 * 512
            assert sub.total == size + 4 * size - 4 * 512
            return peak

        small, large = peak_at(1024), peak_at(4096)
        assert large < 1.5 * small
        assert large < 8 * 4096 * 4096  # and strictly below one dense Γ

    def test_slac_sparse_peak_independent_of_resolution(self):
        """SLAC's sparse twin peaks at O(vertices): resolution growth from
        2048² to 4096² (4× the cells; 4096 is the `large` profile's n_slac)
        leaves the build's peak allocation flat instead of scaling with the
        grid.  (1024² is below the density threshold's profit point, so the
        dispatcher correctly densifies there — it is not part of this check.)
        """

        def peak_at(n):
            tracemalloc.start()
            try:
                sub = slac_sparse(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert isinstance(sub, SparsePrefix2D)
            assert sub.shape == (n, n)
            assert sub.total > 0
            return peak

        small, large = peak_at(2048), peak_at(4096)
        assert large < 1.5 * small
        assert large < 8 * 4096 * 4096  # and strictly below one dense Γ

    def test_sparse_twin_partitions_like_dense(self):
        """End-to-end: a solver run on the triplet-built substrate matches
        the densified instance exactly."""
        A = spmv_instance(64, model="rmat", scale=12, edge_factor=4, seed=0)
        sub = spmv_sparse(64, model="rmat", scale=12, edge_factor=4, seed=0)
        pd = partition_2d(A, 16, "JAG-M-HEUR")
        ps = partition_2d(sub, 16, "JAG-M-HEUR")
        np.testing.assert_array_equal(pd.coords(), ps.coords())


class TestGeneratorBoundary:
    """Malformed generator input fails with ``ParameterError``, the same way
    for the dense and the sparse twin (one shared builder checks it)."""

    @pytest.mark.parametrize("twin", [project_vertices, project_vertices_sparse])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertices(self, twin, bad):
        V = np.zeros((5, 3))
        V[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            twin(V, 4)

    @pytest.mark.parametrize("twin", [project_vertices, project_vertices_sparse])
    def test_empty_vertices(self, twin):
        with pytest.raises(ParameterError, match="N > 0"):
            twin(np.zeros((0, 3)), 4)

    @pytest.mark.parametrize("twin", [spmv_instance, spmv_sparse])
    @pytest.mark.parametrize("mesh_size", [0, -3])
    def test_empty_mesh(self, twin, mesh_size):
        with pytest.raises(ParameterError, match="mesh_size"):
            twin(4, model="mesh", mesh_size=mesh_size)
