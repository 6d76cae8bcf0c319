"""Tests for the SpMV (sparse-matrix) workload generator."""

import numpy as np
import pytest

from repro import partition_2d
from repro.core.errors import ParameterError
from repro.core.sparse import SparsePrefix2D
from repro.instances import rmat_edges, spmv_instance
from repro.instances.mesh.project import project_vertices


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
    def test_sparse_twin_partitions_like_dense(self):
        """End-to-end: a solver run on the CSR substrate of a generated
        instance matches the dense one exactly."""
        A = spmv_instance(64, model="rmat", scale=12, edge_factor=4, seed=0)
        pd = partition_2d(A, 16, "JAG-M-HEUR")
        ps = partition_2d(SparsePrefix2D(A), 16, "JAG-M-HEUR")
        np.testing.assert_array_equal(pd.coords(), ps.coords())


class TestGeneratorBoundary:
    """Malformed generator input fails with ``ParameterError``."""

    @pytest.mark.parametrize("build", [project_vertices])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertices(self, build, bad):
        V = np.zeros((5, 3))
        V[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            build(V, 4)

    @pytest.mark.parametrize("build", [project_vertices])
    def test_empty_vertices(self, build):
        with pytest.raises(ParameterError, match="N > 0"):
            build(np.zeros((0, 3)), 4)

    @pytest.mark.parametrize("build", [spmv_instance])
    @pytest.mark.parametrize("mesh_size", [0, -3])
    def test_empty_mesh(self, build, mesh_size):
        with pytest.raises(ParameterError, match="mesh_size"):
            build(4, model="mesh", mesh_size=mesh_size)
