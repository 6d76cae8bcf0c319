"""Unit + property tests for the prefix-sum substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import prefix
from repro.core.errors import ParameterError
from repro.core.prefix import (
    PrefixSum1D,
    PrefixSum2D,
    as_load_matrix,
    prefix_1d,
    prefix_2d,
)

from .conftest import load_arrays, load_matrices

WIDE = prefix._ROW_SCAN_MIN_WIDTH


def reference_grid(A) -> np.ndarray:
    """Γ by the textbook two cumsums, column-wise first."""
    A = np.asarray(A, dtype=np.int64)
    G = np.zeros((A.shape[0] + 1, A.shape[1] + 1), dtype=np.int64)
    G[1:, 1:] = np.cumsum(np.cumsum(A, axis=0), axis=1)
    return G


class TestAsLoadMatrix:
    def test_accepts_int_matrix(self):
        A = as_load_matrix([[1, 2], [3, 4]])
        assert A.dtype == np.int64
        assert A.flags.c_contiguous

    def test_accepts_integral_floats(self):
        A = as_load_matrix(np.array([[1.0, 2.0]]))
        assert A.dtype == np.int64

    def test_rejects_fractional_floats(self):
        with pytest.raises(ParameterError):
            as_load_matrix(np.array([[1.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            as_load_matrix(np.array([[-1, 2]]))

    def test_rejects_1d(self):
        with pytest.raises(ParameterError):
            as_load_matrix(np.array([1, 2, 3]))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            as_load_matrix(np.zeros((0, 3), dtype=np.int64))

    def test_rejects_strings(self):
        with pytest.raises(ParameterError):
            as_load_matrix(np.array([["a", "b"]]))

    def test_rejects_nearly_integral_float(self):
        # np.allclose's rtol once accepted this and rounded it to 100000
        with pytest.raises(ParameterError, match="integers"):
            as_load_matrix(np.array([[1.0, 100000.5]]))

    def test_rejects_entries_above_int64_as_too_large(self):
        # the int64 cast once wrapped it and reported it as negative
        with pytest.raises(ParameterError, match="exceeds int64"):
            as_load_matrix(np.array([[1, 2**63]], dtype=np.uint64))
        with pytest.raises(ParameterError, match="exceeds int64"):
            as_load_matrix(np.array([[2.0**63]]))
        A = as_load_matrix(np.array([[2**63 - 1]], dtype=np.uint64))
        assert int(A[0, 0]) == 2**63 - 1


class TestOverflow:
    def test_total_above_int64_is_rejected(self):
        # total 3·2^62 + 1 once wrapped to -4611686018427387903
        A = np.array([[2**62, 2**62], [2**62, 1]], dtype=np.int64)
        with pytest.raises(ParameterError, match="exceeds int64"):
            PrefixSum2D(A)

    def test_total_at_int64_max_is_exact(self):
        A = np.array([[2**62], [2**62 - 1]], dtype=np.int64)
        pf = PrefixSum2D(A)
        assert pf.total == 2**63 - 1
        assert pf.max_element() == 2**62
        with pytest.raises(ParameterError, match="exceeds int64"):
            PrefixSum2D(A + np.array([[0], [1]]))

    @pytest.mark.parametrize("width", [WIDE - 1, WIDE])
    def test_values_near_2_62_on_both_build_paths(self, width):
        A = np.zeros((3, width), dtype=np.int64)
        A[0, 0] = 2**62
        A[2, -1] = 2**62 - width - 1
        A[1, :] = 1
        pf = PrefixSum2D(A)
        assert pf.total == 2**63 - 1
        np.testing.assert_array_equal(pf.G, reference_grid(A))


class TestDenseBuild:
    """The row-streamed Γ against the textbook form."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 7), (7, 1), (1, WIDE + 5), (WIDE + 5, 1), (3, WIDE - 1), (3, WIDE),
         (2, WIDE + 1), (WIDE, 3)],
    )
    def test_build_matches_reference(self, shape, rng):
        A = rng.integers(0, 1000, size=shape)
        np.testing.assert_array_equal(PrefixSum2D(A).G, reference_grid(A))

    @given(load_matrices, st.booleans())
    @settings(max_examples=60)
    def test_both_build_paths_match_reference(self, A, row_scan):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prefix, "_ROW_SCAN_MIN_WIDTH", 1 if row_scan else 10**9)
            np.testing.assert_array_equal(PrefixSum2D(A).G, reference_grid(A))


class TestPrefix1D:
    def test_basic(self):
        p = PrefixSum1D(np.array([3, 1, 4]))
        assert p.total == 8
        assert p.load(0, 3) == 8
        assert p.load(1, 2) == 1
        assert p.load(2, 2) == 0
        assert p.max_element() == 4
        assert len(p) == 3

    def test_from_prefix(self):
        p = PrefixSum1D(np.array([0, 3, 4, 8]), is_prefix=True)
        assert p.total == 8

    def test_rejects_bad_prefix(self):
        with pytest.raises(ParameterError):
            PrefixSum1D(np.array([1, 3]), is_prefix=True)

    def test_rejects_2d_input(self):
        with pytest.raises(ParameterError):
            prefix_1d(np.zeros((2, 2)))

    def test_empty_array(self):
        p = PrefixSum1D(np.array([], dtype=np.int64))
        assert p.total == 0
        assert p.max_element() == 0

    def test_rejects_decreasing_prefix(self):
        # [0, 5, 3, 9] implies a load of -2; it used to be accepted
        with pytest.raises(ParameterError, match="non-decreasing"):
            PrefixSum1D(np.array([0, 5, 3, 9]), is_prefix=True)

    def test_partition_1d_checks_its_prefix(self):
        from repro.oned import partition_1d

        with pytest.raises(ParameterError, match="non-decreasing"):
            partition_1d(np.array([0, 5, 3, 9]), 2, is_prefix=True)
        with pytest.raises(ParameterError, match="start at 0"):
            partition_1d(np.array([1, 3, 4]), 2, is_prefix=True)
        assert partition_1d(np.array([0, 5, 5, 9]), 2, is_prefix=True).bottleneck == 5

    def test_fractional_loads_rejected(self):
        from repro.oned import partition_1d

        # truncated to [1, 2, 3, 0], bottleneck 3; the true optimum is 4
        with pytest.raises(ParameterError, match="load array must contain integers"):
            partition_1d([1.5, 2.5, 3.5, 0.5], 2)
        assert partition_1d([1.0, 2.0, 3.0, 0.0], 2).bottleneck == 3

    def test_negative_loads_rejected(self):
        from repro.oned import partition_1d

        with pytest.raises(ParameterError, match="non-negative"):
            partition_1d([5, -3, 4, 4], 2)

    def test_total_above_int64_rejected(self):
        from repro.oned import partition_1d

        # the total used to wrap to -2^63
        with pytest.raises(ParameterError, match="exceeds int64"):
            PrefixSum1D([2**62, 2**62])
        with pytest.raises(ParameterError, match="exceeds int64"):
            partition_1d(np.array([2**62, 2**62], dtype=np.int64), 2)
        assert PrefixSum1D([2**62, 2**62 - 1]).total == 2**63 - 1

    def test_nan_loads_rejected(self):
        from repro.oned import partition_1d

        # used to fail deep in the solver with a bare AssertionError
        with pytest.raises(ParameterError, match="finite"):
            partition_1d([1.0, np.nan, 2.0], 2)

    def test_fractional_1d_prefix_rejected(self):
        # used to be truncated to [0, 1, 3]
        with pytest.raises(ParameterError, match="prefix array must contain integers"):
            PrefixSum1D([0, 1.5, 3], is_prefix=True)
        assert PrefixSum1D([0.0, 1.0, 3.0], is_prefix=True).total == 3

    def test_fractional_2d_prefix_rejected(self):
        G = np.array([[0, 0, 0], [0, 1.5, 3], [0, 4, 8]])
        with pytest.raises(ParameterError, match="prefix array must contain integers"):
            PrefixSum2D(G, is_prefix=True)

    def test_raw_array_seeds_max_element(self):
        assert PrefixSum1D(np.array([3, 9, 4]))._max_el == 9

    @given(load_arrays)
    @settings(max_examples=40)
    def test_interval_loads_match_slices(self, vals):
        p = PrefixSum1D(vals)
        n = len(vals)
        for lo, hi in [(0, n), (0, 0), (n // 2, n), (1 if n > 1 else 0, n)]:
            assert p.load(lo, hi) == vals[lo:hi].sum()


class TestPrefix2D:
    def test_rect_loads(self, rng):
        A = rng.integers(0, 50, (6, 8))
        pf = PrefixSum2D(A)
        assert pf.shape == (6, 8)
        assert pf.total == A.sum()
        for _ in range(20):
            r0, r1 = sorted(rng.integers(0, 7, 2))
            c0, c1 = sorted(rng.integers(0, 9, 2))
            assert pf.load(r0, r1, c0, c1) == A[r0:r1, c0:c1].sum()

    def test_axis_prefix(self, rng):
        A = rng.integers(0, 50, (5, 7))
        pf = PrefixSum2D(A)
        rows = pf.axis_prefix(0)
        assert rows.shape == (6,)
        np.testing.assert_array_equal(np.diff(rows), A.sum(axis=1))
        cols = pf.axis_prefix(1, 1, 4)  # rows [1, 4)
        np.testing.assert_array_equal(np.diff(cols), A[1:4].sum(axis=0))

    def test_axis_prefix_bad_axis(self, rng):
        pf = PrefixSum2D(rng.integers(0, 5, (3, 3)))
        with pytest.raises(ParameterError):
            pf.axis_prefix(2)

    def test_band_prefix_rebased(self, rng):
        A = rng.integers(0, 50, (6, 6))
        pf = PrefixSum2D(A)
        bp = pf.band_prefix(0, 2, 5, 1, 4)  # rows [1,4) of columns [2,5)
        assert bp[0] == 0
        np.testing.assert_array_equal(np.diff(bp), A[1:4, 2:5].sum(axis=1))

    def test_max_element(self, rng):
        A = rng.integers(0, 50, (5, 5))
        assert PrefixSum2D(A).max_element() == A.max()

    def test_transpose(self, rng):
        A = rng.integers(0, 50, (4, 7))
        pf = PrefixSum2D(A)
        pt = pf.transpose()
        assert pt.shape == (7, 4)
        assert pt.load(1, 5, 0, 3) == A[0:3, 1:5].sum()

    @pytest.mark.parametrize("cached_transpose", [False, True])
    @pytest.mark.parametrize("count,longest", [(3, 30), (40, 6), (40, 160)])
    def test_band_windows_match_projection_slices(self, rng, cached_transpose, count, longest):
        # few (sliced), many short (gathered) and many long (sliced) windows,
        # both axes mixed, column windows read from Γᵀ rows or Γ columns
        from repro.core.sparse import SparsePrefix2D
        from repro.sweep import use_sweep

        A = rng.integers(0, 50, (97, 83))
        pf = PrefixSum2D(A)
        if cached_transpose:
            with use_sweep():  # a sweep pins Γᵀ to the instance
                pf.transpose()
        assert (pf._T is not None) == cached_transpose
        bands = []
        for ax in [k % 2 for k in range(count)]:
            n_band, n_win = (A.shape[1], A.shape[0]) if ax == 0 else A.shape
            lo = int(rng.integers(0, n_band))
            j0 = int(rng.integers(0, n_win // 3))
            j1 = min(n_win, j0 + int(rng.integers(longest // 2, longest)))
            bands.append((ax, lo, int(rng.integers(lo + 1, n_band + 1)), j0, j1))
        vals, offs = pf.band_windows(*zip(*bands))
        want = [pf.axis_prefix(ax, a, b, reuse=False)[x : y + 1] for ax, a, b, x, y in bands]
        assert offs.tolist() == np.cumsum([0] + [len(w) for w in want]).tolist()
        np.testing.assert_array_equal(vals, np.concatenate(want))
        # the CSR substrate, which reads the windows from its built Γ rows, agrees
        csr_vals, csr_offs = SparsePrefix2D(A).band_windows(*zip(*bands))
        np.testing.assert_array_equal(csr_vals, vals)
        np.testing.assert_array_equal(csr_offs, offs)

    def test_from_prefix_roundtrip(self, rng):
        A = rng.integers(0, 50, (4, 4))
        pf = PrefixSum2D(A)
        pf2 = PrefixSum2D(pf.G, is_prefix=True)
        assert pf2.total == pf.total

    def test_rejects_bad_prefix(self):
        with pytest.raises(ParameterError):
            PrefixSum2D(np.ones((3, 3)), is_prefix=True)

    def test_rejects_prefix_implying_a_negative_cell(self):
        # its cells are [[5, -2], [4, 5]]: solvers used to run on it, and
        # min_element() returned -2
        with pytest.raises(ParameterError, match=r"negative cell load \(-2\)"):
            PrefixSum2D(np.array([[0, 0, 0], [0, 5, 3], [0, 9, 12]]), is_prefix=True)

    @given(load_matrices)
    @settings(max_examples=30)
    def test_prefix_input_seeds_the_element_bounds(self, A):
        pf = PrefixSum2D(PrefixSum2D(A).G, is_prefix=True)
        assert (pf._max_el, pf._min_el) == (A.max(), A.min())

    def test_prefix_2d_passthrough(self, rng):
        pf = PrefixSum2D(rng.integers(0, 5, (3, 3)))
        assert prefix_2d(pf) is pf

    @given(load_matrices, st.data())
    @settings(max_examples=40)
    def test_random_rect_load(self, A, data):
        pf = PrefixSum2D(A)
        n1, n2 = A.shape
        r0 = data.draw(st.integers(0, n1))
        r1 = data.draw(st.integers(r0, n1))
        c0 = data.draw(st.integers(0, n2))
        c1 = data.draw(st.integers(c0, n2))
        assert pf.load(r0, r1, c0, c1) == A[r0:r1, c0:c1].sum()
