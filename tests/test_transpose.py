"""Transposed substrates: the dense view over Γ and the CSR radix transpose.

``PrefixSum2D.transpose()`` is a strided view of ``Γ``, so every query on it
must answer exactly as a prefix built from ``A.T`` would; the CSR radix
transpose must equal the CSR build of ``A.T``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import prefix
from repro.core.prefix import PrefixSum2D
from repro.core.sparse import SparsePrefix2D
from repro.jagged import jag_pq_heur
from repro.sweep.store import instance_digest

from .conftest import load_matrices

CSR_ARRAYS = ("indptr", "cols", "vals", "keys", "csum", "row_pref", "col_pref")

# every random shape, plus the single-row and single-column edge cases
matrices = st.one_of(
    load_matrices,
    hnp.arrays(
        np.int64,
        st.integers(1, 12).flatmap(lambda n: st.sampled_from([(1, n), (n, 1)])),
        elements=st.integers(0, 40),
    ),
)


def _bands(data, n_band: int, n_win: int, axis: int, count: int) -> list[tuple]:
    """``count`` random band-window tuples ``(axis, lo, hi, j0, j1)``."""
    out = []
    for _ in range(count):
        lo = data.draw(st.integers(0, n_band - 1))
        hi = data.draw(st.integers(lo + 1, n_band))
        j0 = data.draw(st.integers(0, n_win))
        j1 = data.draw(st.integers(j0, n_win))
        out.append((axis, lo, hi, j0, j1))
    return out


class TestDenseView:
    @given(matrices, st.data())
    @settings(max_examples=80)
    def test_every_query_matches_a_prefix_of_the_transpose(self, A, data):
        pf = PrefixSum2D(A)
        T = pf.transpose()
        R = PrefixSum2D(np.ascontiguousarray(A.T))
        assert np.shares_memory(T.G, pf.G)
        assert not T.G.flags.writeable
        assert T.shape == R.shape and T.total == R.total
        n1, n2 = R.shape
        coords = []
        for _ in range(6):
            r0 = data.draw(st.integers(0, n1))
            r1 = data.draw(st.integers(r0, n1))
            c0 = data.draw(st.integers(0, n2))
            c1 = data.draw(st.integers(c0, n2))
            assert T.load(r0, r1, c0, c1) == R.load(r0, r1, c0, c1)
            coords.append((r0, r1, c0, c1))
        coords = np.array(coords, dtype=np.int64)
        np.testing.assert_array_equal(T.rect_loads(coords), R.rect_loads(coords))
        for axis, n_band, n_win in ((0, n2, n1), (1, n1, n2)):
            lo = data.draw(st.integers(0, n_band - 1))
            hi = data.draw(st.integers(lo + 1, n_band))
            j0 = data.draw(st.integers(0, n_win))
            j1 = data.draw(st.integers(j0, n_win))
            for reuse in (False, True):
                np.testing.assert_array_equal(
                    T.axis_prefix(axis, lo, hi, reuse=reuse), R.axis_prefix(axis, lo, hi)
                )
                assert T.boundary_list(axis, lo, hi, reuse=reuse) == R.boundary_list(
                    axis, lo, hi
                )
                np.testing.assert_array_equal(
                    T.band_prefix(axis, lo, hi, j0, j1, reuse=reuse),
                    R.band_prefix(axis, lo, hi, j0, j1),
                )
        assert T.max_element() == R.max_element()
        assert T.min_element() == R.min_element()
        np.testing.assert_array_equal(T.cells_dense(), R.cells_dense())
        assert instance_digest(T) == instance_digest(R)

    @pytest.mark.parametrize("regime", ["sliced", "gathered"])
    @given(matrices, st.data())
    @settings(max_examples=60)
    def test_band_windows_in_both_regimes(self, regime, A, data):
        pf = PrefixSum2D(A)
        T = pf.transpose()
        R = PrefixSum2D(np.ascontiguousarray(A.T))
        n1, n2 = R.shape
        count = data.draw(st.integers(1, 6))
        bands = _bands(data, n2, n1, 0, count) + _bands(data, n1, n2, 1, count)
        order = data.draw(st.permutations(range(len(bands))))
        bands = [bands[k] for k in order]
        with pytest.MonkeyPatch.context() as mp:
            if regime == "gathered":
                mp.setattr(prefix, "_GATHER_MIN_WINDOWS", 1)
                mp.setattr(prefix, "_GATHER_MAX_MEAN", 10**9)
            else:
                mp.setattr(prefix, "_GATHER_MIN_WINDOWS", 10**9)
            got = T.band_windows(*zip(*bands))
            want = R.band_windows(*zip(*bands))
            base = pf.band_windows(*zip(*[(1 - ax, a, b, x, y) for ax, a, b, x, y in bands]))
        for out in (got, base):
            np.testing.assert_array_equal(out[0], want[0])
            np.testing.assert_array_equal(out[1], want[1])

    def test_pinned_pair_shares_one_grid(self, rng):
        pf = PrefixSum2D(rng.integers(0, 9, (300, 257)))  # above _CACHE_MIN_CELLS
        T = pf.transpose()
        assert T is pf.transpose() and T.transpose() is pf
        assert np.shares_memory(T.G, pf.G)
        assert T.nbytes == pf.nbytes

    def test_best_orientation_solve_does_not_copy_gamma(self, rng):
        # the -VER half of a -BEST solve reads Γ through the view; a
        # contiguous Γᵀ would allocate all of G.nbytes again
        pf = PrefixSum2D(rng.integers(0, 100, (1024, 1024)))
        tracemalloc.start()
        try:
            part = jag_pq_heur(pf, 16, orientation="best")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        part.validate()
        assert peak < pf.G.nbytes // 4


def _reference_transpose(sp: SparsePrefix2D) -> SparsePrefix2D:
    """The CSR build of the transposed dense matrix."""
    return SparsePrefix2D(np.ascontiguousarray(sp.cells_dense().T))


def _assert_same_csr(got: SparsePrefix2D, want: SparsePrefix2D) -> None:
    assert got.shape == want.shape
    for name in CSR_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestCsrTranspose:
    @given(matrices)
    @settings(max_examples=80)
    def test_radix_transpose_matches_the_key_sort(self, A):
        sp = SparsePrefix2D(A)
        T = sp._transpose_new()
        _assert_same_csr(T, _reference_transpose(sp))
        assert T.max_element() == sp.max_element()
        assert T.min_element() == sp.min_element()

    @pytest.mark.parametrize("n2", [1 << 16, (1 << 16) + 1])
    def test_widest_columns_on_both_sort_paths(self, n2, rng):
        # column 2^16 would wrap to 0 as uint16: the wider matrix must take
        # the int64 sort, the 2^16-wide one the uint16 radix sort
        n1, nnz = 5, 400
        cols = rng.integers(0, n2, nnz)
        cols[:4] = [0, n2 - 1, n2 - 1, n2 // 2]
        A = np.zeros((n1, n2), dtype=np.int64)
        np.add.at(A, (rng.integers(0, n1, nnz), cols), rng.integers(1, 50, nnz))
        sp = SparsePrefix2D(A)
        T = sp._transpose_new()
        _assert_same_csr(T, _reference_transpose(sp))
        _assert_same_csr(T._transpose_new(), sp)

    def test_large_instance_pins_on_its_first_column_band(self, rng):
        A = np.zeros((300, 257), dtype=np.int64)  # above _CACHE_MIN_CELLS
        A[rng.integers(0, 300, 500), rng.integers(0, 257, 500)] = 7
        sp = SparsePrefix2D(A)
        assert sp._T is None
        band = sp.axis_prefix(0, 10, 90, reuse=False)
        assert sp._T is not None and sp._T._T is sp
        np.testing.assert_array_equal(band, PrefixSum2D(A).axis_prefix(0, 10, 90))

    def test_empty_matrix(self):
        sp = SparsePrefix2D(np.zeros((3, 4), dtype=np.int64))
        _assert_same_csr(sp._transpose_new(), _reference_transpose(sp))
