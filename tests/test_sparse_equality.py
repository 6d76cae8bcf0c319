"""Bit-identity gate: the sparse CSR substrate vs the dense reference Γ.

Every query the :class:`~repro.core.prefix.LoadView` surface exposes, every
registry algorithm and the sweep/raw-store digests must answer
**bit-identically** on the two substrates — the sparse path is a performance
substrate, never a semantic fork.  The density dispatchers, and every
registry algorithm across backends and sweep temperatures too, are in the
differential matrix (``tests/test_backend_equality.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.partition import Partition
from repro.core.prefix import LoadView, PrefixSum2D, as_load_matrix, prefix_2d
from repro.core.registry import ALGORITHMS, partition_2d
from repro.core.sparse import SparsePrefix2D, substrate_from_triplets
from repro.core.errors import ParameterError
from repro.instances import slac_instance
from repro.instances.spmv import hist2d_triplets, spmv_instance, spmv_sparse
from repro.instances.mesh.project import slac_sparse
from repro.perf.counters import op_counters
from repro.sweep.store import instance_digest, matrix_digest

# sparse-ish matrices: mostly zeros, a band of structured mass, a few spikes
sparse_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.sampled_from([0, 0, 0, 0, 0, 1, 2, 7, 40]),
)


def _random_sparse(rng, n1=24, n2=20, density=0.12, hi=50) -> np.ndarray:
    A = np.zeros((n1, n2), dtype=np.int64)
    k = max(1, int(density * n1 * n2))
    idx = rng.choice(n1 * n2, size=k, replace=False)
    A.ravel()[idx] = rng.integers(1, hi, size=k)
    return A


def _pair(A) -> tuple[PrefixSum2D, SparsePrefix2D]:
    return PrefixSum2D(A), SparsePrefix2D(A)


# ----------------------------------------------------------------------
# query surface equivalence
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(sparse_matrices, st.integers(0, 2**32 - 1))
def test_load_queries_match_dense(A, seed):
    dense, sparse = _pair(A)
    n1, n2 = A.shape
    rng = np.random.default_rng(seed)
    for _ in range(12):
        r = np.sort(rng.integers(0, n1 + 1, size=2))
        c = np.sort(rng.integers(0, n2 + 1, size=2))
        assert sparse.load(r[0], r[1], c[0], c[1]) == dense.load(
            r[0], r[1], c[0], c[1]
        )
    # degenerate and full-extent rectangles
    assert sparse.load(0, n1, 0, n2) == dense.load(0, n1, 0, n2) == sparse.total
    assert sparse.load(0, 0, 0, 0) == 0
    assert sparse.load(0, n1, 0, 0) == 0


@settings(max_examples=40, deadline=None)
@given(sparse_matrices, st.integers(0, 2**32 - 1))
def test_rect_loads_match_dense(A, seed):
    dense, sparse = _pair(A)
    n1, n2 = A.shape
    rng = np.random.default_rng(seed)
    rr = np.sort(rng.integers(0, n1 + 1, size=(16, 2)), axis=1)
    cc = np.sort(rng.integers(0, n2 + 1, size=(16, 2)), axis=1)
    coords = np.column_stack([rr, cc])
    np.testing.assert_array_equal(sparse.rect_loads(coords), dense.rect_loads(coords))


@settings(max_examples=40, deadline=None)
@given(sparse_matrices)
def test_projections_match_dense(A):
    dense, sparse = _pair(A)
    n1, n2 = A.shape
    for axis, extent in ((0, n2), (1, n1)):
        for lo, hi in ((0, extent), (0, extent // 2), (extent // 3, extent)):
            np.testing.assert_array_equal(
                sparse.axis_prefix(axis, lo, hi), dense.axis_prefix(axis, lo, hi)
            )
            assert sparse.boundary_list(axis, lo, hi) == dense.boundary_list(
                axis, lo, hi
            )
    # band_prefix windows
    if n1 >= 2 and n2 >= 2:
        np.testing.assert_array_equal(
            sparse.band_prefix(1, 0, n1 // 2, 1, n2),
            dense.band_prefix(1, 0, n1 // 2, 1, n2),
        )


@settings(max_examples=40, deadline=None)
@given(sparse_matrices)
def test_scalars_and_transpose_match_dense(A):
    dense, sparse = _pair(A)
    assert sparse.shape == dense.shape
    assert sparse.total == dense.total
    assert sparse.max_element() == dense.max_element()
    assert sparse.min_element() == dense.min_element()
    np.testing.assert_array_equal(sparse.cells_dense(), A)
    sT, dT = sparse.transpose(), dense.transpose()
    np.testing.assert_array_equal(sT.cells_dense(), dT.cells_dense())
    assert sT.total == dense.total
    assert isinstance(sparse, LoadView) and isinstance(dense, LoadView)


def test_projection_memo_does_not_leak_substrate_arrays(rng):
    """Full-band projections return copies: freezing the memo must not
    freeze (or alias) the substrate's own marginal arrays."""
    sparse = SparsePrefix2D(_random_sparse(rng))
    band = sparse.axis_prefix(0)
    assert band.base is not sparse.row_pref and not np.shares_memory(
        band, sparse.row_pref
    )
    band2 = sparse.axis_prefix(1)
    assert not np.shares_memory(band2, sparse.col_pref)


# ----------------------------------------------------------------------
# every registry algorithm, both substrates (and across backends and sweep
# temperatures: tests/test_backend_equality.py)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_registry_bit_identity(algo, rng):
    A = _random_sparse(rng, 18, 15, density=0.15)
    dense, sparse = _pair(A)
    m = 6
    pd = partition_2d(dense, m, algo)
    ps = partition_2d(sparse, m, algo)
    np.testing.assert_array_equal(pd.coords(), ps.coords())
    assert pd.max_load(dense) == ps.max_load(sparse)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: spmv_instance(32, model="mesh", mesh_size=48),
        lambda: spmv_instance(32, model="rmat", scale=10, edge_factor=4, seed=5),
        lambda: slac_instance(32),
    ],
    ids=["mesh", "rmat", "slac"],
)
@pytest.mark.parametrize("algo", ["JAG-M-HEUR", "HIER-RELAXED", "RECT-NICOL"])
def test_instance_families_bit_identity(maker, algo):
    A = maker()
    dense, sparse = _pair(A)
    pd = partition_2d(dense, 9, algo)
    ps = partition_2d(sparse, 9, algo)
    np.testing.assert_array_equal(pd.coords(), ps.coords())
    assert pd.max_load(dense) == ps.max_load(sparse)


def test_partition_loads_accepts_sparse(rng):
    A = _random_sparse(rng)
    dense, sparse = _pair(A)
    part = partition_2d(dense, 4, "HIER-RB")
    np.testing.assert_array_equal(part.loads(sparse), part.loads(dense))


def test_from_triplets_validation():
    with pytest.raises(ParameterError):
        SparsePrefix2D.from_triplets([0], [0], [1], (0, 4))
    with pytest.raises(ParameterError):
        SparsePrefix2D.from_triplets([5], [0], [1], (4, 4))
    with pytest.raises(ParameterError):
        SparsePrefix2D.from_triplets([0], [0], [-1], (4, 4))
    with pytest.raises(ParameterError):
        SparsePrefix2D.from_triplets([0, 1], [0], [1, 1], (4, 4))
    with pytest.raises(ParameterError):
        SparsePrefix2D.from_triplets([0], [0], [np.nan], (4, 4))


def _nonzero_csr(A) -> tuple[np.ndarray, ...]:
    """``(indptr, cols, vals, keys)`` by 2D ``np.nonzero`` and a fancy gather."""
    A = np.asarray(A, dtype=np.int64)
    n1, n2 = A.shape
    rows, cols = np.nonzero(A)
    indptr = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n1), out=indptr[1:])
    return indptr, cols.astype(np.int64), A[rows, cols], rows.astype(np.int64) * n2 + cols


@settings(max_examples=60, deadline=None)
@given(sparse_matrices)
def test_flat_index_csr_matches_nonzero_build(A):
    sparse = SparsePrefix2D(A)
    for got, want in zip(
        (sparse.indptr, sparse.cols, sparse.vals, sparse.keys), _nonzero_csr(A)
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_total_above_int64_is_rejected_by_every_csr_build():
    # total 3·2^62 + 1 once wrapped to -4611686018427387903 on all three
    A = np.array([[2**62, 2**62], [2**62, 1]], dtype=np.int64)
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D(A)
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D.from_triplets([0, 0, 1, 1], [0, 1, 0, 1], A.ravel(), (2, 2))
    # duplicates summed into one cell are checked before they are summed
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D.from_triplets([1, 1], [0, 0], [2**62, 2**62], (2, 2))
    with pytest.raises(ParameterError, match="exceeds int64"):
        substrate_from_triplets([1, 1], [0, 0], [2**62, 2**62], (2, 2))
    ok = SparsePrefix2D.from_triplets([1, 1], [0, 0], [2**62, 2**62 - 1], (2, 2))
    assert ok.total == 2**63 - 1 == SparsePrefix2D(ok.cells_dense()).total


def test_triplet_values_are_checked_exactly():
    with pytest.raises(ParameterError, match="integers"):
        SparsePrefix2D.from_triplets([0], [0], [100000.5], (2, 2))
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D.from_triplets([0], [0], np.array([2**63], dtype=np.uint64), (2, 2))
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D(np.array([[0, 2**63]], dtype=np.uint64))


def test_prefix_2d_passes_sparse_through(rng):
    sparse = SparsePrefix2D(_random_sparse(rng))
    assert prefix_2d(sparse) is sparse


# ----------------------------------------------------------------------
# digests: warm facts transfer across substrates
# ----------------------------------------------------------------------
def test_digest_equality_across_substrates(rng):
    for A in (
        _random_sparse(rng),
        np.zeros((5, 7), dtype=np.int64),
        6 * _random_sparse(rng, 9, 9, density=0.2),  # gcd scale > 1
    ):
        dense, sparse = _pair(A)
        assert sparse.matrix_digest() == matrix_digest(A)
        assert instance_digest(sparse) == instance_digest(dense)


def test_generator_twins_are_digest_equal():
    for dense_A, sparse_sub in (
        (spmv_instance(24, model="mesh", mesh_size=40), spmv_sparse(24, model="mesh", mesh_size=40)),
        (spmv_instance(24, model="rmat", scale=9, edge_factor=2, seed=7), spmv_sparse(24, model="rmat", scale=9, edge_factor=2, seed=7)),
        (slac_instance(24), slac_sparse(24)),
    ):
        assert instance_digest(prefix_2d(dense_A)) == instance_digest(
            prefix_2d(sparse_sub)
        )


def test_hist2d_triplets_matches_histogram2d(rng):
    x = rng.uniform(-3.0, 11.0, size=400)
    y = rng.uniform(-2.0, 8.0, size=400)
    vrange = ((-1.0, 9.5), (0.0, 7.0))
    # include points exactly on the rightmost edge (histogramdd folds them in)
    x[:5] = vrange[0][1]
    y[:5] = vrange[1][1]
    for bins in (13, (9, 16)):
        H, _, _ = np.histogram2d(x, y, bins=bins, range=vrange)
        rows, cols, counts = hist2d_triplets(x, y, bins, vrange)
        shape = (bins, bins) if isinstance(bins, int) else bins
        R = np.zeros(shape, dtype=np.int64)
        R[rows, cols] = counts
        np.testing.assert_array_equal(R, H.astype(np.int64))


# ----------------------------------------------------------------------
# memory gauge and nbytes
# ----------------------------------------------------------------------
def test_nbytes_sparse_far_below_dense(rng):
    A = _random_sparse(rng, 256, 256, density=0.02)
    dense, sparse = _pair(A)
    assert dense.nbytes >= 8 * 257 * 257
    assert sparse.nbytes < dense.nbytes / 10


def test_substrate_bytes_gauge_in_op_counts(rng):
    A = _random_sparse(rng)
    for pref in _pair(A):
        part = partition_2d(pref, 4, "JAG-M-HEUR")
        assert "op_counts" not in part.meta  # no open context: zero overhead
        with op_counters():
            part = partition_2d(pref, 4, "JAG-M-HEUR")
        assert part.meta["op_counts"]["substrate_bytes"] == pref.nbytes


def test_gauge_keeps_max_not_sum(rng):
    pref = PrefixSum2D(_random_sparse(rng))
    with op_counters() as ops:
        prefix_2d(pref)
        prefix_2d(pref)  # re-touching must not double the gauge
    assert ops["substrate_bytes"] == pref.nbytes


# ----------------------------------------------------------------------
# input validation (satellite: non-finite gets its own message)
# ----------------------------------------------------------------------
def test_as_load_matrix_rejects_nonfinite_with_dedicated_message():
    A = np.ones((3, 3))
    for bad in (np.nan, np.inf, -np.inf):
        B = A.copy()
        B[1, 1] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            as_load_matrix(B)
    # non-integral floats keep the old message
    with pytest.raises(ParameterError, match="integer"):
        as_load_matrix(A * 1.5)
