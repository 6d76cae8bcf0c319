"""Bit-identity gate: the sparse CSR substrate vs the dense reference Γ.

Every query the :class:`~repro.core.prefix.LoadView` surface exposes, every
registry algorithm and the sweep/raw-store digests must answer
**bit-identically** on the two substrates — the sparse path is a performance
substrate, never a semantic fork.  Every registry algorithm across backends
and sweep temperatures is in the differential matrix
(``tests/test_backend_equality.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import prefix as prefix_mod
from repro.core import sparse as sparse_mod
from repro.core.partition import Partition
from repro.core.prefix import LoadView, PrefixSum2D, as_load_matrix, prefix_2d
from repro.core.registry import ALGORITHMS, partition_2d
from repro.core.sparse import SparsePrefix2D
from repro.core.errors import ParameterError
from repro.instances import slac_instance
from repro.instances.spmv import spmv_instance
from repro.instances.mesh.project import project_vertices
from repro.perf.counters import op_counters
from repro.sweep import use_sweep
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


_INT64_MAX = 2**63 - 1


@st.composite
def rect_batches(draw):
    """A sparse matrix, optionally with two cells near 2^62 (total at most
    2^63 - 1), and a batch of rectangles over it: random ones plus every
    corner case of the vectorized path."""
    A = draw(sparse_matrices).copy()
    n1, n2 = A.shape
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(0, n1 * n2 - 1), min_size=1, max_size=2, unique=True))
        A.flat[cells[0]] = 2**62
        if len(cells) == 2:
            A.flat[cells[1]] = 0
            A.flat[cells[1]] = _INT64_MAX - int(A.sum(dtype=object))
    r = st.integers(0, n1)
    c = st.integers(0, n2)
    rects = [sorted(draw(st.tuples(r, r))) + sorted(draw(st.tuples(c, c))) for _ in range(draw(st.integers(0, 10)))]
    i, j = draw(r), draw(c)
    rects += [
        [0, 0, 0, 0],  # an idle processor's Rect(0, 0, 0, 0)
        [i, i, 0, j],  # no rows
        [0, i, j, j],  # no columns
        [0, i, 0, n2],  # full width
        [min(i, n1 - 1), n1, 0, n2],
        [0, n1, 0, j],  # full height
        [0, n1, min(j, n2 - 1), n2],
        [0, n1, 0, n2],
    ]
    return A, np.array(rects, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(rect_batches(), st.sampled_from([None, 1, 3]))
def test_vectorized_rect_loads_match_dense(batch, block):
    """One searchsorted pass and a segmented sum equal the 4-corner gather,
    also when the (rectangle, row) pairs are split into tiny blocks."""
    A, coords = batch
    dense, sparse = _pair(A)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(sparse_mod, "_NONZERO_BLOCK", block)
        got = sparse.rect_loads(coords)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, dense.rect_loads(coords))
    assert [int(v) for v in got] == [
        int(A[r0:r1, c0:c1].sum(dtype=object)) for r0, r1, c0, c1 in coords.tolist()
    ]


def _pinned(A) -> SparsePrefix2D:
    """CSR substrate with its transpose pinned (a sweep pins it at any size)."""
    sparse = SparsePrefix2D(A)
    with use_sweep():
        sparse.transpose()
    assert sparse._T is not None
    return sparse


band_matrices = st.one_of(
    hnp.arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=st.sampled_from([0, 0, 0, 1, 7, 40])),
    hnp.arrays(np.int64, st.tuples(st.just(1), st.integers(1, 12)), elements=st.sampled_from([0, 3, 9])),
    hnp.arrays(np.int64, st.tuples(st.integers(1, 12), st.just(1)), elements=st.sampled_from([0, 3, 9])),
)


@settings(max_examples=60, deadline=None)
@given(band_matrices, st.integers(0, 11))
def test_column_bands_from_pinned_transpose_match_dense(A, zero_col):
    """Every column band ``[lo, hi)`` (empty, full and in between) read as the
    pinned transpose's row band equals the dense projection."""
    A = A.copy()
    A[:, zero_col % A.shape[1]] = 0  # an empty column
    dense, sparse = PrefixSum2D(A), _pinned(A)
    n2 = A.shape[1]
    for lo in range(n2 + 1):
        for hi in range(lo, n2 + 1):
            got = sparse.axis_prefix(0, lo, hi, reuse=False)
            np.testing.assert_array_equal(got, dense.axis_prefix(0, lo, hi, reuse=False))


def test_pinned_column_band_never_searches_keys(rng, monkeypatch):
    A = _random_sparse(rng)
    pinned, unpinned = _pinned(A), SparsePrefix2D(A)
    searched = []
    real = np.searchsorted

    def spy(a, *args, **kw):
        searched.extend(s for s in (pinned, unpinned) if a is s.keys)
        return real(a, *args, **kw)

    monkeypatch.setattr(sparse_mod.np, "searchsorted", spy)
    for lo, hi in ((0, 5), (3, 4), (7, 20), (0, 19)):
        pinned.axis_prefix(0, lo, hi, reuse=False)
    assert not searched
    # without a pinned transpose the keys are searched row by row
    unpinned.axis_prefix(0, 3, 4, reuse=False)
    assert searched == [unpinned, unpinned]


def _draw_bands(data, shape, order) -> list[tuple[int, int, int, int, int]]:
    """``(axis, lo, hi, j0, j1)`` bands of both axes, in ``order`` of ``(lo, hi)``."""
    bands = []
    for _ in range(data.draw(st.integers(1, 8))):
        ax = data.draw(st.integers(0, 1))
        across, along = (shape[1], shape[0]) if ax == 0 else shape
        lo = data.draw(st.integers(0, across))
        hi = data.draw(st.integers(lo, across))
        j0 = data.draw(st.integers(0, along))
        bands.append((ax, lo, hi, j0, data.draw(st.integers(j0, along))))
    if order != "random":
        bands.sort(key=lambda b: (b[1], b[2]), reverse=order == "descending")
    return bands


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_cache_sequences_match_dense(data):
    """Random sequences of band projections and ``band_windows`` batches,
    read from Γ rows built on demand (from below or from above, from rows
    that may have been evicted mid-sequence), equal the dense twin byte for
    byte: both axes, the transpose pinned or not, one matrix of at least
    ``_CACHE_MIN_CELLS`` cells."""
    shape = data.draw(st.sampled_from([(1, 9), (9, 1), (13, 11), (24, 20), (300, 256)]))
    assert 300 * 256 >= prefix_mod._CACHE_MIN_CELLS
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = _random_sparse(rng, *shape, density=data.draw(st.sampled_from([0.02, 0.2, 0.7])))
    # a budget of a few rows evicts built rows between (and within) queries
    rows = data.draw(st.sampled_from([None, 2, 3, 5]))
    budget = prefix_mod._CACHE_BUDGET_BYTES if rows is None else rows * (8 * max(shape) + 120)
    dense = PrefixSum2D(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prefix_mod, "_CACHE_BUDGET_BYTES", budget)
        sparse = _pinned(A) if data.draw(st.booleans()) else SparsePrefix2D(A)
        for _ in range(data.draw(st.integers(1, 6))):
            bands = _draw_bands(data, shape, data.draw(st.sampled_from(["ascending", "descending", "random"])))
            if data.draw(st.booleans()):
                got = sparse.band_windows(*zip(*bands))
                want = dense.band_windows(*zip(*bands))
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            else:
                for ax, lo, hi, _, _ in bands:
                    got = sparse.axis_prefix(ax, lo, hi)
                    assert got.tobytes() == dense.axis_prefix(ax, lo, hi, reuse=False).tobytes()


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
    # total 3·2^62 + 1 once wrapped to -4611686018427387903
    A = np.array([[2**62, 2**62], [2**62, 1]], dtype=np.int64)
    with pytest.raises(ParameterError, match="exceeds int64"):
        SparsePrefix2D(A)
    ok = SparsePrefix2D(np.array([[0, 0], [2**62, 2**62 - 1]], dtype=np.int64))
    assert ok.total == 2**63 - 1
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
        _random_sparse(rng, 300, 4096, density=0.001),
    ):
        dense, sparse = _pair(A)
        assert instance_digest(sparse) == matrix_digest(A)
        assert instance_digest(sparse) == instance_digest(dense)


def test_generator_twins_are_digest_equal():
    for A in (
        spmv_instance(24, model="mesh", mesh_size=40),
        spmv_instance(24, model="rmat", scale=9, edge_factor=2, seed=7),
        slac_instance(24),
    ):
        assert instance_digest(SparsePrefix2D(A)) == instance_digest(prefix_2d(A))


def test_projection_bins_like_histogram2d_when_an_axis_collapses(rng):
    # u = 1e5 everywhere: the range's + 1e-12 vanishes, so the projection
    # (like np.histogram2d) widens the empty range to ±0.5 and puts every
    # vertex in the middle row
    V = rng.uniform(0.0, 1.0, size=(300, 3))
    V[:, 0] = 1e5
    dense = project_vertices(V, 8)
    assert dense[4].sum() == len(V)
    vrange = ((1e5, 1e5 + 1e-12), (V[:, 1].min(), V[:, 1].max() + 1e-12))
    H, _, _ = np.histogram2d(V[:, 0], V[:, 1], bins=8, range=vrange)
    np.testing.assert_array_equal(dense, H.astype(np.int64))


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
