"""Adversarial / failure-injection tests.

Degenerate load shapes (all mass in one cell, single rows/columns, extreme
values, checkerboards of zeros) and corrupted inputs, across every fast
algorithm.  These are the inputs most likely to break cut-search invariants
(empty stripes, zero-load bands, saturated processor counts).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lower_bound, partition_2d
from repro.core.errors import InvalidPartitionError, ParameterError
from repro.core.registry import ALGORITHMS
from repro.core.partition import Partition
from repro.core.rectangle import Rect

FAST = [
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "HIER-RB",
    "HIER-RELAXED",
    "SPIRAL-RELAXED",
]


def adversarial_instances():
    rng = np.random.default_rng(0)
    single_hot = np.zeros((16, 16), dtype=np.int64)
    single_hot[7, 9] = 10**12  # near-int64-scale single cell
    row_only = np.zeros((16, 16), dtype=np.int64)
    row_only[3, :] = 1000
    col_only = np.zeros((16, 16), dtype=np.int64)
    col_only[:, 12] = 1000
    checker = np.zeros((16, 16), dtype=np.int64)
    checker[::2, ::2] = 7
    diag = np.zeros((16, 16), dtype=np.int64)
    np.fill_diagonal(diag, 10**9)
    thin_tall = rng.integers(1, 100, (256, 1))
    thin_wide = rng.integers(1, 100, (1, 256))
    tiny = np.array([[5]], dtype=np.int64)
    huge_uniform = np.full((8, 8), (1 << 50), dtype=np.int64)
    return {
        "single_hot": single_hot,
        "row_only": row_only,
        "col_only": col_only,
        "checker": checker,
        "diag": diag,
        "thin_tall": thin_tall,
        "thin_wide": thin_wide,
        "tiny": tiny,
        "huge_uniform": huge_uniform,
    }


@pytest.mark.parametrize("name", FAST)
@pytest.mark.parametrize("inst", sorted(adversarial_instances()))
@pytest.mark.parametrize("m", [1, 3, 7, 16])
def test_degenerate_instances(name, inst, m):
    A = adversarial_instances()[inst]
    part = partition_2d(A, m, name)
    assert part.m == m
    part.validate()
    assert part.max_load(A) >= lower_bound(A, m)


@pytest.mark.parametrize("name", ["JAG-M-OPT", "JAG-PQ-OPT"])
@pytest.mark.parametrize("inst", ["single_hot", "checker", "diag", "tiny"])
def test_exact_algorithms_on_degenerate(name, inst):
    A = adversarial_instances()[inst]
    part = partition_2d(A, 4, name)
    part.validate()
    assert part.max_load(A) >= lower_bound(A, 4)


class TestSaturatedProcessorCounts:
    """m close to or above the number of cells."""

    @pytest.mark.parametrize("name", FAST)
    def test_m_equals_cells(self, name):
        A = np.arange(1, 17, dtype=np.int64).reshape(4, 4)
        part = partition_2d(A, 16, name)
        part.validate()
        # a perfect split exists only if every cell is its own rectangle;
        # no algorithm may do worse than the whole matrix in one part
        assert part.max_load(A) <= A.sum()

    @pytest.mark.parametrize("name", ["JAG-M-HEUR", "HIER-RB", "HIER-RELAXED"])
    def test_m_above_cells(self, name):
        A = np.ones((3, 3), dtype=np.int64)
        part = partition_2d(A, 20, name)
        part.validate()
        assert part.m == 20
        assert part.max_load(A) >= 1


class TestCorruptedInputs:
    def test_negative_loads_rejected(self):
        A = np.array([[1, -2], [3, 4]])
        with pytest.raises(ParameterError):
            partition_2d(A, 2, "JAG-M-HEUR")

    def test_nan_loads_rejected(self):
        A = np.array([[1.0, np.nan], [3.0, 4.0]])
        with pytest.raises(ParameterError):
            partition_2d(A, 2, "HIER-RB")

    def test_nonpositive_m_rejected(self):
        A = np.ones((4, 4), dtype=np.int64)
        for name in FAST:
            with pytest.raises((ParameterError, ValueError)):
                partition_2d(A, 0, name)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("m", [0, -2])
    def test_nonpositive_m_is_a_parameter_error(self, name, m):
        # a named error from every entry, with no numpy warning on the way
        # and no reliance on an ``assert`` that ``python -O`` strips
        A = np.ones((4, 4), dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                partition_2d(A, m, name)

    def test_tampered_partition_detected(self, rng):
        A = rng.integers(1, 9, (8, 8))
        part = partition_2d(A, 4, "HIER-RB")
        rects = list(part.rects)
        # shrink one rectangle: coverage hole
        r = next(r for r in rects if r.area > 1)
        rects[rects.index(r)] = Rect(r.r0, r.r1 - 1, r.c0, r.c1)
        with pytest.raises(InvalidPartitionError):
            Partition(rects, part.shape).validate()

    def test_duplicated_rectangle_detected(self, rng):
        A = rng.integers(1, 9, (8, 8))
        part = partition_2d(A, 4, "RECT-UNIFORM")
        rects = list(part.rects)
        rects[1] = rects[0]
        with pytest.raises(InvalidPartitionError):
            Partition(rects, part.shape).validate()


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 10),
    st.sampled_from(FAST),
)
@settings(max_examples=60, deadline=None)
def test_all_zero_matrices(n1, n2, m, name):
    """All-zero loads: any cover is optimal, nothing may crash."""
    A = np.zeros((n1, n2), dtype=np.int64)
    part = partition_2d(A, m, name)
    part.validate()
    assert part.max_load(A) == 0


@given(st.integers(2, 20), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_two_hot_cells_opposite_corners(n, m):
    """Two far-apart heavy cells: with m >= 2 the optimum separates them."""
    A = np.ones((n, n), dtype=np.int64)
    A[0, 0] = A[-1, -1] = 10**6
    part = partition_2d(A, m, "JAG-M-OPT")
    part.validate()
    if m >= 2:
        assert part.max_load(A) < 2 * 10**6


#: every entry shares the factor 6, so a solver that rescales its input in
#: place (a gcd reduction, say) would change bytes the caller owns
_SHARED_FACTOR = 6 * np.random.default_rng(5).integers(0, 40, (12, 12))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_input_matrix_is_read_only(name):
    """Callers reuse one matrix across algorithms, so no entry may write it:
    a read-only matrix must solve, and a writeable one keep its bytes."""
    m = 3 if name in ("HIER-OPT", "SPIRAL-OPT") else 7
    frozen = _SHARED_FACTOR.copy()
    frozen.flags.writeable = False
    want = partition_2d(frozen, m, name).coords()
    A = _SHARED_FACTOR.copy()
    got = partition_2d(A, m, name).coords()
    assert A.tobytes() == _SHARED_FACTOR.tobytes()
    assert np.array_equal(got, want)
