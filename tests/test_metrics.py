"""Tests for bounds, communication volume and migration volume."""

import numpy as np
import pytest

from repro.core.metrics import (
    communication_volume,
    exact_imbalance,
    load_imbalance,
    lower_bound,
    max_boundary,
    migration_volume,
    upper_bound,
)
from repro.core.partition import Partition
from repro.core.prefix import PrefixSum2D
from repro.core.rectangle import Rect
from repro.oned.api import partition_1d
from repro.rectilinear import rect_uniform


def owner_cross_edges(owner: np.ndarray) -> int:
    """Reference communication volume: count grid edges crossing owners."""
    horiz = (owner[:, 1:] != owner[:, :-1]).sum()
    vert = (owner[1:, :] != owner[:-1, :]).sum()
    return int(horiz + vert)


class TestBounds:
    def test_lower_bound(self):
        A = np.array([[7, 1], [1, 1]])
        assert lower_bound(A, 2) == 7  # max element dominates
        assert lower_bound(A, 1) == 10
        assert lower_bound(np.array([[3, 3], [3, 3]]), 5) == 3

    def test_upper_bound_ge_lower(self, rng):
        for _ in range(10):
            A = rng.integers(0, 20, (5, 5))
            for m in (1, 3, 7):
                assert upper_bound(A, m) >= lower_bound(A, m)

    def test_load_imbalance_alias(self, rng):
        A = rng.integers(1, 9, (4, 4))
        p = rect_uniform(A, 4)
        assert load_imbalance(A, p) == p.imbalance(A)

    def test_imbalance_exact_past_float_precision(self):
        from fractions import Fraction

        # total load > 2^60: the naive Lmax/(total/m) - 1 double-rounds
        # through float and collapses this tiny positive imbalance to 0.0
        big = (1 << 61) + 2
        A = np.array([[big, big - 1]], dtype=np.int64)
        p = Partition(
            [Rect(0, 1, 0, 1), Rect(0, 1, 1, 2)], shape=(1, 2), method="manual"
        )
        total = 2 * big - 1
        expected = float(Fraction(big * 2 - total, total))  # = 1/total
        assert expected > 0.0
        assert p.imbalance(A) == expected
        assert load_imbalance(A, p) == expected
        naive = float(big) / (float(total) / 2) - 1.0
        assert naive == 0.0  # the bug this pins against

    def test_imbalance_zero_total(self):
        A = np.zeros((2, 2), dtype=np.int64)
        p = rect_uniform(A, 4)
        assert p.imbalance(A) == 0.0

    def test_exact_imbalance_guards(self):
        assert exact_imbalance(5, 0, 3) == 0.0
        assert exact_imbalance(5, 10, 0) == 0.0
        assert exact_imbalance(5, 10, 2) == 0.0
        assert exact_imbalance(6, 10, 2) == pytest.approx(0.2)

    def test_oned_imbalance_exact_past_float_precision(self):
        # total = 2^62 + 3 and the optimal 2-way bottleneck is 2^61 + 2: the
        # exact imbalance is 1 / total, while Lmax / (total / m) - 1 rounds
        # total / 2 and Lmax to the same double and returns 0.0
        vals = [2**61 + 1, 2**61 - 1, 3]
        r = partition_1d(vals, 2)
        assert r.bottleneck == 2**61 + 2
        P = np.concatenate([[0], np.cumsum(vals)])
        assert r.imbalance(P) == 1 / (2**62 + 3) > 0.0


class TestCommunication:
    @pytest.mark.parametrize("m", [1, 4, 6, 9])
    def test_matches_owner_map(self, rng, m):
        A = rng.integers(1, 9, (12, 12))
        p = rect_uniform(A, m)
        assert communication_volume(p) == owner_cross_edges(p.owner_map())

    def test_single_rect_no_comm(self, rng):
        A = rng.integers(1, 9, (5, 5))
        assert communication_volume(rect_uniform(A, 1)) == 0
        assert max_boundary(rect_uniform(A, 1)) == 0

    def test_max_boundary(self, rng):
        A = rng.integers(1, 9, (8, 8))
        p = rect_uniform(A, 4)  # 2x2 grid of 4x4 blocks
        # each block touches two interior sides of length 4
        assert max_boundary(p) == 8

    def test_empty_partition(self):
        assert max_boundary(Partition([], (3, 3))) == 0


class TestMigration:
    def test_identical_partitions_zero(self, rng):
        A = rng.integers(1, 9, (8, 8))
        p = rect_uniform(A, 4)
        assert migration_volume(p, p, A) == 0

    def test_disjoint_swap_full(self, rng):
        A = rng.integers(1, 9, (4, 4))
        p1 = Partition([Rect(0, 2, 0, 4), Rect(2, 4, 0, 4)], (4, 4))
        p2 = Partition([Rect(2, 4, 0, 4), Rect(0, 2, 0, 4)], (4, 4))
        assert migration_volume(p1, p2, A) == A.sum()

    def test_matches_owner_map_reference(self, rng):
        A = rng.integers(1, 9, (12, 12))
        pf = PrefixSum2D(A)
        p1 = rect_uniform(pf, 4)
        p2 = rect_uniform(pf, 4, P=4, Q=1)
        moved_ref = int(A[p1.owner_map() != p2.owner_map()].sum())
        assert migration_volume(p1, p2, pf) == moved_ref

    def test_shape_mismatch(self, rng):
        A = rng.integers(1, 9, (4, 4))
        p1 = rect_uniform(A, 2)
        p2 = rect_uniform(rng.integers(1, 9, (4, 6)), 2)
        with pytest.raises(ValueError):
            migration_volume(p1, p2, A)

    def test_m_mismatch_raises(self, rng):
        # owner identity is positional: truncating to min(m, m') silently
        # misaccounted the dropped processors' load (the pinned bug)
        A = rng.integers(1, 9, (8, 8))
        p2 = rect_uniform(A, 2)
        p4 = rect_uniform(A, 4)
        with pytest.raises(ValueError, match="processor count"):
            migration_volume(p2, p4, A)
        with pytest.raises(ValueError, match="processor count"):
            migration_volume(p4, p2, A)

    def test_volume_bounded_by_total(self, rng):
        from repro import partition_2d

        A = rng.integers(0, 20, (16, 16))
        total = int(A.sum())
        parts = [
            rect_uniform(A, 4),
            rect_uniform(A, 4, P=4, Q=1),
            partition_2d(A, 4, "JAG-M-HEUR"),
            partition_2d(A, 4, "HIER-RB"),
        ]
        for p1 in parts:
            for p2 in parts:
                vol = migration_volume(p1, p2, A)
                assert 0 <= vol <= total
                # symmetric: the moved load is the same in both directions
                assert vol == migration_volume(p2, p1, A)
            assert migration_volume(p1, p1, A) == 0

    def test_substrate_equality(self, rng):
        from repro.core.sparse import SparsePrefix2D

        A = np.zeros((16, 16), dtype=np.int64)
        idx = rng.integers(0, 16, (30, 2))
        A[idx[:, 0], idx[:, 1]] = rng.integers(1, 50, 30)
        p1 = rect_uniform(A, 4)
        p2 = rect_uniform(A, 4, P=4, Q=1)
        raw = migration_volume(p1, p2, A)
        assert migration_volume(p1, p2, PrefixSum2D(A)) == raw
        assert migration_volume(p1, p2, SparsePrefix2D(A)) == raw
