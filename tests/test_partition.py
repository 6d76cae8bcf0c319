"""Unit tests for the Partition container and its validity test (§2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition_2d
from repro.core import partition
from repro.core.errors import InvalidPartitionError, ParameterError
from repro.core.partition import Partition
from repro.core.prefix import PrefixSum2D
from repro.core.rectangle import Rect
from repro.core.serialize import partition_from_dict, partition_to_dict
from repro.jagged.common import build_jagged_partition
from repro.rectilinear.common import build_rectilinear_partition


#: the ``_PAINT_MAX_CELLS`` that forces each validation path on any grid
PAINT_MAX = {"paint": 1 << 62, "pairwise": -1}


def three_way(shape=(6, 8)):
    n1, n2 = shape
    return Partition(
        [Rect(0, n1, 0, 3), Rect(0, 2, 3, n2), Rect(2, n1, 3, n2)], shape
    )


class TestValidity:
    def test_valid_partition(self):
        three_way().validate()
        assert three_way().is_valid()

    @pytest.mark.parametrize("method", sorted(PAINT_MAX))
    def test_overlap_detected(self, monkeypatch, method):
        monkeypatch.setattr(partition, "_PAINT_MAX_CELLS", PAINT_MAX[method])
        p = Partition([Rect(0, 6, 0, 4), Rect(0, 6, 3, 8), Rect(0, 0, 0, 0)], (6, 8))
        with pytest.raises(InvalidPartitionError):
            p.validate()

    @pytest.mark.parametrize("method", sorted(PAINT_MAX))
    def test_gap_detected(self, monkeypatch, method):
        monkeypatch.setattr(partition, "_PAINT_MAX_CELLS", PAINT_MAX[method])
        p = Partition([Rect(0, 6, 0, 4), Rect(0, 5, 4, 8)], (6, 8))
        with pytest.raises(InvalidPartitionError):
            p.validate()

    def test_out_of_bounds_detected(self):
        p = Partition([Rect(0, 7, 0, 8)], (6, 8))
        with pytest.raises(InvalidPartitionError):
            p.validate()

    def test_empty_rects_ignored(self):
        p = Partition([Rect(0, 6, 0, 8), Rect(0, 0, 0, 0), Rect(3, 3, 1, 5)], (6, 8))
        p.validate()

    def test_no_rects(self):
        with pytest.raises(InvalidPartitionError):
            Partition([], (3, 3)).validate()

    def test_pairwise_chunking(self, rng):
        # many thin valid stripes exercise the chunked pairwise path
        n = 700
        rects = [Rect(i, i + 1, 0, 4) for i in range(n)]
        Partition(rects, (n, 4))._validate_pairwise(
            np.array([(r.r0, r.r1, r.c0, r.c1) for r in rects]), chunk=128
        )


class TestLoadsAndOwnership:
    def test_loads(self, rng):
        A = rng.integers(0, 30, (6, 8))
        p = three_way()
        pf = PrefixSum2D(A)
        expected = [
            A[0:6, 0:3].sum(),
            A[0:2, 3:8].sum(),
            A[2:6, 3:8].sum(),
        ]
        np.testing.assert_array_equal(p.loads(pf), expected)
        assert p.max_load(A) == max(expected)
        assert p.imbalance(A) == pytest.approx(max(expected) / (A.sum() / 3) - 1)

    def test_owner_map_and_owner_of_agree(self, rng):
        p = three_way()
        owner = p.owner_map()
        for i in range(6):
            for j in range(8):
                assert p.owner_of(i, j) == owner[i, j]

    def test_owner_of_out_of_range(self):
        with pytest.raises(ParameterError):
            three_way().owner_of(6, 0)

    def test_owner_of_uncovered(self):
        p = Partition([Rect(0, 1, 0, 1)], (2, 2))
        with pytest.raises(InvalidPartitionError):
            p.owner_of(1, 1)

    def test_indexer_used(self):
        calls = []

        def fake(i, j):
            calls.append((i, j))
            return 0

        p = Partition([Rect(0, 2, 0, 2)], (2, 2), indexer=fake)
        assert p.owner_of(1, 1) == 0
        assert calls == [(1, 1)]

    def test_container_protocol(self):
        p = three_way()
        assert p.m == len(p) == 3
        assert list(iter(p))[0] == p[0]
        assert "Partition" in repr(p) or p.method in repr(p)

    def test_transpose(self, rng):
        A = rng.integers(0, 30, (6, 8))
        p = three_way()
        pt = p.transpose()
        assert pt.shape == (8, 6)
        pt.validate()
        np.testing.assert_array_equal(
            np.sort(pt.loads(PrefixSum2D(A.T))), np.sort(p.loads(PrefixSum2D(A)))
        )
        # indexer transposes too
        assert pt.owner_of(7, 0) == p.owner_of(0, 7)

    def test_with_method(self):
        assert three_way().with_method("X").method == "X"

    def test_zero_total_imbalance(self):
        A = np.zeros((6, 8), dtype=np.int64)
        assert three_way().imbalance(A) == 0.0


class TestCoordinateArray:
    def test_coords_is_the_stored_read_only_array(self):
        p = three_way()
        c = p.coords()
        assert c is p.coords() and c.dtype == np.int64 and c.shape == (3, 4)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 1

    def test_array_and_rects_construct_the_same_partition(self):
        p = three_way()
        q = Partition(p.coords(), p.shape)
        assert q.rects == p.rects
        np.testing.assert_array_equal(q.coords(), p.coords())

    def test_input_array_is_copied_not_frozen(self):
        a = np.array([[0, 6, 0, 8]])
        p = Partition(a, (6, 8))
        a[0, 1] = 3  # the caller's array stays writable and detached
        assert p.coords().tolist() == [[0, 6, 0, 8]]

    @pytest.mark.parametrize("row", [[3, 2, 0, 8], [0, 6, 5, 4]])
    def test_malformed_array_row_raises_like_rect(self, row):
        with pytest.raises(ValueError, match="malformed rectangle"):
            Partition(np.array([row, [0, 6, 0, 8]]), (6, 8))

    def test_with_method_shares_array_and_rects(self):
        p = three_way()
        rects = p.rects
        q = p.with_method("X")
        assert q.coords() is p.coords() and q.rects is rects

    def test_transpose_is_a_column_permutation(self):
        p = three_way()
        np.testing.assert_array_equal(p.transpose().coords(), p.coords()[:, [2, 3, 0, 1]])
        assert p.transpose().rects == tuple(r.transpose() for r in p.rects)


class TestTransposeMeta:
    def test_transpose_swaps_grid_cuts(self):
        # 12x20 into 2x3 blocks: rows cut at [0, 6, 12], columns at
        # [0, 7, 13, 20]; the transpose's rows are the old columns
        A = np.ones((12, 20), dtype=np.int64)
        t = partition_2d(A, 6, "RECT-UNIFORM").transpose()
        assert t.shape == (20, 12)
        assert t.meta["row_cuts"].tolist() == [0, 7, 13, 20]
        assert t.meta["col_cuts"].tolist() == [0, 6, 12]
        rows = sorted({r0 for r0, _, _, _ in t.coords().tolist()} | {t.shape[0]})
        assert rows == t.meta["row_cuts"].tolist()
        assert partition_to_dict(t)["meta"]["row_cuts"] == [0, 7, 13, 20]

    def test_transpose_keeps_jagged_stripe_convention(self):
        A = np.arange(1, 12 * 20 + 1, dtype=np.int64).reshape(12, 20)
        p = partition_2d(A, 6, "JAG-M-HEUR-HOR")
        t = p.transpose()
        assert t.meta["stripe_cuts"] is p.meta["stripe_cuts"]
        assert t.meta["col_cuts"] is p.meta["col_cuts"]
        assert "row_cuts" not in t.meta


def _rect_loop_grid(row_cuts, col_cuts):
    # the per-Rect loop build_rectilinear_partition used to run
    return [
        Rect(int(row_cuts[p]), int(row_cuts[p + 1]), int(col_cuts[q]), int(col_cuts[q + 1]))
        for p in range(len(row_cuts) - 1)
        for q in range(len(col_cuts) - 1)
    ]


def _rect_loop_jagged(stripe_cuts, col_cuts, pad_to=None):
    # the per-Rect loop build_jagged_partition used to run
    rects = [
        Rect(int(stripe_cuts[s]), int(stripe_cuts[s + 1]), int(cc[q]), int(cc[q + 1]))
        for s, cc in enumerate(col_cuts)
        for q in range(len(cc) - 1)
    ]
    return rects + [Rect(0, 0, 0, 0)] * ((pad_to or 0) - len(rects))


class TestBuildersMatchRectLoops:
    @pytest.mark.parametrize(
        "row_cuts, col_cuts",
        [([0, 12], [0, 20]), ([0, 3, 3, 12], [0, 7, 20]), ([0, 1, 2, 5, 12], [0, 0, 4, 9, 20])],
    )
    def test_rectilinear(self, row_cuts, col_cuts):
        p = build_rectilinear_partition(PrefixSum2D(np.ones((12, 20), dtype=np.int64)),
                                        np.array(row_cuts), np.array(col_cuts))
        want = _rect_loop_grid(row_cuts, col_cuts)
        assert p.rects == tuple(want)
        np.testing.assert_array_equal(p.coords(), [[r.r0, r.r1, r.c0, r.c1] for r in want])

    @pytest.mark.parametrize(
        "stripe_cuts, col_cuts, pad_to",
        [
            ([0, 12], [[0, 20]], None),
            ([0, 4, 4, 12], [[0, 5, 20], [0, 20], [0, 1, 2, 20]], None),
            ([0, 6, 12], [[0, 20], [0, 10, 20]], 7),
            ([0, 6, 12], [[0, 20], [0, 10, 20]], 3),
        ],
    )
    def test_jagged(self, stripe_cuts, col_cuts, pad_to):
        p = build_jagged_partition(PrefixSum2D(np.ones((12, 20), dtype=np.int64)),
                                   np.array(stripe_cuts), [np.array(c) for c in col_cuts],
                                   pad_to=pad_to)
        want = _rect_loop_jagged(stripe_cuts, col_cuts, pad_to)
        assert p.rects == tuple(want)
        np.testing.assert_array_equal(p.coords(), [[r.r0, r.r1, r.c0, r.c1] for r in want])

    @pytest.mark.parametrize("method", ["HIER-RB", "HIER-RELAXED", "HIER-OPT"])
    def test_hierarchical_leaves(self, rng, method):
        # the leaf gather: processor k owns the k-th leaf left to right
        A = rng.integers(0, 9, (7, 6))
        p = partition_2d(A, 5, method)
        tree = p.meta["tree"]
        leaves = tree.leaves()
        want = [Rect(tree.r0[k], tree.r1[k], tree.c0[k], tree.c1[k]) for k in leaves]
        want += [Rect(0, 0, 0, 0)] * (p.m - len(want))
        assert p.rects == tuple(want)
        for i in range(7):
            for j in range(6):
                assert p.owner_of(i, j) == tree.proc[_descend(tree, i, j)]


def _descend(tree, i, j):
    k = 0
    while tree.left[k] >= 0:
        k = tree.left[k] + ((i, j)[tree.dim[k]] >= tree.cut[k])
    return k


def _tuple_check(rects, shape):
    """Reference validity test over plain tuples, cell by cell (§2.1)."""
    n1, n2 = shape
    nonempty = [r for r in rects if r[1] > r[0] and r[3] > r[2]]
    if not nonempty:
        return False
    owned = {}
    for r0, r1, c0, c1 in nonempty:
        if r0 < 0 or c0 < 0 or r1 > n1 or c1 > n2:
            return False
        for i in range(r0, r1):
            for j in range(c0, c1):
                if (i, j) in owned:
                    return False
                owned[(i, j)] = True
    return len(owned) == n1 * n2


@st.composite
def _small_partitions(draw):
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # start from a valid guillotine split, then perturb: move a bound
    # (overlap / gap / out of range) or add an empty or stray row
    rows = [(0, n1, 0, n2)]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(rows) - 1))
        r0, r1, c0, c1 = rows[k]
        if r1 - r0 > 1 and draw(st.booleans()):
            x = draw(st.integers(r0 + 1, r1 - 1))
            rows[k : k + 1] = [(r0, x, c0, c1), (x, r1, c0, c1)]
        elif c1 - c0 > 1:
            x = draw(st.integers(c0 + 1, c1 - 1))
            rows[k : k + 1] = [(r0, r1, c0, x), (r0, r1, x, c1)]
    kind = draw(st.sampled_from(["valid", "move", "empty", "stray", "drop"]))
    if kind == "move":
        k = draw(st.integers(0, len(rows) - 1))
        r = list(rows[k])
        side = draw(st.integers(0, 3))
        r[side] += draw(st.sampled_from([-1, 1]))
        if r[1] >= r[0] and r[3] >= r[2]:
            rows[k] = tuple(r)
    elif kind == "empty":
        x, y = draw(st.integers(-2, n1 + 2)), draw(st.integers(-2, n2 + 2))
        rows.insert(draw(st.integers(0, len(rows))), (x, x, y, y + draw(st.integers(0, 2))))
    elif kind == "stray":
        r0 = draw(st.integers(-1, n1))
        c0 = draw(st.integers(-1, n2))
        rows.append((r0, r0 + draw(st.integers(1, 2)), c0, c0 + draw(st.integers(1, 2))))
    elif kind == "drop" and len(rows) > 1:
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    return rows, (n1, n2)


@settings(max_examples=300, deadline=None)
@given(_small_partitions(), st.sampled_from(sorted(PAINT_MAX)))
def test_array_validate_matches_tuple_reference(case, method):
    rows, shape = case
    p = Partition(np.array(rows, dtype=np.int64).reshape(-1, 4), shape)
    want = _tuple_check(rows, shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_PAINT_MAX_CELLS", PAINT_MAX[method])
        try:
            p.validate()
            got = True
        except InvalidPartitionError:
            got = False
    assert got == want
