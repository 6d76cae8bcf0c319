"""Adversarial bit-identity suite for the kernel registry (repro.perf.kernels).

The ``numpy`` backend of every kernel is compared against the scalar
``reference`` implementation bit for bit, on inputs chosen to break
vectorized shortcuts: all-zero arrays and zero runs, single-cell arrays,
empty windows, loads near ``2**62`` (where an unclamped ``P[pos] + B``
overflows int64), and ``m > n`` (more processors than cells).

``probe_multi`` returns a tuple ``(feasible, bound, cuts)``: the tuples must
match, and the bound must be sound — realised by the cuts of a feasible
walk, and still infeasible one below it after an infeasible walk.

The frontier cut kernels (``weighted_cut``, ``relaxed_split``) score ragged
batches of windows; their numpy backend runs in both of its regimes, the
scalar one below ``_FRONTIER_MIN_CANDS`` candidates and the segmented pass
forced on every batch.

The tail of the module pins backend selection (malformed environment
values fail loudly), the dispatch sites themselves (``oned.probe``,
``oned.multicost``, ``jagged.m_heur`` and the frontier cut entry points
answer identically on either backend) and the registry's lint coverage
(``perf`` stays in ``HOT_PACKAGES``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf import kernels
from repro.perf.config import (
    _parse_backend,
    perf_backend,
    set_perf_backend,
    use_perf_backend,
)
from repro.perf.kernels import KERNELS, kernel

#: backends compared against the reference oracle
BACKENDS = ("numpy",)

_HUGE = 2**62


def _prefix(values) -> np.ndarray:
    P = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(np.asarray(values, dtype=np.int64), out=P[1:])
    return P


#: adversarial 1D prefix arrays (name -> prefix)
PREFIXES = {
    "zeros": _prefix([0, 0, 0, 0, 0]),
    "zero_runs": _prefix([0, 5, 0, 0, 3, 0, 0, 0, 9, 0]),
    "single_cell": _prefix([7]),
    "empty": _prefix([]),
    "plain": _prefix([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]),
    # two ~2**62 cells: any unclamped target P[pos] + B with B near the
    # total overflows int64; the sum stays below 2**63 - 1
    "huge": _prefix([_HUGE - 7, 13, 2**61, 999]),
}


def _candidate_Bs(P: np.ndarray) -> list[int]:
    total = int(P[-1])
    cells = np.diff(P)
    mx = int(cells.max()) if len(cells) else 0
    return sorted({-1, 0, 1, mx - 1, mx, total // 3, total, total + 5})


# ----------------------------------------------------------------------
# probe_batch / min_parts / probe_cuts — the windowed greedy kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_probe_batch_matches_reference(pname, backend):
    P = PREFIXES[pname]
    n = len(P) - 1
    Bs = np.array(_candidate_Bs(P), dtype=np.int64)
    windows = [(0, None)]
    if n >= 3:
        windows += [(1, n - 1), (2, 2)]  # interior window and an empty one
    for m in (1, 2, 3, n + 5):  # n + 5 > n: more processors than cells
        for lo, hi in windows:
            ref = kernel("probe_batch", "reference")(P, m, Bs, lo, hi)
            got = kernel("probe_batch", backend)(P, m, Bs, lo, hi)
            assert np.array_equal(ref, got), (pname, backend, m, lo, hi)


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_min_parts_matches_reference(pname, backend):
    P = PREFIXES[pname]
    n = len(P) - 1
    for B in _candidate_Bs(P):
        for cap in (None, 0, 1, 3, n + 7):
            try:
                ref = kernel("min_parts", "reference")(P, B, 0, None, cap)
            except ValueError:
                with pytest.raises(ValueError):
                    kernel("min_parts", backend)(P, B, 0, None, cap)
                continue
            got = kernel("min_parts", backend)(P, B, 0, None, cap)
            assert ref == got, (pname, backend, B, cap)


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_probe_cuts_matches_reference(pname, backend):
    P = PREFIXES[pname]
    n = len(P) - 1
    windows = [(0, None)] + ([(1, n - 1)] if n >= 3 else [])
    for m in (1, 2, 3, n + 5):
        for B in _candidate_Bs(P):
            for lo, hi in windows:
                ref = kernel("probe_cuts", "reference")(P, m, B, lo, hi)
                got = kernel("probe_cuts", backend)(P, m, B, lo, hi)
                if ref is None:
                    assert got is None, (pname, backend, m, B, lo, hi)
                else:
                    assert got is not None and np.array_equal(ref, got), (
                        pname,
                        backend,
                        m,
                        B,
                        lo,
                        hi,
                    )


def test_probe_cuts_accepts_boundary_lists():
    """Callers (oned.nicol, jagged.m_opt) pass plain Python lists."""
    Pl = [0, 3, 4, 8, 9, 14]
    for backend in ("reference",) + BACKENDS:
        out = kernel("probe_cuts", backend)(Pl, 3, 6, 0, None)
        assert out is not None and out.tolist()[0] == 0 and out.tolist()[-1] == 5


# ----------------------------------------------------------------------
# weighted_cut / relaxed_split — the frontier cut kernels
# ----------------------------------------------------------------------
_ORIENTS = ((1, 1),), ((3, 5), (5, 3)), ((2, 7), (7, 2), (4, 4))


def _batch(P: np.ndarray, windows) -> tuple[np.ndarray, np.ndarray]:
    """The frontier batch of the prefix windows ``[j0, j1]`` of ``P``."""
    vals = np.concatenate([P[j0 : j1 + 1] for j0, j1 in windows]).astype(np.int64)
    offs = np.zeros(len(windows) + 1, dtype=np.int64)
    np.cumsum([j1 - j0 + 1 for j0, j1 in windows], out=offs[1:])
    return vals, offs


def _regimes(monkeypatch):
    """Run the body under the numpy kernels' scalar regime, then with every
    batch forced through the segmented pass."""
    for floor in (10**9, 0):
        monkeypatch.setattr(kernels, "_FRONTIER_MIN_CANDS", floor)
        yield floor


def _check_weighted(vals, offs, orients, backend, monkeypatch, where) -> None:
    ref = kernel("weighted_cut", "reference")(vals, offs, orients)
    assert len(ref) == len(offs) - 1
    for floor in _regimes(monkeypatch):
        got = kernel("weighted_cut", backend)(vals, offs, orients)
        assert got == ref, (where, floor)


def _check_relaxed(vals, offs, ms, backend, monkeypatch, where) -> None:
    ref = kernel("relaxed_split", "reference")(vals, offs, ms)
    assert len(ref) == len(offs) - 1
    for floor in _regimes(monkeypatch):
        got = kernel("relaxed_split", backend)(vals, offs, ms)
        assert got == ref, (where, floor)


def _windows_of(P: np.ndarray) -> list[tuple[int, int]]:
    """Whole, one- and two-cell, interior and empty windows of a prefix."""
    n = len(P) - 1
    return [(0, n), (0, min(1, n)), (n, n)] + ([(1, n - 1), (2, 4)] if n >= 4 else [])


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_weighted_cut_matches_reference(pname, backend, monkeypatch):
    P = PREFIXES[pname]
    windows = _windows_of(P)
    for orients in _ORIENTS:
        for w in windows:  # single-window batches
            _check_weighted(*_batch(P, [w]), [orients], backend, monkeypatch, (pname, w))
        # one batch of every window, then the orientation sets mixed
        _check_weighted(*_batch(P, windows), [orients] * len(windows), backend, monkeypatch, pname)
    mixed = [_ORIENTS[i % 3] for i in range(len(windows))]
    _check_weighted(*_batch(P, windows), mixed, backend, monkeypatch, pname)


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_relaxed_split_matches_reference(pname, backend, monkeypatch):
    P = PREFIXES[pname]
    windows = _windows_of(P)
    # m = 1 (None), 2 and 3 (one or two splits), 32/33 and 1024 (wide nodes;
    # on the "huge" prefix total·(m-1) overflows int64 and the batch stays
    # in exact Python ints)
    for m in (1, 2, 3, 5, 32, 33, 1024):
        for w in windows:
            _check_relaxed(*_batch(P, [w]), [m], backend, monkeypatch, (pname, w, m))
        _check_relaxed(*_batch(P, windows), [m] * len(windows), backend, monkeypatch, (pname, m))
    ms = [(2, 3, 32, 33, 1024, 1)[i % 6] for i in range(len(windows))]
    _check_relaxed(*_batch(P, windows), ms, backend, monkeypatch, pname)


def test_frontier_batches_mix_shapes(monkeypatch):
    """One batch over every adversarial prefix: empty, one-cell, zero-load,
    uniform (near-tie heavy) and plain windows side by side."""
    ones = _prefix([1] * 40)
    pieces = [(PREFIXES[name], w) for name in sorted(PREFIXES) for w in _windows_of(PREFIXES[name])]
    pieces += [(ones, (0, 40)), (ones, (3, 36)), (ones, (5, 7))]
    vals = np.concatenate([P[a : b + 1] for P, (a, b) in pieces]).astype(np.int64)
    offs = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([b - a + 1 for _, (a, b) in pieces], out=offs[1:])
    for backend in BACKENDS:
        for k in range(3):
            orients = [_ORIENTS[(i + k) % 3] for i in range(len(pieces))]
            _check_weighted(vals, offs, orients, backend, monkeypatch, k)
        for m_node in (2, 3, 32, 33, 1024):
            ms = [m_node if i % 4 else 2 + i for i in range(len(pieces))]
            _check_relaxed(vals, offs, ms, backend, monkeypatch, m_node)


def test_frontier_huge_totals_take_exact_ints(monkeypatch):
    """Totals near 2**62: total·w and total·(m-1) leave int64, the batch falls
    back to exact Python-int scoring and still answers like the reference."""
    P = _prefix([2**61, 3, 2**61 - 9, 7, 11])
    windows = [(0, 5), (1, 5), (0, 3)]
    vals, offs = _batch(P, windows)
    assert kernels._totals(vals, offs, 2) is None
    assert kernels._totals(vals, offs, 1023) is None
    assert kernels._totals(*_batch(PREFIXES["plain"], windows), 1023) is not None
    for backend in BACKENDS:
        _check_weighted(vals, offs, [_ORIENTS[2]] * 3, backend, monkeypatch, "huge")
        _check_relaxed(vals, offs, [2, 33, 1024], backend, monkeypatch, "huge")
    # the exact answer: cut 2 leaves 2**61 + 3 | 2**61 + 9, one past a float's reach
    (found,) = kernels.weighted_cuts(*_batch(P, [(0, 5)]), [((1, 1),)])
    assert found == (2, 2**61 + 9, 1, 1)


@st.composite
def _frontier_batches(draw):
    """Ragged batches of windows over one random prefix, with per-window
    processor counts and orientation sets."""
    cells = draw(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 9)))
    P = _prefix(cells)
    n = len(P) - 1
    windows = draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted).map(tuple),
            min_size=1,
            max_size=12,
        )
    )
    ms = draw(st.lists(st.integers(1, 40), min_size=len(windows), max_size=len(windows)))
    ratios = st.tuples(st.integers(1, 9), st.integers(1, 9))
    orients = draw(
        st.lists(
            st.lists(ratios, min_size=1, max_size=3).map(tuple),
            min_size=len(windows),
            max_size=len(windows),
        )
    )
    return _batch(P, windows), ms, orients


@given(_frontier_batches())
@settings(max_examples=200, deadline=None)
def test_frontier_kernels_match_on_random_batches(case):
    (vals, offs), ms, orients = case
    ref_cut = kernel("weighted_cut", "reference")(vals, offs, orients)
    ref_split = kernel("relaxed_split", "reference")(vals, offs, ms)
    saved = kernels._FRONTIER_MIN_CANDS
    try:
        for floor in (10**9, 0):
            kernels._FRONTIER_MIN_CANDS = floor
            for backend in BACKENDS:
                assert kernel("weighted_cut", backend)(vals, offs, orients) == ref_cut
                assert kernel("relaxed_split", backend)(vals, offs, ms) == ref_split
    finally:
        kernels._FRONTIER_MIN_CANDS = saved


# ----------------------------------------------------------------------
# alloc_tail — the JAG-M-HEUR allocation tail
# ----------------------------------------------------------------------
_ALLOC_CASES = [
    ([5, 0, 9, 0, 3], 11),  # zero-load stripes in the mix
    ([1, 1, 1, 1], 4),  # m == P: the shave loop must run to q == 1
    ([1000, 1, 1, 1], 16),
    ([_HUGE - 7, 13, 2**61], 9),  # cross-multiplied comparisons past 2**53
    ([2, 3], 64),  # far more processors than stripes
]


@pytest.mark.parametrize("case", range(len(_ALLOC_CASES)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_alloc_tail_matches_reference(case, backend):
    loads_l, m = _ALLOC_CASES[case]
    loads = np.asarray(loads_l, dtype=np.int64)
    P = len(loads)
    total = int(loads.sum())
    q = -((-(m - P) * loads) // total)  # the caller's exact ceil allocation
    np.maximum(q, 1, out=q)
    ref = kernel("alloc_tail", "reference")(loads, q, m)
    got = kernel("alloc_tail", backend)(loads, q, m)
    assert ref.tolist() == got.tolist(), (case, backend)
    assert int(got.sum()) == m and int(got.min()) >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_alloc_tail_shave_matches_reference(backend):
    """Allocations above m: the shave loop picks the least-loaded stripe per processor."""
    loads = np.array([9, 4, 4, 7, 1, 6], dtype=np.int64)
    for q in ([3, 3, 3, 3, 3, 3], [1, 5, 2, 4, 2, 2], [2, 2, 2, 2, 2, 2]):
        q = np.array(q, dtype=np.int64)
        for m in range(len(loads), int(q.sum()) + 3):
            ref = kernel("alloc_tail", "reference")(loads, q, m)
            got = kernel("alloc_tail", backend)(loads, q, m)
            assert ref.tolist() == got.tolist(), (q.tolist(), m, backend)
            assert int(got.sum()) == m


# ----------------------------------------------------------------------
# probe_multi — striped interval costs
# ----------------------------------------------------------------------
def _stack(*rows) -> np.ndarray:
    return np.stack([_prefix(r) for r in rows])


_MULTI_CASES = [
    _stack([0, 0, 0, 0], [0, 0, 0, 0]),  # all-zero rows
    _stack([5, 3, 9, 1]),  # single-row matrix == plain probe
    _stack([5, 0, 9, 0], [0, 7, 0, 2]),  # zero columns per stripe
    _stack([_HUGE - 7, 13, 2**61], [5, _HUGE - 1, 7]),  # near-overflow loads
    _stack([1, 2], [3, 4], [5, 6], [7, 8]),  # m > n for small m sweeps
    np.zeros((0, 5), dtype=np.int64),  # no stripes at all
    # n >> m: 240 columns against m <= 3 — long steps, repeated doubling
    _stack(*np.random.default_rng(7).integers(0, 50, (3, 240)).tolist()),
    _stack([4, 1, 4, 1, 4, 1], [1, 4, 1, 4, 1, 4]),  # n == 6 ≈ m in the sweep
    # zeros then one heavy last cell: at m = 4 the first window (10 columns)
    # fills with zero cost, and its doubling lands exactly on column n = 20
    _stack([0] * 19 + [5], [0] * 20),
]


def _multi_Bs(M: np.ndarray) -> list[int]:
    total = int(M[:, -1].max()) if M.shape[0] else 0
    return sorted({-1, 0, 1, total // 3, total // 2, total, total + 9, 10**30})


def _multi_ms(M: np.ndarray) -> list[int]:
    n = M.shape[1] - 1
    return sorted({1, 2, 3, 4, max(n - 1, 1), max(n, 1), n + 4})


@pytest.mark.parametrize("case", range(len(_MULTI_CASES)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_probe_multi_matches_reference(case, backend):
    M = _MULTI_CASES[case]
    for m in _multi_ms(M):
        for B in _multi_Bs(M):
            ref = kernel("probe_multi", "reference")(M, m, B)
            got = kernel("probe_multi", backend)(M, m, B)
            assert ref == got, (case, backend, m, B)


def _check_walk_bound(M: np.ndarray, m: int, B: int, backend: str) -> None:
    """A walk's bound is what it proves: realised if feasible, a lower bound if not."""
    walk = kernel("probe_multi", backend)
    ok, bound, cuts = walk(M, m, B)
    if ok:
        assert cuts is not None and len(cuts) == m + 1
        assert cuts[0] == 0 and cuts[-1] == M.shape[1] - 1
        cost = max(
            (int((M[:, b] - M[:, a]).max(initial=0)) for a, b in zip(cuts, cuts[1:])),
            default=0,
        )
        assert bound == cost <= B
        # every B' in [bound, B] walks the same cuts
        assert walk(M, m, bound) == (True, bound, cuts)
    else:
        assert cuts is None and bound > B
        assert not walk(M, m, bound - 1)[0]


@pytest.mark.parametrize("case", range(len(_MULTI_CASES)))
@pytest.mark.parametrize("backend", ("reference",) + BACKENDS)
def test_probe_multi_bound_is_sound(case, backend):
    M = _MULTI_CASES[case]
    for m in _multi_ms(M):
        for B in _multi_Bs(M):
            _check_walk_bound(M, m, B, backend)


_stripe_stacks = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40)),
    elements=st.integers(0, 12),
).map(lambda A: np.concatenate([np.zeros((A.shape[0], 1), np.int64), A.cumsum(axis=1)], 1))


@given(_stripe_stacks, st.integers(1, 12), st.integers(-2, 500))
@settings(max_examples=300, deadline=None)
def test_probe_multi_tuples_match_and_bounds_hold(M, m, B):
    ref = kernel("probe_multi", "reference")(M, m, B)
    for backend in BACKENDS:
        assert kernel("probe_multi", backend)(M, m, B) == ref, backend
    _check_walk_bound(M, m, B, "numpy")


@given(
    _stripe_stacks,
    st.integers(1, 12),
    st.lists(st.integers(-2, 500), min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_probe_multi_shared_memo_changes_no_walk(M, m, Bs):
    # one solve's walks share a step memo; any order of B — widening
    # windows included — must return exactly the memo-free tuples
    for backend in ("reference",) + BACKENDS:
        walk = kernel("probe_multi", backend)
        memo: kernels.StepMemo = {}
        for B in Bs:
            assert walk(M, m, B, memo) == walk(M, m, B), (backend, B)


def test_probe_multi_memo_widens_a_narrow_window():
    # m = 8 over 64 columns: first windows are 16 columns wide; the walk at
    # the total reaches the end in one step from a cached narrow window
    M = _stack(*np.random.default_rng(3).integers(0, 9, (2, 64)).tolist())
    total = int(M[:, -1].max())
    memo: kernels.StepMemo = {}
    walk = kernel("probe_multi", "numpy")
    assert walk(M, 8, total // 10, memo) == walk(M, 8, total // 10)
    assert memo[0][0] == 16
    assert walk(M, 8, total, memo) == (True, total, [0] + [64] * 8)
    assert memo[0][0] == 64


# ----------------------------------------------------------------------
# backend selection and malformed environment values
# ----------------------------------------------------------------------
def test_registry_names_are_stable():
    assert set(KERNELS) == {
        "probe_batch",
        "min_parts",
        "probe_cuts",
        "weighted_cut",
        "relaxed_split",
        "alloc_tail",
        "probe_multi",
    }
    for k in KERNELS.values():
        assert callable(k.reference) and callable(k.numpy)


def test_backend_env_parses_case_and_blanks(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_BACKEND", " REFERENCE ")
    assert _parse_backend() == "reference"
    monkeypatch.setenv("REPRO_PERF_BACKEND", "")
    assert _parse_backend() == "numpy"
    monkeypatch.delenv("REPRO_PERF_BACKEND")
    assert _parse_backend() == "numpy"


@pytest.mark.parametrize("value", ["refrence", "cuda"])
def test_malformed_backend_env_is_rejected(monkeypatch, value):
    """A typo must not quietly turn a reference run into a numpy one."""
    monkeypatch.setenv("REPRO_PERF_BACKEND", value)
    with pytest.raises(ValueError, match=r"REPRO_PERF_BACKEND.*'reference', 'numpy'"):
        _parse_backend()


def test_set_perf_backend_rejects_unknown_names():
    for name in ("cuda", "Numpy"):
        with pytest.raises(ValueError):
            set_perf_backend(name)
    # the failed set must not have clobbered the active backend
    assert perf_backend() in ("reference", "numpy")
    with pytest.raises(ValueError):
        kernel("probe_batch", "cuda")


def test_use_perf_backend_scopes_and_restores():
    before = perf_backend()
    with use_perf_backend("reference"):
        assert perf_backend() == "reference"
        with use_perf_backend("numpy"):
            assert perf_backend() == "numpy"
        assert perf_backend() == "reference"
    assert perf_backend() == before


# ----------------------------------------------------------------------
# dispatch sites: identical answers on the reference and numpy backends
# ----------------------------------------------------------------------
def test_oned_probe_cuts_dispatch_matches_reference():
    from repro.oned.probe import probe_cuts

    P = PREFIXES["plain"]
    for m in (1, 3, 7):
        for B in _candidate_Bs(P):
            with use_perf_backend("reference"):
                ref = probe_cuts(P, m, B)
            got = probe_cuts(P, m, B)
            if ref is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(ref, got)


def test_multicost_dispatch_matches_reference():
    from repro.oned.multicost import multi_bottleneck, partition_multi, probe_multi

    M = _stack([5, 3, 9, 1, 7, 2], [2, 8, 1, 6, 3, 4])
    total = int(M[:, -1].max())
    for m in (1, 2, 4, 9):
        for B in (0, total // 3, total):
            with use_perf_backend("reference"):
                ref = probe_multi(M, m, B)
            assert ref == probe_multi(M, m, B)
        with use_perf_backend("reference"):
            ref_B = multi_bottleneck(M, m)
            ref_part = partition_multi(M, m)
        got_B = multi_bottleneck(M, m)
        got_part = partition_multi(M, m, ub=total)
        assert ref_B == got_B == ref_part[0] == got_part[0]
        assert ref_part[1].tolist() == got_part[1].tolist()


def test_allocate_processors_dispatch_matches_reference():
    from repro.jagged.m_heur import allocate_processors

    loads = np.array([5, 0, 9, 0, 3, 1000, 1], dtype=np.int64)
    for m in (7, 12, 40):
        with use_perf_backend("reference"):
            ref = allocate_processors(loads, m)
        for backend in BACKENDS:
            with use_perf_backend(backend):
                got = allocate_processors(loads, m)
            assert ref.tolist() == got.tolist(), (m, backend)


def test_hier_cut_dispatchers_match_unwindowed_references():
    """Windows of the raw prefix == the reference on each rebased band."""
    from repro.perf.kernels import relaxed_splits, weighted_cuts

    P = PREFIXES["plain"]
    n = len(P) - 1
    windows = [(0, n), (2, n - 1)]
    vals, offs = _batch(P, windows)
    bands = [_batch(P[j0 : j1 + 1] - P[j0], [(0, j1 - j0)]) for j0, j1 in windows]
    ref = kernel("weighted_cut", "reference")
    ref_s = kernel("relaxed_split", "reference")
    for orients in _ORIENTS:
        want = [ref(*band, [orients])[0] for band in bands]
        assert weighted_cuts(vals, offs, [orients] * 2) == want, orients
    for m in (2, 5, 40):
        want_s = [ref_s(*band, [m])[0] for band in bands]
        assert relaxed_splits(vals, offs, [m, m]) == want_s, m


def test_relaxed_split_scores_the_per_j_optimum():
    """The node rule's score is the best one of a plain scan over every
    processor split j, up to its 0.1% balanced tie-break (the chosen cut and
    j may differ among near-ties)."""
    from repro.perf.kernels import relaxed_splits

    P = _prefix(np.random.default_rng(0).integers(1, 1000, 4096))
    total, L = int(P[-1]), len(P) - 1
    for m in (2, 7, 64, 501):
        best = np.inf
        for j in range(1, m):
            c = int(np.searchsorted(P, total * (j / m), side="right")) - 1
            for cut in (min(max(cc, 1), L - 1) for cc in (c, c + 1)):
                best = min(best, max(int(P[cut]) / j, (total - int(P[cut])) / (m - j)))
        ((_, _, score),) = relaxed_splits(P, np.array([0, len(P)]), [m])
        assert score == pytest.approx(best, rel=1e-3), m


def test_perf_package_stays_lint_hot():
    """Satellite pin: the registry's package is covered by the hot-path rules."""
    from repro.lint.engine import HOT_PACKAGES

    assert "perf" in HOT_PACKAGES
