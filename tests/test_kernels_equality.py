"""Adversarial bit-identity suite for the kernel registry (repro.perf.kernels).

The ``numpy`` backend of every kernel is compared against the scalar
``reference`` implementation bit for bit, on inputs chosen to break
vectorized shortcuts: all-zero arrays and zero runs, single-cell arrays,
empty windows, loads near ``2**62`` (where an unclamped ``P[pos] + B``
overflows int64), and ``m > n`` (more processors than cells).

``probe_multi`` returns a tuple ``(feasible, bound, cuts)``: the tuples must
match, and the bound must be sound — realised by the cuts of a feasible
walk, and still infeasible one below it after an infeasible walk.

The tail of the module pins backend selection (malformed environment
values fail loudly), the dispatch sites themselves (``oned.probe``,
``oned.multicost``, ``jagged.m_heur`` and ``hierarchical.cuts`` answer
identically on either backend) and the registry's lint coverage (``perf``
stays in ``HOT_PACKAGES``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf.config import (
    _parse_backend,
    cache_budget_bytes,
    cache_min_cells,
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
# weighted_cut / relaxed_split — the windowed scoring kernels
# ----------------------------------------------------------------------
_ORIENTS = ((1, 1),), ((3, 5), (5, 3)), ((2, 7), (7, 2), (4, 4))


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_weighted_cut_matches_reference(pname, backend):
    P = PREFIXES[pname]
    n = len(P) - 1
    windows = [(0, n), (0, min(1, n))] + ([(1, n - 1)] if n >= 3 else [])
    for j0, j1 in windows:
        for orients in _ORIENTS:
            ref = kernel("weighted_cut", "reference")(P, j0, j1, orients)
            got = kernel("weighted_cut", backend)(P, j0, j1, orients)
            assert ref == got, (pname, backend, j0, j1, orients)


@pytest.mark.parametrize("pname", sorted(PREFIXES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_relaxed_split_matches_reference(pname, backend):
    P = PREFIXES[pname]
    n = len(P) - 1
    windows = [(0, n)] + ([(1, n - 1)] if n >= 3 else [])
    # m = 1 (None), 2 (scalar fast path), 5 (scalar), 40 (vectorized — and
    # on the "huge" prefix the total·j intermediate overflows without the
    # Python-int target fallback)
    for m in (1, 2, 5, 40):
        for j0, j1 in windows:
            ref = kernel("relaxed_split", "reference")(P, j0, j1, m)
            got = kernel("relaxed_split", backend)(P, j0, j1, m)
            assert ref == got, (pname, backend, m, j0, j1)


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


def test_malformed_cache_mb_env_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_CACHE_MB", "64MB")
    with pytest.raises(ValueError, match="REPRO_PERF_CACHE_MB"):
        cache_budget_bytes()
    monkeypatch.setenv("REPRO_PERF_CACHE_MB", " 2 ")
    assert cache_budget_bytes() == 2 * 1024 * 1024


def test_malformed_cache_min_cells_env_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_CACHE_MIN_CELLS", "1e5")
    with pytest.raises(ValueError, match="REPRO_PERF_CACHE_MIN_CELLS"):
        cache_min_cells()
    monkeypatch.setenv("REPRO_PERF_CACHE_MIN_CELLS", "")
    assert cache_min_cells() == 65536


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
    """Windowed dispatch on the raw prefix == reference on the rebased band."""
    from repro.hierarchical.cuts import best_relaxed_split_win, best_weighted_cut_win

    P = PREFIXES["plain"]
    n = len(P) - 1
    for j0, j1 in ((0, n), (2, n - 1)):
        band = (P[j0 : j1 + 1] - P[j0]).astype(np.int64)
        L = j1 - j0
        for orients in _ORIENTS:
            ref = kernel("weighted_cut", "reference")(band, 0, L, orients)
            assert best_weighted_cut_win(P, j0, j1, orients) == ref, (j0, j1, orients)
        for m in (2, 5, 40):
            ref_s = kernel("relaxed_split", "reference")(band, 0, L, m)
            assert best_relaxed_split_win(P, j0, j1, m) == ref_s, (j0, j1, m)


def test_perf_package_stays_lint_hot():
    """Satellite pin: the registry's package is covered by the hot-path rules."""
    from repro.lint.engine import HOT_PACKAGES

    assert "perf" in HOT_PACKAGES
