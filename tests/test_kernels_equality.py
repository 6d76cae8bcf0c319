"""Adversarial bit-identity suite for the kernel registry (repro.perf.kernels).

Every registered backend of every kernel is compared against the scalar
reference implementation bit for bit, on inputs chosen to break vectorized
shortcuts: all-zero arrays and zero runs, single-cell arrays, empty windows,
loads near ``2**62`` (where an unclamped ``P[pos] + B`` overflows int64),
and ``m > n`` (more processors than cells).

The ``numba`` backend degrades per kernel to numpy when the compiled module
is absent, so requesting it is always safe — on a box without the ``[perf]``
extra these tests exercise the degradation path; with it installed they
compare the compiled twins.

``probe_multi`` returns a tuple ``(feasible, bound, cuts)``: the tuples must
match, and the bound must be sound — realised by the cuts of a feasible
walk, and still infeasible one below it after an infeasible walk.

The tail of the module pins the dispatch sites themselves (RPL009: the
``perf_enabled()`` guards in ``oned.probe``, ``oned.multicost`` and
``jagged.m_heur`` must agree with their reference twins) and the registry's
lint coverage (``perf`` stays in ``HOT_PACKAGES``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf.config import (
    _parse_backend,
    perf_backend,
    set_perf_backend,
    use_perf,
    use_perf_backend,
)
from repro.perf.kernels import KERNELS, kernel, numba_available

#: non-reference backends; "numba" resolves to numpy when the extra is absent
BACKENDS = ("numpy", "numba")

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
# backend selection and degradation
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


def test_invalid_env_value_degrades_to_numpy():
    """A typo in REPRO_PERF_BACKEND must not break imports: parse -> numpy."""
    assert _parse_backend("bogus") == "numpy"
    assert _parse_backend("") == "numpy"
    assert _parse_backend(" REFERENCE ") == "reference"
    assert _parse_backend("Numba") == "numba"


def test_set_perf_backend_rejects_unknown_names():
    with pytest.raises(ValueError):
        set_perf_backend("cuda")
    # the failed set must not have clobbered the active backend
    assert perf_backend() in ("reference", "numpy", "numba")


def test_use_perf_backend_scopes_and_restores():
    before = perf_backend()
    with use_perf_backend("reference"):
        assert perf_backend() == "reference"
        with use_perf_backend("numba"):
            assert perf_backend() == "numba"
        assert perf_backend() == "reference"
    assert perf_backend() == before


def test_numba_backend_degrades_gracefully():
    """Selecting 'numba' without the extra resolves to numpy per kernel."""
    for name, k in KERNELS.items():
        impl = kernel(name, "numba")
        if not numba_available() or k.numba_attr is None:
            assert impl is k.numpy
        else:
            assert impl is not k.reference
    # scoring kernels never compile: exactness needs unbounded ints
    assert KERNELS["weighted_cut"].numba_attr is None
    assert KERNELS["relaxed_split"].numba_attr is None
    assert KERNELS["alloc_tail"].numba_attr is None
    # the striped walk has no compiled twin: "numba" is its numpy walk
    assert KERNELS["probe_multi"].numba_attr is None
    assert kernel("probe_multi", "numba") is KERNELS["probe_multi"].numpy


# ----------------------------------------------------------------------
# dispatch sites: the perf_enabled() guards agree with their twins (RPL009)
# ----------------------------------------------------------------------
def test_oned_probe_cuts_dispatch_matches_reference():
    from repro.oned.probe import probe_cuts

    P = PREFIXES["plain"]
    n = len(P) - 1
    for m in (1, 3, 7):
        for B in _candidate_Bs(P):
            with use_perf(False):
                ref = probe_cuts(P, m, B)
            with use_perf(True):
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
            with use_perf(False):
                ref = probe_multi(M, m, B)
            with use_perf(True):
                got = probe_multi(M, m, B)
            assert ref == got
        with use_perf(False):
            ref_B = multi_bottleneck(M, m)
            ref_part = partition_multi(M, m)
        with use_perf(True):
            got_B = multi_bottleneck(M, m)
            got_part = partition_multi(M, m, ub=total)
        assert ref_B == got_B == ref_part[0] == got_part[0]
        assert ref_part[1].tolist() == got_part[1].tolist()


def test_allocate_processors_dispatch_matches_reference():
    from repro.jagged.m_heur import allocate_processors

    loads = np.array([5, 0, 9, 0, 3, 1000, 1], dtype=np.int64)
    for m in (7, 12, 40):
        with use_perf(False):
            ref = allocate_processors(loads, m)
        for backend in BACKENDS:
            with use_perf(True), use_perf_backend(backend):
                got = allocate_processors(loads, m)
            assert ref.tolist() == got.tolist(), (m, backend)


def test_hier_cut_dispatchers_match_unwindowed_references():
    from repro.hierarchical.cuts import (
        best_relaxed_split,
        best_weighted_cut_num,
        best_weighted_cut_win,
        best_relaxed_split_win,
    )

    P = PREFIXES["plain"]
    n = len(P) - 1
    for j0, j1 in ((0, n), (2, n - 1)):
        band = (P[j0 : j1 + 1] - P[j0]).astype(np.int64)
        for w1, w2 in ((1, 1), (3, 5)):
            ref = best_weighted_cut_num(band, w1, w2)
            got = best_weighted_cut_win(P, j0, j1, ((w1, w2),))
            if ref is None:
                assert got is None
            else:
                assert got == (ref[0], ref[1], w1, w2)
        for m in (2, 5, 40):
            with use_perf(False):
                ref_s = best_relaxed_split(band, m)
            got_s = best_relaxed_split_win(P, j0, j1, m)
            assert ref_s == got_s, (j0, j1, m)


def test_perf_package_stays_lint_hot():
    """Satellite pin: the registry's package is covered by the hot-path rules."""
    from repro.lint.engine import HOT_PACKAGES

    assert "perf" in HOT_PACKAGES
