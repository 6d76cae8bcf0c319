"""The differential matrix: every fast path returns the cold partition.

Every registry algorithm runs on seeded instances across three axes:

* kernel body — the production ``numpy`` slot of every kernel, and the
  registry's scalar ``reference`` oracles swapped into that slot
  (``tests.conftest.reference_kernels``);
* substrate — dense ``Γ`` (:class:`PrefixSum2D`) and CSR
  (:class:`SparsePrefix2D`), plus a cold CSR pass as on a large instance
  (projection memo on, transpose pinned before the solve);
* sweep temperature — *cold* (a fresh substrate per call), *swept* (one
  substrate in one ``use_sweep`` scope, m descending: JAG-M-OPT shares its
  optima and stripe memo in memory, and every method runs with the scope's
  projection memo and pinned transpose) and, for the JAG-M-OPT entries,
  *warm* (a fresh substrate in a scope seeded from the :class:`SweepStore`
  file the swept scope flushed; that file starts empty, so the swept
  scope's warmth is all in memory).  No other method writes the store.

Every cell's rectangles must equal the cold ``numpy`` dense call's, and two
cold ``numpy`` dense runs must count the same operations.  A vectorized
kernel, CSR query or warm-start fact that decides one probe, cut or
allocation differently anywhere in a solve shows up here, even when the unit
suites (``tests/test_kernels_equality.py``, ``tests/test_sparse_equality.py``,
``tests/test_sweep*.py``) miss the input that triggers it.

Two coverage tests keep the matrix whole: its parametrization is exactly
the registry, and the registry's solves reach the ``numpy`` slot of every
kernel with a second body, through the entry points that look the slot up
on every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import prefix
from repro.core.prefix import PrefixSum2D
from repro.core.registry import ALGORITHMS, partition_2d
from repro.core.sparse import SparsePrefix2D
from repro.perf import kernels
from repro.perf.counters import op_counters
from repro.perf.kernels import KERNELS
from repro.sweep import SweepStore, use_sweep

from .conftest import reference_kernels


def _random_sparse(rng, n1: int, n2: int, k: int, hi: int) -> np.ndarray:
    A = np.zeros((n1, n2), dtype=np.int64)
    A.ravel()[rng.choice(n1 * n2, size=k, replace=False)] = rng.integers(1, hi, size=k)
    return A


def _instances() -> list[tuple[str, np.ndarray, tuple[int, ...]]]:
    """``(name, matrix, m values)``: smooth, spiky, sparse and half-zero shapes."""
    rng = np.random.default_rng(2011)
    smooth = rng.integers(1, 60, (19, 23))
    spiky = rng.integers(0, 4, (24, 17))
    spiky[5, 3] = 5_000
    cases = [
        ("smooth", smooth, (5, 12)),
        ("spiky", spiky, (5, 12)),
        ("sparse", _random_sparse(rng, 21, 18, 60, 90), (5, 12)),
    ]
    cases += [
        (f"seed{seed}", np.random.default_rng(seed).integers(0, 60, (21, 17)), (m,))
        for seed, m in ((0, 5), (1, 9), (2, 16))
    ]
    # half zeros plus one spike: the clamping and tie-break corners
    rng = np.random.default_rng(7)
    zeros_spike = rng.integers(0, 4, (24, 24))
    zeros_spike[rng.random((24, 24)) < 0.5] = 0
    zeros_spike[3, 5] = 10_000
    cases.append(("zeros-spike", zeros_spike, (2, 7, 12)))
    cases.append(("sparse-15%", _random_sparse(np.random.default_rng(12345), 18, 15, 40, 50), (6,)))
    return cases


INSTANCES = _instances()
SUBSTRATES = {"dense": PrefixSum2D, "csr": SparsePrefix2D}

#: the exact hierarchical DPs grow steeply in m, and their general
#: rectangle queries cost 4-5x more on CSR: they keep a cold slice on small
#: m, with CSR only on the sparse instances
_EXACT_DP = {"HIER-OPT", "SPIRAL-OPT"}
_EXACT_MS = {"smooth": (3, 5), "spiky": (3, 5), "sparse": (3, 5), "sparse-15%": (6,)}

#: the entries whose solves read and write the sweep state
_WARMED = {name for name in ALGORITHMS if name.startswith("JAG-M-OPT")}


def _cold(method, make, A, ms):
    """Rects per m, each on a fresh substrate."""
    return {m: partition_2d(make(A), m, method).rects for m in ms}


def _counted(method, A, ms):
    """Cold ``numpy`` dense rects and op counts (counting is slow: only this
    cell pays for it)."""
    with op_counters() as ops:
        rects = _cold(method, PrefixSum2D, A, ms)
    ops.pop("proj_hits", None)  # memo reuse, not solver work
    return rects, ops


def _swept(method, make, cells, store):
    """Rects per instance and m: every instance on one substrate of its own,
    all in one sweep scope, m descending."""
    out = {}
    with use_sweep(store=store):
        for name, A, ms in cells:
            pref = make(A)
            out[name] = {m: partition_2d(pref, m, method).rects for m in sorted(ms, reverse=True)}
    return out


@pytest.mark.parametrize("method", sorted(ALGORITHMS))
def test_partitions_identical_across_backends(method, tmp_path):
    exact = method in _EXACT_DP
    cells = [(n, A, _EXACT_MS[n]) for n, A, _ in INSTANCES if n in _EXACT_MS] if exact else INSTANCES
    want = {}
    for name, A, ms in cells:
        want[name], ops = _counted(method, A, ms)
        assert _counted(method, A, ms) == (want[name], ops), f"{method} on {name}: cold reruns differ"
    for backend in ("reference", "numpy"):
        seeded = {}
        for sub, make in SUBSTRATES.items():
            where = f"{method}, {backend}, {sub}"
            with reference_kernels(backend == "reference"):
                for name, A, ms in cells:
                    if (backend, sub) == ("numpy", "dense"):
                        break  # the cold cells are the baseline
                    if exact and sub == "csr" and not name.startswith("sparse"):
                        continue
                    assert _cold(method, make, A, ms) == want[name], f"{where}, cold, {name}"
                if exact:
                    continue
                path = tmp_path / f"{backend}-{sub}.json"
                assert _swept(method, make, cells, path) == want, f"{where}, swept"
                if method not in _WARMED:
                    assert not path.exists(), f"{where}: wrote sweep facts"
                    continue
                store = SweepStore(path)
                assert _swept(method, make, cells, store) == want, f"{where}, warm"
                assert store.seeded > 0, f"{where}: store not read"
                seeded[sub] = store.seeded
        # one digest per matrix on both substrates: CSR persists and seeds like dense
        assert len(set(seeded.values())) <= 1, f"{method}, {backend}: {seeded}"
        # cold on CSR as on a large instance: memo on by default and the
        # transpose pinned, so every column band is the transpose's row band
        with reference_kernels(backend == "reference"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(prefix, "_CACHE_MIN_CELLS", 0)
            for name, A, ms in cells:
                if exact and not name.startswith("sparse"):
                    continue
                got = _cold(method, _pinned_csr, A, ms)
                assert got == want[name], f"{method}, {backend}, pinned csr, cold, {name}"


def _pinned_csr(A: np.ndarray) -> SparsePrefix2D:
    sub = SparsePrefix2D(A)
    assert sub.transpose() is sub._T
    return sub


# ----------------------------------------------------------------------
# the matrix's coverage
# ----------------------------------------------------------------------
def test_matrix_runs_every_registry_entry():
    (mark,) = [
        m for m in test_partitions_identical_across_backends.pytestmark if m.name == "parametrize"
    ]
    assert list(mark.args[1]) == sorted(ALGORITHMS)
    assert _EXACT_DP <= set(ALGORITHMS)
    assert len(_WARMED) == 4  # JAG-M-OPT and its -HOR, -VER, -BEST entries


def test_every_kernel_reference_is_exercised(monkeypatch):
    """Production calls the ``numpy`` slot, resolved from ``KERNELS`` per call.

    One solve per registry entry reaches the slot of every kernel with a
    second body, so the matrix compares each numpy body against its oracle
    (``reference_kernels`` swaps the oracle into that slot).  A kernel with
    one body in both slots has no second body to compare;
    ``tests/test_kernels_equality.py`` pins it against its own oracle.  Each
    public entry point reaches its own entry's spy, which is what lets the
    oracle swap and the end-to-end tracer's patch see every call."""
    dual = {name for name, k in KERNELS.items() if k.numpy is not k.reference}
    reached = []
    for name, k in list(KERNELS.items()):

        def spy(*args, _name=name, _body=k.numpy, **kwargs):
            reached.append(_name)
            return _body(*args, **kwargs)

        monkeypatch.setitem(KERNELS, name, dataclasses.replace(k, numpy=spy))
    smooth = next(A for name, A, _ in INSTANCES if name == "smooth")
    for method in sorted(ALGORITHMS):
        partition_2d(PrefixSum2D(smooth), 5, method)
    assert dual and dual <= set(reached)
    P = np.array([0, 3, 4, 8], dtype=np.int64)
    offs = np.array([0, len(P)], dtype=np.int64)
    entry_points = {
        "probe_cuts": lambda: kernels.probe_cuts(P, 2, 5),
        "weighted_cut": lambda: kernels.weighted_cuts(P, offs, [((1, 1),)]),
        "relaxed_split": lambda: kernels.relaxed_splits(P, offs, [2]),
        "alloc_tail": lambda: kernels.alloc_tail(np.array([5, 3]), np.array([1, 1]), 3),
        "probe_multi": lambda: kernels.probe_multi(P[None, :], 2, 5),
    }
    for name, call in entry_points.items():
        reached.clear()
        call()
        assert reached == [name], name
