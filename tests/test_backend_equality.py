"""The differential matrix: every fast path returns the cold partition.

Every registry algorithm runs on seeded instances across three axes:

* kernel backend — the registry's scalar ``reference`` oracles and the
  production ``numpy`` kernels;
* substrate — dense ``Γ`` (:class:`PrefixSum2D`) and CSR
  (:class:`SparsePrefix2D`);
* sweep temperature — *cold* (a fresh substrate per call), *swept* (one
  substrate in one ``use_sweep`` scope, m descending) and *warm* (a fresh
  substrate in a scope seeded from the :class:`SweepStore` file the swept
  scope flushed; that file starts empty, so the swept scope's warmth is all
  in memory).

Every cell's rectangles must equal the cold ``numpy`` dense call's, and two
cold ``numpy`` dense runs must count the same operations.  A vectorized
kernel, CSR query or warm-start fact that decides one probe, cut or
allocation differently anywhere in a solve shows up here, even when the unit
suites (``tests/test_kernels_equality.py``, ``tests/test_sparse_equality.py``,
``tests/test_sweep*.py``) miss the input that triggers it.

This file is RPL009's reachability root (:mod:`repro.lint.flowrules`): the
substrate dispatchers are pinned here too, and deleting the file fails
``repro-lint``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.registry import ALGORITHMS, partition_2d
from repro.core.sparse import (
    SparsePrefix2D,
    auto_substrate,
    sparse_enabled,
    sparse_threshold,
    substrate_from_triplets,
)
from repro.perf.config import use_perf_backend
from repro.perf.counters import op_counters
from repro.sweep import SweepStore, use_sweep
from repro.sweep.store import instance_digest, matrix_digest


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


def _cold(method, make, A, ms):
    """Rects per m, each on a fresh substrate."""
    return {m: partition_2d(make(A), m, method).rects for m in ms}


def _counted(method, A, ms):
    """Cold ``numpy`` dense rects and op counts (the counting twins are slow:
    only this cell pays for them)."""
    with use_perf_backend("numpy"), op_counters() as ops:
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
            with use_perf_backend(backend):
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
                store = SweepStore(path)
                assert _swept(method, make, cells, store) == want, f"{where}, warm"
                assert store.seeded or not path.exists(), f"{where}: store not read"
                seeded[sub] = store.seeded
        # one digest per matrix on both substrates: CSR persists and seeds like dense
        assert len(set(seeded.values())) <= 1, f"{method}, {backend}: {seeded}"


# ----------------------------------------------------------------------
# the substrate dispatchers
# ----------------------------------------------------------------------
def test_auto_substrate_dispatches_on_density(rng, monkeypatch):
    A_sparse = _random_sparse(rng, 24, 20, 24, 50)
    A_dense = rng.integers(1, 9, size=(16, 16)).astype(np.int64)
    assert isinstance(auto_substrate(A_sparse), SparsePrefix2D)
    assert isinstance(auto_substrate(A_dense), PrefixSum2D)
    # the two dispatch outcomes agree on every query
    s, d = auto_substrate(A_sparse), PrefixSum2D(A_sparse)
    assert s.load(1, 7, 2, 9) == d.load(1, 7, 2, 9)
    # threshold 0 disables the sparse path entirely
    monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "0")
    assert not sparse_enabled()
    assert isinstance(auto_substrate(A_sparse), PrefixSum2D)
    monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "1.0")
    assert sparse_threshold() == 1.0
    assert isinstance(auto_substrate(A_dense), SparsePrefix2D)


def test_substrate_from_triplets_matches_dense_assembly(rng, monkeypatch):
    n1, n2 = 21, 17
    k = 60
    rows = rng.integers(0, n1, size=k)
    cols = rng.integers(0, n2, size=k)
    vals = rng.integers(0, 7, size=k)  # duplicates and explicit zeros
    A = np.zeros((n1, n2), dtype=np.int64)
    np.add.at(A, (rows, cols), vals)
    sub = substrate_from_triplets(rows, cols, vals, (n1, n2))
    np.testing.assert_array_equal(sub.cells_dense(), A)
    assert instance_digest(sub) == matrix_digest(A)
    # disabled dispatcher → dense substrate, same logical matrix
    monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "0")
    dense_sub = substrate_from_triplets(rows, cols, vals, (n1, n2))
    assert isinstance(dense_sub, PrefixSum2D)
    np.testing.assert_array_equal(dense_sub.cells_dense(), A)
