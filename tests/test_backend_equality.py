"""Partition-level backend differential: ``reference`` vs ``numpy`` kernels.

Every registry algorithm is run on seeded instances — dense ``Γ`` and the
CSR substrate — once with the kernel registry resolving its scalar
``reference`` oracles and once with the production ``numpy`` kernels.  The
rectangles must be identical: a vectorized kernel that decides one probe,
cut or allocation differently anywhere in a solve shows up here, even when
its unit test in ``tests/test_kernels_equality.py`` misses the input that
triggers it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.registry import ALGORITHMS, partition_2d
from repro.core.sparse import SparsePrefix2D
from repro.perf.config import use_perf_backend


def _instances() -> list[tuple[str, object]]:
    """Three seeded matrices on dense Γ, plus the sparse one on CSR."""
    rng = np.random.default_rng(2011)
    smooth = rng.integers(1, 60, (19, 23))
    spiky = rng.integers(0, 4, (24, 17))
    spiky[5, 3] = 5_000
    sparse = np.zeros((21, 18), dtype=np.int64)
    idx = rng.choice(sparse.size, size=60, replace=False)
    sparse.ravel()[idx] = rng.integers(1, 90, size=60)
    return [
        ("smooth", PrefixSum2D(smooth)),
        ("spiky", PrefixSum2D(spiky)),
        ("sparse", PrefixSum2D(sparse)),
        ("sparse-csr", SparsePrefix2D(sparse)),
    ]


INSTANCES = _instances()

#: the exact hierarchical DPs grow steeply in m: keep their cells small
_EXACT_DP = {"HIER-OPT", "SPIRAL-OPT"}


@pytest.mark.parametrize("method", sorted(ALGORITHMS))
def test_partitions_identical_across_backends(method):
    for name, pref in INSTANCES:
        for m in (3, 5) if method in _EXACT_DP else (5, 12):
            with use_perf_backend("reference"):
                ref = partition_2d(pref, m, method).rects
            got = partition_2d(pref, m, method).rects
            assert got == ref, f"{method} diverged on {name} (m={m})"
