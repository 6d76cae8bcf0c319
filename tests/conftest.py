"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf.kernels import KERNELS


@contextmanager
def reference_kernels(on: bool = True) -> Iterator[None]:
    """Run every kernel on its scalar oracle: each ``KERNELS`` entry's
    ``numpy`` slot, the one production calls, holds its ``reference`` body
    until exit.  ``on=False`` changes nothing (a backend loop's numpy arm).
    Enter it inside any ``monkeypatch`` of ``KERNELS``, so the patch's undo
    runs last."""
    saved = dict(KERNELS)
    if on:
        KERNELS.update({n: dataclasses.replace(k, numpy=k.reference) for n, k in saved.items()})
    try:
        yield
    finally:
        KERNELS.update(saved)


def prefix_of(values) -> np.ndarray:
    """Prefix array of a 1D load list/array."""
    values = np.asarray(values, dtype=np.int64)
    return np.concatenate([[0], np.cumsum(values)]).astype(np.int64)


def alloc_oracle(loads: list[int], q: list[int], m: int) -> list[int]:
    """The JAG-M-HEUR allocation tail by linear scans over cross-multiplied
    ratios: shave the first stripe of least ``load/q`` (with ``q > 1``) while
    the total exceeds ``m``, then give each leftover processor to the first
    stripe of greatest ``load/q``."""
    q = list(q)
    while sum(q) > m:
        s = -1
        for t in range(len(q)):
            if q[t] > 1 and (s < 0 or loads[t] * q[s] < loads[s] * q[t]):
                s = t
        q[s] -= 1
    for _ in range(m - sum(q)):
        s = 0
        for t in range(1, len(q)):
            if loads[t] * q[s] > loads[s] * q[t]:
                s = t
        q[s] += 1
    return q


# 1D load arrays (possibly containing zeros)
load_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(1, 30),
    elements=st.integers(0, 60),
)

# strictly positive 1D load arrays (for Δ-based theory)
positive_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(1, 30),
    elements=st.integers(1, 60),
)

# small 2D load matrices
load_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    elements=st.integers(0, 40),
)

positive_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
    elements=st.integers(1, 40),
)

proc_counts = st.integers(1, 9)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep dataset caches inside the test sandbox."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
