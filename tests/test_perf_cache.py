"""Tests for the perf-layer cache: LRU bounds, projection memos, identity.

The projection memo only helps if the cached arrays are (a) exactly the
arrays the unmemoized (``reuse=False``) path builds, (b) impossible to
corrupt through the shared references, and (c) bounded in memory.  Each property is
tested directly here; the end-to-end bit-identity of whole partitions lives
in ``tests/test_perf_equality.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import prefix
from repro.core.prefix import PrefixSum1D, PrefixSum2D
from repro.perf import LRUCache
from repro.perf.cache import sizeof_entry


@pytest.fixture()
def pref():
    rng = np.random.default_rng(5)
    return PrefixSum2D(rng.integers(0, 50, (17, 23)))


# ---------------------------------------------------------------------------
# LRUCache mechanics


def test_lru_get_put_and_stats():
    c = LRUCache(max_bytes=10_000)
    assert c.get(("a",)) is None
    assert ("a",) not in c and len(c) == 0
    c.put(("a",), [1, 2, 3])
    assert c.get(("a",)) == [1, 2, 3]
    assert ("a",) in c and len(c) == 1
    assert c.nbytes == sizeof_entry([1, 2, 3])


def test_lru_evicts_least_recently_used():
    a = np.zeros(100, dtype=np.int64)
    per = sizeof_entry(a)
    c = LRUCache(max_bytes=3 * per)
    c.put(("a",), a)
    c.put(("b",), a.copy())
    c.put(("c",), a.copy())
    assert c.get(("a",)) is not None  # refresh "a": now "b" is the LRU entry
    c.put(("d",), a.copy())
    assert ("b",) not in c and ("a",) in c and ("c",) in c and ("d",) in c
    assert len(c) == 3  # exactly one eviction
    assert c.nbytes <= c.max_bytes


def test_lru_rejects_oversized_entry():
    c = LRUCache(max_bytes=64)
    c.put(("big",), np.zeros(1000, dtype=np.int64))
    assert len(c) == 0 and c.nbytes == 0


def test_lru_byte_bound_holds_under_churn():
    c = LRUCache(max_bytes=4096)
    rng = np.random.default_rng(0)
    for k in range(200):
        c.put(("k", k), np.zeros(rng.integers(1, 80), dtype=np.int64))
        assert c.nbytes <= c.max_bytes
    assert len(c) < 200  # entries were evicted


def test_cache_budget_env_knob(monkeypatch, pref):
    # the budget is a constant: the retired REPRO_PERF_CACHE_MB is not read
    monkeypatch.setenv("REPRO_PERF_CACHE_MB", "1")
    assert pref.projection_cache().max_bytes == 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Projection memoization on PrefixSum2D


def test_axis_prefix_memoized_and_frozen(pref):
    p1 = pref.axis_prefix(1, 3, 9, reuse=True)
    p2 = pref.axis_prefix(1, 3, 9, reuse=True)
    assert p1 is p2  # served from the memo, not recomputed
    assert not p1.flags.writeable
    with pytest.raises(ValueError):
        p1[0] = 99


def test_axis_prefix_matches_reference(pref):
    for axis in (0, 1):
        n = pref.n2 if axis == 0 else pref.n1
        for lo, hi in ((0, n), (2, n - 1), (5, 6)):
            ref = pref.axis_prefix(axis, lo, hi, reuse=False)
            opt = pref.axis_prefix(axis, lo, hi, reuse=True)
            np.testing.assert_array_equal(ref, opt)


def test_axis_prefix_bypasses_cache_when_disabled(pref):
    p1 = pref.axis_prefix(1, 3, 9, reuse=False)
    p2 = pref.axis_prefix(1, 3, 9, reuse=False)
    assert p1 is not p2
    assert p1.flags.writeable  # the unmemoized path hands out private arrays


def test_boundary_list_memoized_and_exact(pref):
    bl1 = pref.boundary_list(1, 2, 11, reuse=True)
    bl2 = pref.boundary_list(1, 2, 11, reuse=True)
    assert bl1 is bl2
    assert bl1 == pref.axis_prefix(1, 2, 11).tolist()
    assert pref.boundary_list(1, 2, 11, reuse=False) == bl1


def test_band_prefix_equals_reference(pref):
    for axis, j_end in ((0, pref.n1), (1, pref.n2)):
        for j0, j1 in ((0, j_end), (0, j_end - 2), (3, j_end - 1)):
            full = pref.axis_prefix(axis, 1, 7, reuse=False)
            ref = full[j0 : j1 + 1] - full[j0]
            for reuse in (False, True):
                opt = pref.band_prefix(axis, 1, 7, j0, j1, reuse=reuse)
                np.testing.assert_array_equal(ref, opt)
                assert opt[0] == 0


def test_transpose_is_involutive_under_perf(monkeypatch):
    # at/above the size threshold the transposed prefix is pinned: built
    # once, and the back-link makes the pair involutive
    big = PrefixSum2D(np.ones((260, 260), dtype=np.int64))
    assert big.n1 * big.n2 >= prefix._CACHE_MIN_CELLS
    T = big.transpose()
    assert T.transpose() is big
    assert big.transpose() is T  # built once
    np.testing.assert_array_equal(T.G, big.G.T)
    # the same instance below a raised threshold is copied on every call
    monkeypatch.setattr(prefix, "_CACHE_MIN_CELLS", big.n1 * big.n2 + 1)
    fresh = PrefixSum2D(big.G, is_prefix=True)
    assert fresh.transpose() is not fresh.transpose()


def test_transpose_cache_is_adaptive(pref):
    # below the threshold the copy is cheaper than pinning the pair into a
    # reference cycle: every call returns a fresh prefix...
    assert pref.n1 * pref.n2 < prefix._CACHE_MIN_CELLS
    assert pref.transpose() is not pref.transpose()
    # ...except during a sweep, where warm-start facts are keyed by
    # object identity and the -VER variants need a stable transpose
    from repro.sweep.engine import use_sweep

    with use_sweep():
        T = pref.transpose()
        assert pref.transpose() is T
        assert T.transpose() is pref
    # the pin installed by the sweep persists for the instance lifetime
    assert pref.transpose() is T
    np.testing.assert_array_equal(T.G, pref.G.T)


def test_max_element_cached_and_correct():
    rng = np.random.default_rng(11)
    A = rng.integers(0, 1000, (31, 13))
    pref = PrefixSum2D(A)
    assert pref.max_element() == int(A.max())
    assert pref._max_el == int(A.max())  # second call hits the slot
    assert pref.max_element() == int(A.max())

    v = rng.integers(0, 1000, 40)
    p1 = PrefixSum1D(v)
    assert p1.max_element() == int(v.max())
    assert p1.max_element() == int(v.max())


def test_projection_cache_is_per_instance(pref):
    other = PrefixSum2D(np.ones((4, 4), dtype=np.int64))
    pref.axis_prefix(1, 0, 2, reuse=True)
    assert other._cache is None or len(other.projection_cache()) == 0


# ---------------------------------------------------------------------------
# Adaptive memoization dispatch (size-defaulted `reuse`)


def test_small_instance_skips_memo_by_default(pref):
    # 17×23 is far below the default threshold: size-defaulted queries take
    # the straight-line path (fresh writable arrays, nothing cached) so the
    # small-instance heuristics do not pay cache bookkeeping
    assert pref.n1 * pref.n2 < prefix._CACHE_MIN_CELLS
    p1 = pref.axis_prefix(1, 3, 9)
    p2 = pref.axis_prefix(1, 3, 9)
    assert p1 is not p2
    assert p1.flags.writeable
    bl = pref.boundary_list(1, 3, 9)
    assert bl == p1.tolist()
    assert pref._cache is None or len(pref._cache) == 0


def test_explicit_reuse_overrides_size_default(pref):
    p1 = pref.axis_prefix(0, 1, 5, reuse=True)
    assert pref.axis_prefix(0, 1, 5, reuse=True) is p1
    # reuse=False forces the straight-line path even after a cached hit
    p3 = pref.axis_prefix(0, 1, 5, reuse=False)
    assert p3 is not p1
    np.testing.assert_array_equal(p3, p1)


def test_cache_min_cells_env_knob(monkeypatch, pref):
    # the floor is a constant: the retired REPRO_PERF_CACHE_MIN_CELLS is not read
    monkeypatch.setenv("REPRO_PERF_CACHE_MIN_CELLS", "0")
    assert pref.axis_prefix(1, 3, 9) is not pref.axis_prefix(1, 3, 9)


def test_zero_threshold_restores_always_memoize(monkeypatch):
    monkeypatch.setattr(prefix, "_CACHE_MIN_CELLS", 0)
    rng = np.random.default_rng(5)
    small = PrefixSum2D(rng.integers(0, 50, (17, 23)))  # fresh: default unresolved
    assert small.axis_prefix(1, 3, 9) is small.axis_prefix(1, 3, 9)


def test_size_default_resolved_once_per_instance(monkeypatch, pref):
    pref.axis_prefix(1, 3, 9)  # resolves the default (below threshold)
    monkeypatch.setattr(prefix, "_CACHE_MIN_CELLS", 0)
    # the instance keeps its resolved default; only fresh prefixes see
    # the new threshold
    assert pref.axis_prefix(1, 3, 9) is not pref.axis_prefix(1, 3, 9)
