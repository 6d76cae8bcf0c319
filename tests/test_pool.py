"""The ``--jobs`` figure-cell pool (``repro.experiments.pool``).

Three behaviours are the contract: results come back in item order, a
worker exception reaches the caller (and leaves no child process behind),
and parent op-counter contexts see the counts of the serial loop.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.experiments import pool
from repro.experiments.pool import cell_pool, pmap, pmap_batched
from repro.hierarchical.rb import hier_rb
from repro.perf.counters import op_counters

#: cache hits depend on cache temperature, not on the work done
_EXCLUDED_COUNTERS = {"proj_hits"}


def _rects(part):
    return [(r.r0, r.r1, r.c0, r.c1) for r in part.rects]


def _hier_cell(payload):
    pref, m = payload
    return _rects(hier_rb(pref, m))


def _boom(x):
    raise RuntimeError(f"task failure {x}")


@pytest.fixture()
def two_workers():
    with cell_pool(2):
        yield


def test_serial_outside_a_pool():
    assert pool._ACTIVE is None
    assert pmap(abs, [-1, 2, -3]) == [1, 2, 3]
    assert pmap_batched(abs, [-1, 2, -3]) == [1, 2, 3]
    with cell_pool(1):
        assert pool._ACTIVE is None  # one job is the serial path


def test_pmap_orders_results(two_workers):
    """pmap returns results in item order — the basis of identical reductions."""
    assert pool._ACTIVE is not None
    assert pmap(abs, [-5, 3, -1, 0, -2]) == [5, 3, 1, 0, 2]


def test_pmap_batched_orders_results(two_workers):
    """pmap_batched reassembles chunk results in item order."""
    items = list(range(-20, 20))
    assert pmap_batched(abs, items) == [abs(x) for x in items]
    assert pmap_batched(abs, items[:3]) == [abs(x) for x in items[:3]]


def test_pmap_batched_merges_op_counters(two_workers):
    """Parent op-counter contexts see the same counts as the serial loop."""
    rng = np.random.default_rng(17)
    pref = PrefixSum2D(rng.integers(0, 100, size=(48, 48)))
    payloads = [(pref, m) for m in (4, 5, 6, 7, 8, 9)]
    with op_counters() as serial_ops:
        serial = [_hier_cell(p) for p in payloads]
    with op_counters() as par_ops:
        par = pmap_batched(_hier_cell, payloads)
    assert par == serial
    assert {k: v for k, v in par_ops.items() if k not in _EXCLUDED_COUNTERS} == {
        k: v for k, v in serial_ops.items() if k not in _EXCLUDED_COUNTERS
    }


def test_worker_exception_propagates_and_leaves_no_children():
    with pytest.raises(RuntimeError, match="task failure"):
        with cell_pool(2):
            pmap(_boom, [1, 2, 3])
    assert pool._ACTIVE is None
    assert multiprocessing.active_children() == []
