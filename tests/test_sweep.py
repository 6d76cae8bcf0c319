"""Tests for the warm-start scope: bit-identity, order invariance, poisoning.

The contract is the repo's strongest: for every algorithm and every call
order inside a ``use_sweep()`` scope, results equal cold-call results —
same rectangle sets, same bottlenecks.  These tests enforce it on
randomized instances, and additionally verify that the validated table of
JAG-M-OPT optima makes installing a *wrong* ("poisoned") bound through the
public API impossible: :meth:`~repro.sweep.state.SweepState.record_opt`
checks that ``B*(m)`` stays non-increasing in ``m`` and raises
:class:`~repro.sweep.state.SweepInvariantError` on contradiction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.instances import uniform
from repro.sweep import (
    SweepInvariantError,
    SweepState,
    current,
    sweep_active,
    use_sweep,
)

ALGOS = ["JAG-PQ-HEUR", "JAG-M-HEUR", "JAG-PQ-OPT", "JAG-M-OPT", "RECT-NICOL"]
M_VALUES = [4, 6, 12, 20, 36]


def _rects(part) -> list[tuple[int, int, int, int]]:
    return sorted((r.r0, r.r1, r.c0, r.c1) for r in part.rects)


def _cold(A, name, m):
    # a fresh prefix per call: no shared cache, no sweep context
    return partition_2d(PrefixSum2D(A), m, name)


@pytest.fixture(scope="module")
def A():
    return uniform(40, 1.3, seed=3)


# ---------------------------------------------------------------------------
# Bit-identity of calls inside one scope vs per-m cold calls


@pytest.mark.parametrize(
    "order", ["ascending", "descending", "shuffled"], ids=lambda o: f"order={o}"
)
def test_sweep_bit_identical_to_cold_calls(A, order):
    ms = sorted(M_VALUES)
    if order == "descending":
        ms = ms[::-1]
    elif order == "shuffled":
        ms = [int(m) for m in np.random.default_rng(7).permutation(ms)]
    pref = PrefixSum2D(A)
    with use_sweep():
        warm = {(name, m): partition_2d(pref, m, name) for name in ALGOS for m in ms}
    pc = PrefixSum2D(A)
    for (name, m), part in warm.items():
        cold = _cold(A, name, m)
        assert _rects(part) == _rects(cold), (name, m)
        assert part.max_load(pc) == cold.max_load(pc), (name, m)


def test_use_sweep_call_order_invariance(A):
    # exact solvers first vs heuristics first: facts flow differently, but
    # every result must match the cold baseline either way
    pref1, pref2 = PrefixSum2D(A), PrefixSum2D(A)
    out1, out2 = {}, {}
    with use_sweep():
        for name in ALGOS:
            for m in M_VALUES:
                out1[(name, m)] = partition_2d(pref1, m, name)
    with use_sweep():
        for name in reversed(ALGOS):
            for m in reversed(M_VALUES):
                out2[(name, m)] = partition_2d(pref2, m, name)
    for key in out1:
        assert _rects(out1[key]) == _rects(out2[key]) == _rects(_cold(A, *key)), key


def test_sweep_transparent_for_hierarchical(A):
    # algorithms with no sweep hooks run unchanged inside a sweep context
    pref = PrefixSum2D(A)
    with use_sweep() as state:
        for name in ("HIER-RB", "HIER-RELAXED"):
            for m in (16, 8):
                assert _rects(partition_2d(pref, m, name)) == _rects(_cold(A, name, m))
        assert state.facts(pref) == ({}, {})  # and leave nothing behind


def test_sweep_context_is_scoped():
    assert not sweep_active() and current() is None
    with use_sweep() as state:
        assert sweep_active() and current() is state
        with use_sweep() as inner:
            assert current() is inner  # innermost wins
        assert current() is state
    assert not sweep_active() and current() is None


# ---------------------------------------------------------------------------
# Warm starts actually fire (not just stay transparent)


def test_exact_hit_short_circuits_second_call(A):
    from repro.jagged.m_opt import jag_m_opt_bottleneck

    pref = PrefixSum2D(A)
    with use_sweep() as state:
        b1 = jag_m_opt_bottleneck(pref, 12)
        assert state.bounds(pref, 12)[0] == b1
        b2 = jag_m_opt_bottleneck(pref, 12)
    assert b1 == b2 == jag_m_opt_bottleneck(PrefixSum2D(A), 12)


def test_monotone_bound_transfer_across_m(A):
    from repro.jagged.m_opt import jag_m_opt_bottleneck

    pref = PrefixSum2D(A)
    with use_sweep() as state:
        b_large = jag_m_opt_bottleneck(pref, 20)
        _, lb, _ = state.bounds(pref, 10)
        assert lb is not None and lb >= b_large  # transfers downward in m
        b_small = jag_m_opt_bottleneck(pref, 10)
        assert b_small >= b_large
        _, _, ub = state.bounds(pref, 40)
        assert ub is not None and ub <= b_small  # feasibility transfers up


def test_stripe_memo_shared_across_calls(A):
    pref = PrefixSum2D(A)
    with use_sweep() as state:
        memo = state.stripe_memo(pref)
        assert memo == {}
        partition_2d(pref, 12, "JAG-M-OPT-HOR")
        assert state.stripe_memo(pref) is memo
        assert len(memo) > 0  # the DP deposited stripe facts


# ---------------------------------------------------------------------------
# Poisoning: wrong bounds cannot be installed through the public API


def test_record_rejects_contradicting_monotone_optima():
    state = SweepState()
    obj = object()
    state.record_opt(obj, 10, 100)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, 10, 99)  # duplicate m, new value
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, 20, 150)  # larger m, larger B
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, 5, 50)  # smaller m, smaller B
    assert state.bounds(obj, 10) == (100, 100, 100)  # rejected, not installed


def test_record_rejects_optimum_above_feasible_witness():
    state = SweepState()
    obj = object()
    # the optimum at m = 5 is a feasible 10-way bottleneck too (m-way
    # jagged partitions may leave parts empty): B*(10) <= 100
    state.record_opt(obj, 5, 100)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, 10, 101)
    state.record_opt(obj, 10, 100)  # equal is consistent


def test_untracked_objects_get_no_bounds():
    state = SweepState()
    obj = object()
    assert state.bounds(obj, 4) == (None, None, None)
    assert id(obj) not in state._refs  # a read without a store never tracks


def test_tracking_capacity_bound():
    from repro.sweep import state as state_mod

    state = SweepState()
    cap = state_mod._MAX_TRACKED
    keep = [object() for _ in range(cap + 5)]
    for i, obj in enumerate(keep):
        state.record_opt(obj, 4, 10)
        if i < cap:
            assert state.bounds(obj, 4)[0] == 10
    # beyond capacity: silently no warmth, never an error
    assert state.bounds(keep[-1], 4) == (None, None, None)
    assert state.stripe_memo(keep[-1]) is None


def test_identity_keying_holds_references():
    # the store must pin tracked objects so a GC'd id cannot alias a new one
    state = SweepState()
    obj = object()
    state.record_opt(obj, 4, 10)
    assert state._refs[id(obj)] is obj


# ---------------------------------------------------------------------------
# Solver kwargs: raw-store cell keys canonicalize them, and differently
# parameterized calls inside one scope never share facts


def test_scope_canonicalization():
    from repro.experiments.rawstore import canonical_scope

    # None values are defaults (dropped); order is irrelevant; values are
    # type-tagged so 1 and "1" and True stay distinct scopes
    assert canonical_scope(None) == ()
    assert canonical_scope({}) == ()
    assert canonical_scope({"a": None}) == ()
    assert canonical_scope({"a": 1, "b": "x"}) == canonical_scope({"b": "x", "a": 1})
    assert canonical_scope({"a": 1}) != canonical_scope({"a": "1"})
    assert canonical_scope({"a": 1}) != canonical_scope({"a": True})
    # an already-canonical scope passes through unchanged
    scope = canonical_scope({"num_stripes": 4})
    assert canonical_scope(scope) == scope


def test_two_num_stripes_in_one_scope_stay_cold_identical(A):
    # e2e pin for the contamination bug: two differently-parameterized
    # JAG-M-HEUR calls inside one sweep must each match their cold baseline
    pref = PrefixSum2D(A)
    cold1 = partition_2d(PrefixSum2D(A), 12, "JAG-M-HEUR", num_stripes=1)
    cold4 = partition_2d(PrefixSum2D(A), 12, "JAG-M-HEUR", num_stripes=4)
    with use_sweep():
        warm1 = partition_2d(pref, 12, "JAG-M-HEUR", num_stripes=1)
        warm4 = partition_2d(pref, 12, "JAG-M-HEUR", num_stripes=4)
        again1 = partition_2d(pref, 12, "JAG-M-HEUR", num_stripes=1)
    assert _rects(warm1) == _rects(again1) == _rects(cold1)
    assert _rects(warm4) == _rects(cold4)
    pc = PrefixSum2D(A)
    assert warm1.max_load(pc) == cold1.max_load(pc)
    assert warm4.max_load(pc) == cold4.max_load(pc)


