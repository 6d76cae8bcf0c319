"""Tests for the sweep engine: bit-identity, order invariance, poisoning.

The sweep contract is the repo's strongest: for every algorithm and every
sweep order, warm-started results equal cold-call results — same rectangle
sets, same bottlenecks.  These tests enforce it on randomized instances,
and additionally verify that the validated bound store makes installing a
*wrong* ("poisoned") bound through the public API impossible: every
recording method checks the monotonicity laws and raises
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
    SweepResult,
    SweepState,
    current,
    sweep,
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
# Bit-identity of sweep() vs per-m cold calls


@pytest.mark.parametrize(
    "order", ["ascending", "descending", "shuffled"], ids=lambda o: f"order={o}"
)
def test_sweep_bit_identical_to_cold_calls(A, order):
    ms = sorted(M_VALUES)
    if order == "descending":
        ms = ms[::-1]
    elif order == "shuffled":
        ms = list(np.random.default_rng(7).permutation(ms))
    res = sweep(A, ALGOS, ms)
    for name in ALGOS:
        for m in ms:
            cold = _cold(A, name, int(m))
            warm = res[(name, int(m))]
            assert _rects(warm) == _rects(cold), (name, m)
            pc = PrefixSum2D(A)
            assert warm.max_load(pc) == cold.max_load(pc), (name, m)


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
    res = sweep(A, ["HIER-RB", "HIER-RELAXED"], [8, 16])
    for name in ("HIER-RB", "HIER-RELAXED"):
        for m in (8, 16):
            assert _rects(res[(name, m)]) == _rects(_cold(A, name, m))


def test_sweep_result_api(A):
    res = sweep(A, "JAG-M-HEUR", [4, 9])
    assert isinstance(res, SweepResult)
    assert len(res) == 2
    assert res[("jag-m-heur", 4)] is res.parts[("JAG-M-HEUR", 4)]
    bots = res.bottlenecks()
    for key, part in res:
        assert bots[key] == part.max_load(res.pref)


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
        assert state.bounds(pref, "jag_m", (12,))[0] == b1
        b2 = jag_m_opt_bottleneck(pref, 12)
    assert b1 == b2 == jag_m_opt_bottleneck(PrefixSum2D(A), 12)


def test_heuristic_witness_recorded_and_consumed(A):
    pref = PrefixSum2D(A)
    with use_sweep() as state:
        heur = partition_2d(pref, 16, "JAG-M-HEUR-HOR")
        wit = state.witness(pref, "jag_m", (16,))
        assert wit is not None and wit == heur.max_load(pref)
        exact = partition_2d(pref, 16, "JAG-M-OPT-HOR")
        opt = state.bounds(pref, "jag_m", (16,))[0]
        assert opt is not None and opt == exact.max_load(pref) <= wit


def test_monotone_bound_transfer_across_m(A):
    from repro.jagged.m_opt import jag_m_opt_bottleneck

    pref = PrefixSum2D(A)
    with use_sweep() as state:
        b_large = jag_m_opt_bottleneck(pref, 20)
        _, lb, _ = state.bounds(pref, "jag_m", (10,))
        assert lb is not None and lb >= b_large  # transfers downward in m
        b_small = jag_m_opt_bottleneck(pref, 10)
        assert b_small >= b_large
        _, _, ub = state.bounds(pref, "jag_m", (40,))
        assert ub is not None and ub <= b_small  # feasibility transfers up


def test_cross_class_grid_fact_bounds_m_way():
    state = SweepState()
    obj = object()
    state.record_ub(obj, "jag_pq", (3, 4), 120)
    # a 3×4-way partition is a 12-way jagged partition: ub for every m >= 12
    assert state.bounds(obj, "jag_m", (12,))[2] == 120
    assert state.bounds(obj, "jag_m", (30,))[2] == 120
    assert state.bounds(obj, "jag_m", (11,))[2] is None
    # ... and the m-way optimum at m = P·Q lower-bounds the grid class
    state.record_opt(obj, "jag_m", (12,), 100)
    assert state.bounds(obj, "jag_pq", (3, 4))[1] == 100


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
    state.record_opt(obj, "jag_m", (10,), 100)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_m", (10,), 99)  # duplicate m, new value
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_m", (20,), 150)  # larger m, larger B
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_m", (5,), 50)  # smaller m, smaller B


def test_record_rejects_witness_undercutting_optimum():
    state = SweepState()
    obj = object()
    state.record_opt(obj, "bisect", (10,), 100)
    with pytest.raises(SweepInvariantError):
        # nothing at m=5 can beat the optimum recorded at m=10
        state.record_ub(obj, "bisect", (5,), 99)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "bisect", (20,), 80)
        state.record_ub(obj, "bisect", (20,), 79)


def test_record_rejects_optimum_above_feasible_witness():
    state = SweepState()
    obj = object()
    state.record_ub(obj, "jag_m", (10,), 100)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_m", (10,), 101)  # witness already beat it


def test_record_rejects_unknown_class():
    state = SweepState()
    with pytest.raises(SweepInvariantError):
        state.record_opt(object(), "rect", (4,), 10)
    # a point of the wrong dimension is rejected the same way, on reads too
    with pytest.raises(SweepInvariantError):
        state.record_ub(object(), "jag_pq", (4,), 10)
    with pytest.raises(SweepInvariantError):
        state.bounds(object(), "jag_m", (2, 2))


def test_grid_records_reject_componentwise_contradictions():
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_pq", (2, 3), 100)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_pq", (2, 3), 90)
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_pq", (4, 6), 150)  # dominates but worse
    with pytest.raises(SweepInvariantError):
        state.record_opt(obj, "jag_pq", (1, 2), 50)  # dominated but better
    with pytest.raises(SweepInvariantError):
        # a feasible witness at a dominated grid implies B*(2,3) <= 99,
        # contradicting the recorded optimum 100
        state.record_ub(obj, "jag_pq", (1, 2), 99)
    # incomparable factorizations are unconstrained (no m-monotonicity)
    state.record_opt(obj, "jag_pq", (6, 1), 160)


def test_grid_dominance_bounds():
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_pq", (2, 3), 100)
    exact, lb, ub = state.bounds(obj, "jag_pq", (4, 6))
    assert exact is None and lb is None and ub == 100
    exact, lb, ub = state.bounds(obj, "jag_pq", (1, 3))
    assert exact is None and lb == 100 and ub is None
    # incomparable: no transfer either way
    assert state.bounds(obj, "jag_pq", (3, 2)) == (None, None, None)


def test_untracked_objects_get_no_bounds():
    state = SweepState()
    assert state.bounds(object(), "jag_m", (4,)) == (None, None, None)
    assert state.bounds(object(), "jag_pq", (2, 2)) == (None, None, None)
    assert state.witness(object(), "jag_m", (4,)) is None
    assert state.witness(object(), "jag_pq", (2, 2)) is None


def test_tracking_capacity_bound():
    from repro.sweep import state as state_mod

    state = SweepState()
    cap = state_mod._MAX_TRACKED
    keep = [object() for _ in range(cap + 5)]
    for i, obj in enumerate(keep):
        state.record_opt(obj, "jag_m", (4,), 10)
        if i < cap:
            assert state.bounds(obj, "jag_m", (4,))[0] == 10
    # beyond capacity: silently no warmth, never an error
    assert state.bounds(keep[-1], "jag_m", (4,)) == (None, None, None)
    assert state.stripe_memo(keep[-1]) is None


def test_identity_keying_holds_references():
    # the store must pin tracked objects so a GC'd id cannot alias a new one
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_m", (4,), 10)
    assert state._refs[id(obj)] is obj


# ---------------------------------------------------------------------------
# Kwargs-scoped fact keys (regression: facts from differently-parameterized
# solver calls used to share one key and collide)


def test_same_class_different_kwargs_coexist():
    # pinned regression: before scoping, the second record of the same
    # (class, m) under different solver kwargs raised SweepInvariantError
    # ("recorded twice") or silently poisoned the first fact
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_m", (8,), 100, kw={"num_stripes": 2})
    state.record_opt(obj, "jag_m", (8,), 120, kw={"num_stripes": 3})
    assert state.bounds(obj, "jag_m", (8,), kw={"num_stripes": 2})[0] == 100
    assert state.bounds(obj, "jag_m", (8,), kw={"num_stripes": 3})[0] == 120


def test_scope_canonicalization():
    from repro.sweep import canonical_scope

    # None values are defaults (dropped); order is irrelevant; values are
    # type-tagged so 1 and "1" and True stay distinct scopes
    assert canonical_scope(None) == ()
    assert canonical_scope({}) == ()
    assert canonical_scope({"a": None}) == ()
    assert canonical_scope({"a": 1, "b": "x"}) == canonical_scope({"b": "x", "a": 1})
    assert canonical_scope({"a": 1}) != canonical_scope({"a": "1"})
    assert canonical_scope({"a": 1}) != canonical_scope({"a": True})
    # an already-canonical scope passes through unchanged (store replay)
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


def test_constrained_feasibility_transfers_to_unscoped_query():
    # a partition produced under any kwargs is still a real partition:
    # its load is an upper bound for the unconstrained class optimum
    state = SweepState()
    obj = object()
    state.record_ub(obj, "jag_m", (8,), 140, kw={"num_stripes": 2})
    state.record_opt(obj, "jag_m", (8,), 130, kw={"num_stripes": 3})
    assert state.bounds(obj, "jag_m", (8,))[2] == 130  # min over scopes
    assert state.witness(obj, "jag_m", (8,)) == 130


def test_unscoped_optimum_lower_bounds_constrained_query():
    # the unconstrained optimum is over a superset of the constrained
    # search space, so it transfers as a lower bound — never as exact
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_m", (8,), 100)
    exact, lb, _ = state.bounds(obj, "jag_m", (8,), kw={"num_stripes": 2})
    assert exact is None and lb == 100


def test_constrained_optimum_never_leaks_exact_to_unscoped():
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_m", (8,), 150, kw={"num_stripes": 2})
    exact, _, ub = state.bounds(obj, "jag_m", (8,))
    assert exact is None  # constrained optimum is not the class optimum
    assert ub == 150  # ... but it is feasible, hence an upper bound


def test_record_rejects_constrained_fact_beating_unscoped_optimum():
    state = SweepState()
    obj = object()
    state.record_opt(obj, "jag_m", (8,), 100)
    with pytest.raises(SweepInvariantError):
        # a constrained search space cannot beat the unconstrained optimum
        state.record_ub(obj, "jag_m", (8,), 99, kw={"num_stripes": 2})


def test_bisect_class_records_under_sweep():
    from repro.oned.bisect import bisect_bottleneck

    rng = np.random.default_rng(0)
    P = np.zeros(65, dtype=np.int64)
    np.cumsum(rng.integers(0, 50, 64), out=P[1:])
    with use_sweep() as state:
        b = bisect_bottleneck(P, 8)
        assert state.bounds(P, "bisect", (8,))[0] == b
        assert bisect_bottleneck(P, 8) == b
    assert bisect_bottleneck(P, 8) == b  # cold call agrees after the sweep
