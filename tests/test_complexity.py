"""Operation-count checks against the paper's complexity bounds.

ROADMAP item RPL006 wants the stated asymptotic bounds *enforced*, not just
quoted.  The op-counter layer (:mod:`repro.perf.counters`) counts the
operations that dominate each bound — probe steps, cut evaluations,
rectangle-load queries — and these tests pin them against the paper's
formulas on deterministic seeded instances:

* Probe is ``O(m log n)``: at most ``m`` greedy steps per call (§2.2).
* Exact 1D bisection opens ``O(log(UB - LB))`` probes (§2.2).
* JAG-M-HEUR is ``O(n + m log n)`` (§3.2.1): total probe steps stay within
  a fixed constant of ``n + m·log₂(n)``.
* HIER-RB evaluates at most 2 cut searches per tree node with even splits,
  and at most 4 with odd ones (§3.3).

Counts are architecture-independent, so unlike wall-clock benchmarks these
assertions are exact and CI-stable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.oned.bisect import bisect_bottleneck, feasible_bottlenecks
from repro.oned.probe import min_parts, probe
from repro.perf import min_parts_batch, op_counters, use_perf
from repro.perf.counters import OpCounters

from .conftest import prefix_of


@pytest.fixture()
def P():
    rng = np.random.default_rng(17)
    return prefix_of(rng.integers(0, 100, 500))


# ---------------------------------------------------------------------------
# counter mechanics


def test_counters_are_inert_without_context(P):
    # no open context: instrumented call sites must not record anywhere
    probe(P, 5, int(P[-1]))
    with op_counters() as ops:
        pass
    assert ops == {}


def test_nested_contexts_both_count(P):
    with op_counters() as outer:
        probe(P, 5, int(P[-1]))
        with op_counters() as inner:
            probe(P, 5, int(P[-1]))
    assert inner["probe_calls"] == 1
    assert outer["probe_calls"] == 2  # outer context saw both events


def test_nested_equal_contexts_unwind_by_identity(P):
    # contexts opened back-to-back hold ==-equal dicts the whole time; the
    # unwind must pop each context by identity, not by value, or an inner
    # exit evicts the outer dict and leaves a closed one on the stack
    with op_counters() as outer:
        with op_counters():
            with op_counters() as inner:
                probe(P, 3, int(P[-1]))
        probe(P, 3, int(P[-1]))  # after inner contexts closed
    assert outer["probe_calls"] == 2
    assert inner["probe_calls"] == 1  # closed contexts stopped counting


def test_opcounters_missing_and_total():
    ops = OpCounters({"probe_calls": 2, "probe_steps": 10})
    assert ops["never_bumped"] == 0
    assert ops.total("probe") == 12


def test_registry_attaches_op_counts():
    A = np.arange(36).reshape(6, 6)
    with op_counters() as ops:
        part = partition_2d(A, 4, "JAG-M-HEUR")
    attached = part.meta["op_counts"]
    assert isinstance(attached, OpCounters)
    assert attached["probe_calls"] >= 1
    # the outer context saw at least everything the attached snapshot saw
    assert all(ops[k] >= v for k, v in attached.items())


# ---------------------------------------------------------------------------
# Probe: at most m greedy steps per call (§2.2)


def test_probe_steps_bounded_by_m(P):
    total = int(P[-1])
    for m in (1, 3, 17, 100):
        for B in (0, total // (2 * m) if m else 0, total // max(m, 1), total):
            with op_counters() as ops:
                probe(P, m, B)
            assert ops["probe_calls"] == 1
            assert ops["probe_steps"] <= m


def test_min_parts_batch_counts_match_parts(P):
    B = int(P[-1]) // 7
    with op_counters() as ops:
        parts = min_parts_batch(P, B)
    assert parts == min_parts(P, B)
    assert ops["probe_steps"] == parts  # one jump-table hop per interval
    assert ops["searchsorted_calls"] == 1  # the whole table from one call


# ---------------------------------------------------------------------------
# exact 1D bisection: O(log(UB - LB)) probe rounds (§2.2)


def test_bisect_probe_count_logarithmic(P):
    m = 12
    total = int(P[-1])
    max_el = int(np.max(np.diff(P)))
    lb = max(-(-total // m), max_el)
    ub = total // m + max_el
    with use_perf(False), op_counters() as ops:
        bisect_bottleneck(P, m)
    assert ops["probe_calls"] <= math.ceil(math.log2(ub - lb + 1)) + 1


def test_bisect_nd_probe_path_same_probe_count():
    # large prefix: the perf path skips the list conversion but runs the
    # *same* adaptive bisection — identical answer, identical probe count
    rng = np.random.default_rng(23)
    P = prefix_of(rng.integers(0, 1_000_000, 8_000))
    m = 11
    with use_perf(False), op_counters() as ref:
        want = bisect_bottleneck(P, m)
    with use_perf(True), op_counters() as opt:
        got = bisect_bottleneck(P, m)
    assert got == want
    assert opt["probe_calls"] == ref["probe_calls"]
    assert opt["probe_steps"] == ref["probe_steps"]


def test_feasibility_curve_batches_into_one_kernel_call():
    # K independent candidates: the scalar path pays K probe calls, the
    # batch path exactly one probe_batch invocation with m rounds at most
    rng = np.random.default_rng(29)
    P = prefix_of(rng.integers(0, 1_000, 600))
    m = 9
    total = int(P[-1])
    Bs = list(range(total // (2 * m), 2 * total // m, max(total // (20 * m), 1)))
    with use_perf(False), op_counters() as ref:
        want = feasible_bottlenecks(P, m, Bs)
    with use_perf(True), op_counters() as opt:
        got = feasible_bottlenecks(P, m, Bs)
    np.testing.assert_array_equal(got, want)
    assert ref["probe_calls"] == len(Bs)
    assert opt["probe_calls"] == 0
    assert opt["probe_batch_calls"] == 1
    assert opt["searchsorted_calls"] <= m  # one chained round per greedy step


# ---------------------------------------------------------------------------
# JAG-M-HEUR: O(n + m log n) probe work (§3.2.1)


@pytest.mark.parametrize("n,m", [(64, 16), (128, 36), (256, 100)])
def test_jag_m_heur_probe_steps_within_paper_bound(n, m):
    rng = np.random.default_rng(n + m)
    A = rng.integers(0, 50, (n, n))
    with use_perf(False), op_counters() as ops:
        partition_2d(A, m, "JAG-M-HEUR-HOR")
    bound = n + m * math.ceil(math.log2(n + 1))
    # fixed constant covering the stripe-count search and the per-stripe
    # 1D refinements; the *growth* must stay O(n + m log n)
    assert ops["probe_steps"] <= 32 * bound


# ---------------------------------------------------------------------------
# hierarchical: cut evaluations per tree node (§3.3)


def test_hier_rb_cut_calls_even_splits():
    rng = np.random.default_rng(5)
    A = rng.integers(1, 50, (32, 32))
    m = 16  # powers of two split evenly at every node: one orientation each
    for perf in (False, True):
        with use_perf(perf), op_counters() as ops:
            partition_2d(A, m, "HIER-RB")
        assert ops["cut_calls"] == 2 * (m - 1), f"perf={perf}"


def test_hier_rb_cut_calls_odd_splits_at_most_4_per_node():
    rng = np.random.default_rng(6)
    A = rng.integers(1, 50, (32, 32))
    for m in (7, 13, 23):
        for perf in (False, True):
            with use_perf(perf), op_counters() as ops:
                partition_2d(A, m, "HIER-RB")
            assert m - 1 <= ops["cut_calls"] <= 4 * (m - 1), f"m={m} perf={perf}"


def test_hier_relaxed_cut_calls_bounded_by_tree():
    rng = np.random.default_rng(8)
    A = rng.integers(1, 50, (32, 32))
    for m in (4, 9, 16):
        for perf in (False, True):
            with use_perf(perf), op_counters() as ops:
                partition_2d(A, m, "HIER-RELAXED")
            assert m - 1 <= ops["cut_calls"] <= 2 * (m - 1), f"m={m} perf={perf}"


# ---------------------------------------------------------------------------
# cache effectiveness: the JAG-M-OPT DP re-reads stripe projections


def test_jag_m_opt_projection_cache_hits():
    rng = np.random.default_rng(9)
    A = rng.integers(0, 60, (48, 48))
    with use_perf(True), op_counters() as ops:
        pref = PrefixSum2D(A)
        partition_2d(pref, 12, "JAG-M-OPT-HOR")
    assert ops["proj_hits"] > 0
    assert ops["proj_hits"] <= ops["proj_queries"]
    stats = pref.projection_cache().stats()
    assert stats["hits"] == ops["proj_hits"]


def test_jag_m_opt_scans_level_end_starts_only():
    # the feasibility DP visits only the last start of each run of equal
    # f(k) (at most m + 1 per row): 522 stripe projections on this
    # instance, against 975 when every start in [0, i) is a candidate
    rng = np.random.default_rng(9)
    A = rng.integers(0, 60, (48, 48))
    with use_perf(True), op_counters() as ops:
        partition_2d(PrefixSum2D(A), 12, "JAG-M-OPT-HOR")
    assert ops["proj_queries"] <= 600
