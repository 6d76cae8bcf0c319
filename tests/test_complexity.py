"""Operation-count checks against the paper's complexity bounds.

The stated asymptotic bounds of the paper and its journal version (arXiv
1104.2566) are *enforced* here, not just quoted, and this file is their
only check.  The op-counter layer (:mod:`repro.perf.counters`) counts the
operations that dominate each bound — probe steps, cut evaluations,
rectangle-load queries — and these tests pin them against the paper's
formulas on deterministic seeded instances:

* Probe is ``O(m log n)``: at most ``m`` greedy steps per call (§2.2).
* Exact 1D bisection opens ``O(log(UB - LB))`` probes (§2.2), and its
  two-sided walks never need more of them than plain bisection.
* JAG-M-HEUR is ``O(n + m log n)`` (§3.2.1): total probe steps stay within
  a fixed constant of ``n + m·log₂(n)``.
* HIER-RB evaluates exactly 2 cut searches per tree node with even splits,
  and at most 4 with odd ones; HIER-RELAXED at most 2 (§3.3).  Both make
  at most depth + 1 cut-kernel calls per solve, one per tree level.
* The CSR substrate answers HIER bands from Γ rows built on demand: a
  HIER-RB plus HIER-RELAXED session scatters each nonzero a few times,
  not once per band.
* RECT-NICOL's striped bisection needs about half the walks of plain
  bisection, because each walk's proved bound moves the bracket past ``B``.
* JAG-M-OPT-BEST settles the likelier orientation and asks the other
  once whether it fits below: its greedy steps on fig06's instance stay
  below the joint bisection's, and warm from a seeded store it makes
  exactly one DP (the confirm the build reuses), over a few stripes.
* A partition is one ``(m, 4)`` array (§1's "compact representation"): a
  heuristic's solve constructs no per-rectangle ``Rect`` object.

Counts are architecture-independent, so unlike wall-clock benchmarks these
assertions are exact and CI-stable.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.rectangle import Rect
from repro.core.registry import algorithm_names, partition_2d
from repro.oned.bisect import bisect_bottleneck
from repro.oned.probe import probe
from repro.perf import op_counters
from repro.perf.counters import OpCounters

from .conftest import prefix_of, reference_kernels


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


# ---------------------------------------------------------------------------
# exact 1D bisection: O(log(UB - LB)) probe rounds (§2.2)


def test_bisect_probe_count_logarithmic(P):
    m = 12
    total = int(P[-1])
    max_el = int(np.max(np.diff(P)))
    lb = max(-(-total // m), max_el)
    ub = total // m + max_el
    with op_counters() as ops:
        bisect_bottleneck(P, m)
    assert ops["probe_calls"] <= math.ceil(math.log2(ub - lb + 1)) + 1


@pytest.mark.parametrize("m,walks", [(3, 3), (12, 4), (40, 5)])
def test_bisect_walk_count_pinned(P, m, walks):
    # each walk moves an end of the bracket to the bound it proves (the
    # realised bottleneck or the cheapest extension), so the engine walks
    # no more often than plain bisection, which learns one bit per probe
    total = int(P[-1])
    lo = max(-(-total // m), int(np.max(np.diff(P))))
    hi = total // m + int(np.max(np.diff(P)))
    plain = 0
    while lo < hi:
        mid = (lo + hi) // 2
        plain += 1
        if probe(P, m, mid):
            hi = mid
        else:
            lo = mid + 1
    with op_counters() as ops:
        assert bisect_bottleneck(P, m) == lo
    assert ops["probe_calls"] == walks <= plain


def test_bisect_nd_probe_path_same_probe_count():
    # large prefix: the ndarray path skips the list conversion but runs the
    # *same* adaptive bisection as the list path (a list input) — identical
    # answer, identical probe count
    rng = np.random.default_rng(23)
    P = prefix_of(rng.integers(0, 1_000_000, 8_000))
    m = 11
    with op_counters() as ref:
        want = bisect_bottleneck(P.tolist(), m)
    with op_counters() as opt:
        got = bisect_bottleneck(P, m)
    assert got == want
    assert opt["probe_calls"] == ref["probe_calls"]
    assert opt["probe_steps"] == ref["probe_steps"]


# ---------------------------------------------------------------------------
# JAG-M-HEUR: O(n + m log n) probe work (§3.2.1)


@pytest.mark.parametrize("n,m", [(64, 16), (128, 36), (256, 100)])
def test_jag_m_heur_probe_steps_within_paper_bound(n, m):
    rng = np.random.default_rng(n + m)
    A = rng.integers(0, 50, (n, n))
    with op_counters() as ops:
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
    for backend in ("reference", "numpy"):
        with reference_kernels(backend == "reference"), op_counters() as ops:
            partition_2d(A, m, "HIER-RB")
        assert ops["cut_calls"] == 2 * (m - 1), backend


def test_hier_rb_cut_calls_odd_splits_at_most_4_per_node():
    rng = np.random.default_rng(6)
    A = rng.integers(1, 50, (32, 32))
    for m in (7, 13, 23):
        for backend in ("reference", "numpy"):
            with reference_kernels(backend == "reference"), op_counters() as ops:
                partition_2d(A, m, "HIER-RB")
            assert m - 1 <= ops["cut_calls"] <= 4 * (m - 1), (m, backend)


def test_hier_relaxed_cut_calls_bounded_by_tree():
    rng = np.random.default_rng(8)
    A = rng.integers(1, 50, (32, 32))
    for m in (4, 9, 16):
        for backend in ("reference", "numpy"):
            with reference_kernels(backend == "reference"), op_counters() as ops:
                partition_2d(A, m, "HIER-RELAXED")
            assert m - 1 <= ops["cut_calls"] <= 2 * (m - 1), (m, backend)


@pytest.mark.parametrize("method,name", [("HIER-RB", "weighted_cut"), ("HIER-RELAXED", "relaxed_split")])
def test_hier_kernel_calls_one_per_tree_level(monkeypatch, method, name):
    # the nodes of a tree level are independent: one kernel call scores every
    # window of a level, so a solve makes at most depth + 1 calls (one per
    # node and dimension before), however the backend scores them
    from repro.perf import kernels

    windows: list[int] = []
    k = kernels.KERNELS[name]

    def counted(fn):
        def call(vals, offs, *args):
            windows.append(len(offs) - 1)
            return fn(vals, offs, *args)

        return call

    monkeypatch.setitem(
        kernels.KERNELS,
        name,
        dataclasses.replace(k, reference=counted(k.reference), numpy=counted(k.numpy)),
    )
    A = np.random.default_rng(8).integers(1, 50, (48, 40))
    for m in (7, 16, 64, 200):
        for backend in ("reference", "numpy"):
            windows.clear()
            with reference_kernels(backend == "reference"):
                depth = partition_2d(A, m, method).meta["tree"].depth()
            assert len(windows) <= depth + 1, (m, backend, depth)
            assert sum(windows) >= m - 1  # a window per internal node at least


def test_csr_hier_session_scatters_few_nonzeros(monkeypatch):
    # every CSR band projection and frontier window is read from Γ rows, and
    # a row is built from its nearest built row: the nonzeros np.add.at
    # scatters in a HIER-RB + HIER-RELAXED session at m = 256 stay within
    # 8·nnz (4.7·nnz from built rows; 36·nnz with one scatter per band)
    from repro.core import sparse
    from repro.core.sparse import SparsePrefix2D
    from repro.instances import slac_instance

    pref = SparsePrefix2D(slac_instance(512))
    scattered = [0]

    class Add:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def at(self, a, idx, vals):
            scattered[0] += len(vals)
            np.add.at(a, idx, vals)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(sparse, "np", Numpy())
    for method in ("HIER-RB", "HIER-RELAXED"):
        partition_2d(pref, 256, method)
    assert 0 < scattered[0] <= 8 * pref.nnz, scattered[0] / pref.nnz


@pytest.mark.parametrize("method", algorithm_names(heuristics_only=True))
def test_heuristic_solve_constructs_no_rect(monkeypatch, method):
    # the builders emit one coordinate array; Rect objects appear only when
    # a caller asks for ``Partition.rects``
    made: list[Rect] = []
    check = Rect.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(Rect, "__post_init__", counted)
    A = np.random.default_rng(5).integers(0, 100, (48, 40))
    part = partition_2d(A, 64, method)
    assert part.m == 64 and made == []
    assert len(part.rects) == 64 and len(made) == 64  # the lazy tuple
    assert part.rects is part.rects and len(made) == 64  # built once


# ---------------------------------------------------------------------------
# cache effectiveness: the JAG-PQ-OPT probes re-read stripe boundary lists


def test_jag_pq_opt_projection_cache_hits():
    rng = np.random.default_rng(9)
    A = rng.integers(0, 60, (48, 48))
    with op_counters() as ops:
        pref = PrefixSum2D(A)
        partition_2d(pref, 12, "JAG-PQ-OPT-HOR")
    assert ops["proj_hits"] > 0
    assert ops["proj_hits"] <= ops["proj_queries"]
    # every miss stored its entry (nothing evicted within the budget)
    assert len(pref.projection_cache()) == ops["proj_queries"] - ops["proj_hits"]


@pytest.mark.parametrize("P,Q", [(4, 4), (16, 16), (8, 32)])
def test_striped_bisection_tightens_from_both_sides(monkeypatch, P, Q):
    # every walk moves one end of the bracket to the bound it proves: 7–9
    # probe_multi walks per solve here, against 19–20 for plain bisection
    from repro.instances import peak
    from repro.oned.multicost import multi_bottleneck
    from repro.perf import kernels
    from repro.rectilinear.nicol import _stripe_matrix
    from repro.rectilinear.uniform import uniform_cuts

    walks = []
    k = kernels.KERNELS["probe_multi"]

    def counted(*args):
        walks.append(args[2])
        return k.numpy(*args)

    monkeypatch.setitem(kernels.KERNELS, "probe_multi", dataclasses.replace(k, numpy=counted))
    M = _stripe_matrix(PrefixSum2D(peak(256, seed=0)), uniform_cuts(256, P), 0)
    B = multi_bottleneck(M, Q)
    with reference_kernels():
        assert multi_bottleneck(M, Q) == B
    assert len(walks) <= 10, walks


def test_rect_nicol_gallops_from_its_hint(monkeypatch):
    # RECT-NICOL hints every striped solve with the incumbent bottleneck,
    # and the solve gallops down from it: 208 probe_multi walks here, 344
    # when the hinted solve bisected like an unhinted one; the refinement
    # itself (16 iterations) does not change
    from repro.instances import diagonal
    from repro.perf import kernels

    walks = []
    k = kernels.KERNELS["probe_multi"]

    def counted(*args):
        walks.append(args[2])
        return k.numpy(*args)

    monkeypatch.setitem(kernels.KERNELS, "probe_multi", dataclasses.replace(k, numpy=counted))
    part = partition_2d(diagonal(512, seed=0), 64, "RECT-NICOL")
    assert part.meta["iterations"] == 16
    assert len(walks) <= 220, len(walks)


def test_jag_m_opt_scans_level_end_starts_only(monkeypatch):
    # the feasibility DP visits only the last start of each run of equal
    # f(k) (at most m + 1 per row): its 7 DPs walk 157 stripes on this
    # instance, where the all-starts DP (_reference_dp, every start in
    # [0, i) a candidate) walks 886 at the same bottlenecks
    from repro.jagged import m_opt

    walks = []
    walk = m_opt._stripe_min_parts

    def counted(*args):
        walks.append(args[1:3])
        return walk(*args)

    monkeypatch.setattr(m_opt, "_stripe_min_parts", counted)
    rng = np.random.default_rng(9)
    A = rng.integers(0, 60, (48, 48))
    partition_2d(PrefixSum2D(A), 12, "JAG-M-OPT-HOR")
    assert 0 < len(walks) <= 160, len(walks)


def test_jag_m_opt_capped_walks_stop_at_the_load_bound(monkeypatch):
    # a capped stripe walk stops once the load left exceeds what its
    # remaining parts can carry: one JAG-M-OPT solve here makes 6 626
    # bisect_right calls, where walking every capped step to cap + 1 made
    # 10 579 (fig06's m = 144 cell: 345 k against 985 k)
    from bisect import bisect_right

    from repro.instances import uniform
    from repro.perf import kernels

    calls = [0]

    def counted(*args):
        calls[0] += 1
        return bisect_right(*args)

    monkeypatch.setattr(kernels, "bisect_right", counted)
    partition_2d(PrefixSum2D(uniform(64, 1.2, seed=0)), 36, "JAG-M-OPT-HOR")
    assert calls[0] <= 6700, calls[0]


def _count_m_opt_work(monkeypatch):
    """Record each feasibility DP's bottleneck and each stripe walk's count."""
    from repro.jagged import m_opt

    dps: list[int] = []
    walks: list[int] = []
    dp, walk = m_opt._level_end_dp, m_opt.min_parts

    def counted_dp(*args, **kwargs):
        dps.append(args[1])
        return dp(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(m_opt, "_level_end_dp", counted_dp)
    monkeypatch.setattr(m_opt, "min_parts", counted_walk)
    return dps, walks


@pytest.mark.parametrize(
    "m,winner,dps,warm_walks",
    [pytest.param(6, "hor", 11, 3, id="6-hor"), pytest.param(12, "ver", 16, 5, id="12-ver")],
)
def test_jag_m_opt_best_settles_the_leader_then_probes_the_other(
    monkeypatch, tmp_path, m, winner, dps, warm_walks
):
    # -BEST settles the leader alone, asks the other side once whether it
    # fits below, and builds only the winner: 11 and 16 feasibility DPs
    # here, where -HOR plus -VER take 9 + 8 and 7 + 8 (this fixture is too
    # small for the order to pay; the fig06 pin below is where it does).
    # Warm from a seeded store, the winner's optimum is on record, the
    # other side's threshold probe is a recorded fact, and the one DP left
    # is the confirm at B*, which the build reuses.  The cold sweep ran an
    # unpinned DP at B*, so that confirm walks few stripes: 3 and 5, where
    # a store left by the pinned DP alone makes it walk 5 and 33.
    from repro.sweep import use_sweep

    calls, walks = _count_m_opt_work(monkeypatch)
    A = np.random.default_rng(9).integers(0, 60, (48, 48))

    def solve(method):
        calls.clear()
        walks.clear()
        part = partition_2d(PrefixSum2D(A), m, method)
        return part, len(calls)

    part, best = solve("JAG-M-OPT")
    assert part.meta["orientation"] == winner
    assert best == dps
    path = tmp_path / "facts.json"
    with use_sweep(store=path):
        solve("JAG-M-OPT")
    with use_sweep(store=path):
        part, warm = solve("JAG-M-OPT")
    assert warm == 1 and calls == [part.meta["lmax"]]
    assert len(walks) == warm_walks


def test_jag_m_opt_best_asks_the_loser_once(monkeypatch):
    # fig06's instance at m = 36 (VER wins): settling the leader, then one
    # threshold probe, walks stripes for 44 798 greedy steps (the counts
    # the walks return); asking the loser at every midpoint the leader
    # misses took 59 413 with the same pinned DPs, and 71 308 unpinned
    from repro.instances import uniform

    _, walks = _count_m_opt_work(monkeypatch)
    part = partition_2d(PrefixSum2D(uniform(256, 1.2, seed=0)), 36, "JAG-M-OPT")
    assert part.meta["orientation"] == "ver"
    assert sum(walks) <= 50_000, sum(walks)


def test_jag_pq_opt_probes_prove_both_sides(monkeypatch):
    # fig06's instance, -BEST: each probe-of-probes moves an end of the
    # bracket to the bound it proves, HOR is settled and VER asked once
    # below it.  4 / 16 / 21 probes at m = 16 / 144 / 400 (the threshold
    # probe and the build's own included), against 26 / 32 / 26 for
    # midpoint bisection of both orientations, and 37 / 444 / 972 stripe
    # walks against 791 / 2 644 / 3 553
    from repro.instances import uniform
    from repro.jagged import pq_opt

    probes, walks = [], []
    probe_fn, walk_fn = pq_opt._probe, pq_opt._stripe_walk

    def counted_probe(*args):
        probes.append(args[3])
        return probe_fn(*args)

    def counted_walk(*args):
        walks.append(args[2])
        return walk_fn(*args)

    monkeypatch.setattr(pq_opt, "_probe", counted_probe)
    monkeypatch.setattr(pq_opt, "_stripe_walk", counted_walk)
    pref = PrefixSum2D(uniform(256, 1.2, seed=0))
    got = []
    for m in (16, 144, 400):
        probes.clear()
        walks.clear()
        partition_2d(pref, m, "JAG-PQ-OPT")
        got.append((len(probes), len(walks)))
    assert got == [(4, 37), (16, 444), (21, 972)], got
